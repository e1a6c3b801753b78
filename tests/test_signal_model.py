import hashlib
import math

import numpy as np
import pytest

from rssdetect.errors import ConfigError, DegeneratePowerError
from rssdetect import signal_model as sm


def make_plain_scenario(
    tx_dbm=-50.0, noise_dbm=-90.0, shadowing=0.0, receivers=((1.0, 0.0, 0.0),)
) -> sm.Scenario:
    """Hand-built scenario with zeroed shadowing: loc 0 sits at distance 1 m
    from receiver 0, so P_rx = tx - reference_loss exactly."""
    cfg = sm.ScenarioConfig(
        n_locations=2,
        receiver_positions=receivers,
        tx_power_dbm=tx_dbm,
        noise_dbm=noise_dbm,
        shadowing_std_db=shadowing,
        reference_loss_db=40.0,
        path_loss_exponent=2.5,
    )
    locations = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
    rx = np.asarray(receivers, dtype=float)
    return sm.Scenario(
        config=cfg,
        locations=locations,
        receivers=rx,
        shadowing_db=np.zeros((2, rx.shape[0])),
        receiver_group=np.arange(rx.shape[0]),
        seed=0,
    )


class TestGenerateScenario:
    def test_campaign_scale(self):
        cfg = sm.ScenarioConfig(n_locations=52)
        sc = sm.generate_scenario(cfg, seed=1)
        assert sc.n_locations == 52
        assert sc.n_channels == 16  # four receivers with four antennas each
        assert len(np.unique(sc.receiver_group)) == 4
        # locations pairwise distinct and inside the region
        assert np.unique(sc.locations, axis=0).shape[0] == 52
        bounds = np.asarray(cfg.region)
        assert np.all(sc.locations >= bounds[:, 0]) and np.all(sc.locations <= bounds[:, 1])

    def test_deterministic(self):
        cfg = sm.ScenarioConfig(n_locations=5)
        a = sm.generate_scenario(cfg, seed=9)
        b = sm.generate_scenario(cfg, seed=9)
        assert np.array_equal(a.locations, b.locations)
        assert np.array_equal(a.shadowing_db, b.shadowing_db)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(n_locations=0), "n_locations"),
            (dict(n_locations=1), "n_locations"),
            (dict(path_loss_exponent=0.0), "path_loss_exponent"),
            (dict(shadowing_std_db=-1.0), "shadowing_std_db"),
            (dict(ts_seconds=0.0), "ts_seconds"),
            (dict(receiver_positions=()), "receiver_positions"),
        ],
    )
    def test_invalid_config_names_field(self, kwargs, field):
        cfg = sm.ScenarioConfig(**kwargs)
        with pytest.raises(ConfigError, match=field):
            sm.generate_scenario(cfg, seed=0)

    def test_colocated_antennas_share_drift_group(self):
        sc = sm.generate_scenario(sm.ScenarioConfig(), seed=3)
        groups = sc.receiver_group.reshape(4, 4)
        for g in range(4):
            assert len(set(groups[g])) == 1
        assert len({groups[g, 0] for g in range(4)}) == 4


class TestTrueRss:
    def test_equal_power_sum(self):
        # received signal -90 dBm onto a -90 dBm noise floor
        sc = make_plain_scenario(tx_dbm=-50.0, noise_dbm=-90.0)
        f = sm.true_rss(sc, 0).values_db[0]
        assert f == pytest.approx(10 * math.log10(2e-9 * 1e9) - 90, abs=1e-12)
        assert f == pytest.approx(-86.98970004336019, abs=1e-10)

    def test_tx_off_gives_noise_floor(self):
        sc = make_plain_scenario(tx_dbm=-math.inf, noise_dbm=-90.0)
        assert sm.true_rss(sc, 0).values_db[0] == -90.0

    def test_matches_straight_line_recomputation(self):
        # independent symbol-by-symbol recomputation of the model
        cfg = sm.ScenarioConfig(n_locations=6, shadowing_std_db=4.0, noise_dbm=-85.0)
        sc = sm.generate_scenario(cfg, seed=11)
        for loc in range(6):
            got = sm.true_rss(sc, loc).values_db
            for rx in range(sc.n_channels):
                d = math.sqrt(sum((sc.locations[loc][i] - sc.receivers[rx][i]) ** 2 for i in range(3)))
                p_rx = (
                    cfg.tx_power_dbm
                    - cfg.reference_loss_db
                    - 10 * cfg.path_loss_exponent * math.log10(d)
                    + sc.shadowing_db[loc, rx]
                )
                want = 10 * math.log10(10 ** (p_rx / 10) + 10 ** (cfg.noise_dbm / 10))
                assert got[rx] == pytest.approx(want, abs=1e-9)

    def test_unknown_location(self):
        sc = make_plain_scenario()
        with pytest.raises(KeyError):
            sm.true_rss(sc, 99)


class TestSampleWindow:
    @pytest.mark.parametrize(
        "noise_dbm, n_samples", [(-90.0, 16), (-math.inf, 16), (-80.0, 1), (-85.0, 37)]
    )
    def test_matches_per_window_formula(self, noise_dbm, n_samples):
        # the single-window synthesis written out step by step, draw for draw
        cfg = sm.ScenarioConfig(n_locations=3, noise_dbm=noise_dbm, tone_cycles_per_sample=0.1)
        sc = sm.generate_scenario(cfg, seed=4)
        for rx in (0, 5, 15):
            seed = np.random.SeedSequence(rx)
            w = sm.draw_sample_window(sc, 2, rx, n_samples, seed=seed, extra_gain_db=0.7)
            rng = np.random.default_rng(seed)
            amplitude = math.sqrt(sm.db_to_linear(sm.received_power_dbm(sc, 2, rx) + 0.7))
            phase = rng.uniform(0.0, 2.0 * math.pi)
            k = np.arange(n_samples)
            want = amplitude * np.exp(1j * (2.0 * math.pi * 0.1 * k + phase))
            noise = 0.0
            if noise_dbm > -math.inf:
                scale = math.sqrt(sm.db_to_linear(noise_dbm) / 2.0)
                noise = scale * (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples))
            assert w.samples.tobytes() == (want + noise).tobytes()

    def test_noiseless_tone_has_constant_modulus(self):
        sc = make_plain_scenario(tx_dbm=-50.0, noise_dbm=-math.inf)
        w = sm.draw_sample_window(sc, 0, 0, 4, seed=5)
        p_lin = 10 ** (-90.0 / 10)  # P_rx = -50 - 40 = -90 dBm
        assert np.abs(w.samples) ** 2 == pytest.approx(np.full(4, p_lin), rel=1e-12)

    def test_mean_power_matches_signal_plus_noise(self):
        # law of large numbers over 1e6 samples
        sc = make_plain_scenario(tx_dbm=-50.0, noise_dbm=-92.0)
        w = sm.draw_sample_window(sc, 0, 0, 1_000_000, seed=17)
        want = 10 ** (-90.0 / 10) + 10 ** (-92.0 / 10)
        assert np.mean(np.abs(w.samples) ** 2) == pytest.approx(want, rel=0.01)

    def test_deterministic(self):
        sc = make_plain_scenario()
        a = sm.draw_sample_window(sc, 0, 0, 64, seed=3)
        b = sm.draw_sample_window(sc, 0, 0, 64, seed=3)
        assert np.array_equal(a.samples, b.samples)

    def test_zero_length_rejected(self):
        sc = make_plain_scenario()
        with pytest.raises(ValueError):
            sm.draw_sample_window(sc, 0, 0, 0, seed=1)

    def test_unknown_receiver(self):
        sc = make_plain_scenario()
        with pytest.raises(KeyError):
            sm.draw_sample_window(sc, 0, 5, 8, seed=1)


class TestEstimateRss:
    def _window(self, samples) -> sm.SampleWindow:
        return sm.SampleWindow(
            location_id=0,
            receiver_id=0,
            samples=np.asarray(samples, dtype=np.complex128),
            ts_seconds=1.0,
        )

    def test_unit_power(self):
        assert sm.estimate_rss(self._window([1, 1, 1, 1])) == 0.0

    def test_hand_arithmetic(self):
        assert sm.estimate_rss(self._window([2, 0])) == pytest.approx(
            10 * math.log10(2), abs=1e-12
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=256) + 1j * rng.normal(size=256)
        got = sm.estimate_rss(self._window(samples))
        acc = math.fsum(s.real**2 + s.imag**2 for s in samples)
        assert got == pytest.approx(10 * math.log10(acc / 256), abs=1e-12)

    def test_all_zero_window_rejected(self):
        with pytest.raises(DegeneratePowerError):
            sm.estimate_rss(self._window([0, 0, 0]))

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=64) + 1j * rng.normal(size=64)
        base = sm.estimate_rss(self._window(samples))
        for phi in (0.3, 1.7, math.pi):
            rotated = sm.estimate_rss(self._window(np.exp(1j * phi) * samples))
            assert abs(rotated - base) < 1e-9

    def test_amplitude_scaling_shifts_db(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=64) + 1j * rng.normal(size=64)
        base = sm.estimate_rss(self._window(samples))
        for alpha in (0.25, 3.0, 10.0):
            scaled = sm.estimate_rss(self._window(alpha * samples))
            assert abs(scaled - (base + 20 * math.log10(alpha))) < 1e-9

    def test_constant_modulus_exact(self):
        w = self._window(2.5 * np.exp(1j * np.linspace(0, 5, 32)))
        assert sm.estimate_rss(w) == pytest.approx(10 * math.log10(2.5**2), abs=1e-12)


class TestEstimateRssVector:
    def test_single_receiver_reduces_to_estimate_rss(self):
        sc = make_plain_scenario()
        ss = np.random.SeedSequence(77)
        vec = sm.estimate_rss_vector(sc, 0, 32, seed=ss)
        # replay the same derived stream through the scalar path
        children = np.random.SeedSequence(77).spawn(2)
        w = sm.draw_sample_window(sc, 0, 0, 32, seed=children[1])
        assert vec[0] == sm.estimate_rss(w)

    def test_ergodic_convergence_to_true_rss(self):
        sc = make_plain_scenario(tx_dbm=-50.0, noise_dbm=-92.0)
        truth = sm.true_rss(sc, 0).values_db
        reps = np.array(
            [sm.estimate_rss_vector(sc, 0, 1_000_000, seed=r) for r in range(20)]
        )
        assert np.abs(reps.mean(axis=0) - truth).max() < 0.1

    def test_deterministic(self):
        sc = make_plain_scenario()
        a = sm.estimate_rss_vector(sc, 1, 16, seed=5)
        b = sm.estimate_rss_vector(sc, 1, 16, seed=5)
        assert np.array_equal(a, b)

    def test_seed_sequence_is_read_not_spawned(self):
        # the caller's SeedSequence used to be spawned from, so a second
        # call with the same object drew from different children
        sc = make_plain_scenario(receivers=((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0)))
        ss = np.random.SeedSequence(77)
        a = sm.estimate_rss_vector(sc, 0, 16, seed=ss)
        b = sm.estimate_rss_vector(sc, 0, 16, seed=ss)
        assert ss.n_children_spawned == 0
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() == sm.estimate_rss_vector(sc, 0, 16, seed=np.random.SeedSequence(77)).tobytes()

    def test_reads_the_children_spawn_would_give_next(self):
        sc = make_plain_scenario(receivers=((1.0, 0.0, 0.0), (0.0, 2.0, 0.0)))
        ss = np.random.SeedSequence(77, spawn_key=(4,))
        ss.spawn(5)
        vec = sm.estimate_rss_vector(sc, 0, 16, seed=ss)
        children = ss.spawn(3)
        want = [sm.estimate_rss(sm.draw_sample_window(sc, 0, rx, 16, seed=children[rx + 1])) for rx in range(2)]
        assert vec.tolist() == want

    def test_child_index_beyond_one_word_raises(self):
        # spawn keys of 2**32 and up take two words; the derivation refuses them
        sc = make_plain_scenario()
        ss = np.random.SeedSequence(1, n_children_spawned=2**32 - 1)
        with pytest.raises(ValueError):
            sm.estimate_rss_vector(sc, 0, 8, seed=ss)

    def test_gain_drift_shared_within_group(self):
        # two colocated antennas drift together; a distant one does not
        cfg = sm.ScenarioConfig(
            n_locations=2,
            receiver_positions=((10.0, 0.0, 0.0), (10.05, 0.0, 0.0), (0.0, 10.0, 0.0)),
            shadowing_std_db=0.0,
            noise_dbm=-math.inf,
            gain_drift_std_db=3.0,
        )
        sc = sm.generate_scenario(cfg, seed=1)
        assert sc.receiver_group[0] == sc.receiver_group[1] != sc.receiver_group[2]
        truth = np.array(
            [sm.received_power_dbm(sc, 0, rx) for rx in range(3)]
        )
        offsets = np.array(
            [sm.estimate_rss_vector(sc, 0, 64, seed=r) - truth for r in range(40)]
        )
        # noiseless tone: the estimate equals P_rx + drift of the group
        shared = np.abs(offsets[:, 0] - offsets[:, 1]).max()
        across = np.std(offsets[:, 0] - offsets[:, 2])
        assert shared < 1e-9
        assert across > 1.0


class TestSimulateMeasurementSet:
    def test_shape_and_determinism(self):
        cfg = sm.ScenarioConfig(n_locations=4)
        sc = sm.generate_scenario(cfg, seed=2)
        a = sm.simulate_measurement_set(sc, n_estimates=3, n_samples=8, seed=6)
        b = sm.simulate_measurement_set(sc, n_estimates=3, n_samples=8, seed=6)
        assert a.values.shape == (4, 3, 16)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.coordinates, sc.locations)


def replay_measurement_values(sc, n_estimates, n_samples, seed) -> np.ndarray:
    """Campaign values rebuilt one window at a time from the public
    single-window functions, following the documented seed tree."""
    m = sc.n_channels
    n_groups = int(sc.receiver_group.max()) + 1
    children = np.random.SeedSequence(seed).spawn(sc.n_locations * n_estimates)
    values = np.empty((sc.n_locations, n_estimates, m))
    for n in range(sc.n_locations):
        for j in range(n_estimates):
            grand = children[n * n_estimates + j].spawn(m + 1)
            drift = np.zeros(n_groups)
            if sc.config.gain_drift_std_db > 0.0:
                drift = np.random.default_rng(grand[0]).normal(
                    0.0, sc.config.gain_drift_std_db, size=n_groups
                )
            for rx in range(m):
                w = sm.draw_sample_window(
                    sc, n, rx, n_samples, seed=grand[rx + 1],
                    extra_gain_db=float(drift[sc.receiver_group[rx]]),
                )
                values[n, j, rx] = sm.estimate_rss(w)
    return values


class TestCampaignBits:
    @pytest.mark.parametrize(
        "overrides, n_samples",
        [
            (dict(), 16),
            (dict(gain_drift_std_db=2.0), 16),
            (dict(noise_dbm=-math.inf), 16),
            (dict(gain_drift_std_db=1.5), 1),
        ],
    )
    def test_matches_window_by_window_replay(self, overrides, n_samples):
        sc = sm.generate_scenario(sm.ScenarioConfig(n_locations=4, **overrides), seed=3)
        got = sm.simulate_measurement_set(sc, n_estimates=3, n_samples=n_samples, seed=8)
        want = replay_measurement_values(sc, 3, n_samples, seed=8)
        assert got.values.tobytes() == want.tobytes()
        children = np.random.SeedSequence(8).spawn(sc.n_locations * 3)
        for n in range(sc.n_locations):
            vec = sm.estimate_rss_vector(sc, n, n_samples, seed=children[3 * n])
            assert vec.tobytes() == want[n, 0].tobytes()

    def test_pinned_campaign_digest(self):
        # SHA-256 of the values before synthesis was batched per location
        # (numpy 2.4, x86-64); any change to the seed tree or the window
        # arithmetic changes it
        sc = sm.generate_scenario(sm.ScenarioConfig(n_locations=5, gain_drift_std_db=2.0), seed=11)
        ms = sm.simulate_measurement_set(sc, n_estimates=3, n_samples=8, seed=12)
        assert hashlib.sha256(ms.values.tobytes()).hexdigest() == (
            "a59c9045900dda791ee41c4d81ab40d231257e9b7a9b358493dd5e6b34d8c1fd"
        )

    def test_all_zero_windows_raise(self):
        sc = make_plain_scenario(tx_dbm=-math.inf, noise_dbm=-math.inf)
        with pytest.raises(DegeneratePowerError, match="all-zero"):
            sm.simulate_measurement_set(sc, n_estimates=2, n_samples=8, seed=1)
        with pytest.raises(DegeneratePowerError, match="all-zero"):
            sm.estimate_rss_vector(sc, 1, 8, seed=1)
