import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rssdetect.errors import ConfigError, DegeneratePowerError
from rssdetect import signal_model as sm


def make_plain_scenario(
    tx_dbm=-50.0, noise_dbm=-90.0, shadowing=0.0, receivers=((1.0, 0.0, 0.0),)
) -> sm.Scenario:
    """Hand-built scenario with zeroed shadowing: loc 0 sits at distance 1 m
    from receiver 0, so P_rx = tx - REFERENCE_LOSS_DB exactly."""
    cfg = sm.ScenarioConfig(
        n_locations=2,
        receiver_positions=receivers,
        tx_power_dbm=tx_dbm,
        noise_dbm=noise_dbm,
        shadowing_std_db=shadowing,
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
            (dict(gain_group_radius_m=-1.0), "gain_group_radius_m"),
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

    def test_default_layout_follows_region_centre(self):
        # a region-only config moves the four 4-antenna groups with the
        # region centre; heights and drift groups stay
        base = sm.generate_scenario(sm.ScenarioConfig(), seed=3)
        moved = sm.generate_scenario(
            sm.ScenarioConfig(region=((2.0, 10.0), (-3.0, 1.0), (0.0, 0.5))), seed=3
        )
        shift = np.array([6.0 - 3.0, -1.0 - 2.5, 0.0])
        assert np.allclose(moved.receivers, base.receivers + shift, rtol=0.0, atol=1e-12)
        assert np.all(moved.receivers[:, 2] == 2.0)
        assert np.array_equal(moved.receiver_group, base.receiver_group)
        assert np.array_equal(moved.receiver_group, np.repeat(np.arange(4), 4))


class TestTrueRss:
    def test_equal_power_sum(self):
        # received signal -90 dBm onto a -90 dBm noise floor
        sc = make_plain_scenario(tx_dbm=-50.0, noise_dbm=-90.0)
        f = sm.true_rss(sc, 0)[0]
        assert f == pytest.approx(10 * math.log10(2e-9 * 1e9) - 90, abs=1e-12)
        assert f == pytest.approx(-86.98970004336019, abs=1e-10)

    def test_tx_off_gives_noise_floor(self):
        sc = make_plain_scenario(tx_dbm=-math.inf, noise_dbm=-90.0)
        assert sm.true_rss(sc, 0)[0] == -90.0

    def test_matches_straight_line_recomputation(self):
        # independent symbol-by-symbol recomputation of the model
        cfg = sm.ScenarioConfig(n_locations=6, shadowing_std_db=4.0, noise_dbm=-85.0)
        sc = sm.generate_scenario(cfg, seed=11)
        for loc in range(6):
            got = sm.true_rss(sc, loc)
            assert got.shape == (sc.n_channels,)
            for rx in range(sc.n_channels):
                d = math.sqrt(sum((sc.locations[loc][i] - sc.receivers[rx][i]) ** 2 for i in range(3)))
                p_rx = (
                    cfg.tx_power_dbm
                    - sm.REFERENCE_LOSS_DB
                    - 10 * cfg.path_loss_exponent * math.log10(d)
                    + sc.shadowing_db[loc, rx]
                )
                want = 10 * math.log10(10 ** (p_rx / 10) + 10 ** (cfg.noise_dbm / 10))
                assert got[rx] == pytest.approx(want, abs=1e-9)

    @staticmethod
    def _norm(d) -> float:
        dx, dy, dz = d.tolist()
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    def test_signal_power_bit_equals_per_pair_norm(self):
        # the batched distances must be each difference's norm, summed left
        # to right in float64, bit for bit; a BLAS dot would follow the CPU
        cfg = sm.ScenarioConfig(path_loss_exponent=3.1)
        sc = sm.generate_scenario(cfg, seed=3)
        want = np.array([
            [
                cfg.tx_power_dbm
                - sm.REFERENCE_LOSS_DB
                - 10.0 * cfg.path_loss_exponent * math.log10(self._norm(loc - rx))
                + float(shadow)
                for rx, shadow in zip(sc.receivers, shadowing)
            ]
            for loc, shadowing in zip(sc.locations, sc.shadowing_db)
        ])
        assert sm._signal_power_dbm(sc, np.arange(sc.n_locations)).tobytes() == want.tobytes()
        assert sm.received_power_dbm(sc, 7, 5) == want[7, 5]

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
        cfg = sm.ScenarioConfig(n_locations=3, noise_dbm=noise_dbm)
        sc = sm.generate_scenario(cfg, seed=4)
        for rx in (0, 5, 15):
            seed = np.random.SeedSequence(rx)
            w = sm.draw_sample_window(sc, 2, rx, n_samples, seed=seed, extra_gain_db=0.7)
            rng = np.random.default_rng(seed)
            amplitude = math.sqrt(sm.db_to_linear(sm.received_power_dbm(sc, 2, rx) + 0.7))
            want = np.full(n_samples, amplitude, dtype=np.complex128)
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
        # replay the same stream through the scalar path: the one drift
        # group's normal comes first, then the window's normals
        rng = np.random.default_rng(np.random.SeedSequence(77))
        rng.standard_normal()
        w = sm.draw_sample_window(sc, 0, 0, 32, seed=rng)
        assert vec[0] == sm.estimate_rss(w)

    def test_ergodic_convergence_to_true_rss(self):
        sc = make_plain_scenario(tx_dbm=-50.0, noise_dbm=-92.0)
        truth = sm.true_rss(sc, 0)
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
        # noiseless carrier: the estimate equals P_rx + drift of the group
        shared = np.abs(offsets[:, 0] - offsets[:, 1]).max()
        across = np.std(offsets[:, 0] - offsets[:, 2])
        assert shared < 1e-9
        assert across > 1.0

    @pytest.mark.parametrize("n_samples", [1, 16])
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 30.0])
    def test_tone_free_windows_keep_the_estimate_distribution(self, snr_db, n_samples):
        # P_rx = -90 dBm at location 0; independent draws from both models
        sc = make_plain_scenario(tx_dbm=-50.0, noise_dbm=-90.0 - snr_db)
        n = 3000
        rng = np.random.default_rng(int(snr_db) + 1000 * n_samples)
        old = np.array([reference_tone_rss(-90.0, -90.0 - snr_db, n_samples, rng) for _ in range(n)])
        new = np.array([sm.estimate_rss_vector(sc, 0, n_samples, seed=s)[0] for s in range(n)])

        def mean_std_and_errors(x):
            # the std's standard error by the delta method on the sample
            # variance, which holds for the skewed dB estimate at low N_s
            centred = x - x.mean()
            var = centred.var()
            var_se = math.sqrt(np.var(centred**2) / x.size)
            return x.mean(), math.sqrt(var), math.sqrt(var / x.size), var_se / (2.0 * math.sqrt(var))

        m_old, s_old, m_old_se, s_old_se = mean_std_and_errors(old)
        m_new, s_new, m_new_se, s_new_se = mean_std_and_errors(new)
        assert abs(m_old - m_new) < 4.0 * math.hypot(m_old_se, m_new_se)
        assert abs(s_old - s_new) < 4.0 * math.hypot(s_old_se, s_new_se)


class TestSimulateMeasurementSet:
    def test_shape_and_determinism(self):
        cfg = sm.ScenarioConfig(n_locations=4)
        sc = sm.generate_scenario(cfg, seed=2)
        a = sm.simulate_measurement_set(sc, n_estimates=3, n_samples=8, seed=6)
        b = sm.simulate_measurement_set(sc, n_estimates=3, n_samples=8, seed=6)
        assert a.values.shape == (4, 3, 16)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.coordinates, sc.locations)


def reference_tone_rss(p_rx_dbm, noise_dbm, n_samples, rng) -> float:
    """One window's RSS estimate as synthesized before tone-free windows:
    a unit-power complex tone at 0.25 cycles per sample with a uniform
    initial phase, scaled to P_rx, plus circular noise.  Draws the phase,
    then N_s real and N_s imaginary noise normals."""
    phase = rng.uniform(0.0, 2.0 * math.pi)
    k = np.arange(n_samples)
    tone = math.sqrt(sm.db_to_linear(p_rx_dbm)) * np.exp(1j * (2.0 * math.pi * 0.25 * k + phase))
    scale = math.sqrt(sm.db_to_linear(noise_dbm) / 2.0)
    noise = scale * (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples))
    return sm.estimate_rss(sm.SampleWindow(0, 0, tone + noise))


def replay_location(sc, n, n_estimates, n_samples, rng) -> np.ndarray:
    """Location n's (E, M) estimates rebuilt one window at a time from its
    generator, in the documented draw order: the (E, G) drift normals,
    then each window's 2*N_s noise normals."""
    cfg = sc.config
    drift = rng.standard_normal((n_estimates, int(sc.receiver_group.max()) + 1))
    values = np.empty((n_estimates, sc.n_channels))
    for j in range(n_estimates):
        for rx in range(sc.n_channels):
            normals = rng.standard_normal(2 * n_samples)
            p_rx = sm.received_power_dbm(sc, n, rx) + cfg.gain_drift_std_db * drift[j, sc.receiver_group[rx]]
            carrier = np.full(n_samples, math.sqrt(sm.db_to_linear(p_rx)), dtype=np.complex128)
            scale = math.sqrt(sm.db_to_linear(cfg.noise_dbm) / 2.0)
            noise = scale * (normals[:n_samples] + 1j * normals[n_samples:])
            values[j, rx] = sm.estimate_rss(sm.SampleWindow(n, rx, carrier + noise))
    return values


def replay_measurement_values(sc, n_estimates, n_samples, seed) -> np.ndarray:
    """Campaign values rebuilt one window at a time, location n on
    ``default_rng`` of child n of ``SeedSequence(seed)``."""
    children = np.random.SeedSequence(seed).spawn(sc.n_locations)
    return np.array([
        replay_location(sc, n, n_estimates, n_samples, np.random.default_rng(children[n]))
        for n in range(sc.n_locations)
    ])


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
        for n in range(sc.n_locations):
            vec = sm.estimate_rss_vector(sc, n, n_samples, seed=100 + n)
            one = replay_location(sc, n, 1, n_samples, np.random.default_rng(100 + n))
            assert vec.tobytes() == one[0].tobytes()

    def test_pinned_campaign_digest(self):
        # SHA-256 of the values at one random stream per location with
        # tone-free windows (numpy 2.4, x86-64); any change to the streams,
        # their draw order or the window arithmetic changes it
        sc = sm.generate_scenario(sm.ScenarioConfig(n_locations=5, gain_drift_std_db=2.0), seed=11)
        ms = sm.simulate_measurement_set(sc, n_estimates=3, n_samples=8, seed=12)
        assert hashlib.sha256(ms.values.tobytes()).hexdigest() == (
            "ba9aa292ae0a9028bde3d93eb8ad68da4da4e6a5ea190e826d9fc984ae827d2c"
        )

    def test_default_layout_as_receiver_positions_keeps_campaign_bytes(self):
        # the documented default layout, written out as receiver_positions:
        # 4 x 4 antennas, 2 m high, 0.05 m squares centred 12 m from the
        # default region's centre (3, 2.5) in both x and y
        default = sm.generate_scenario(sm.ScenarioConfig(gain_drift_std_db=2.0), seed=6)
        layout = tuple(
            (gx + ox, gy + oy, 2.0)
            for gx, gy in ((-9.0, -9.5), (15.0, -9.5), (-9.0, 14.5), (15.0, 14.5))
            for ox, oy in ((-0.025, -0.025), (0.025, -0.025), (-0.025, 0.025), (0.025, 0.025))
        )
        written = sm.generate_scenario(
            sm.ScenarioConfig(gain_drift_std_db=2.0, receiver_positions=layout), seed=6
        )
        want = sm.simulate_measurement_set(default, n_estimates=3, n_samples=8, seed=7)
        got = sm.simulate_measurement_set(written, n_estimates=3, n_samples=8, seed=7)
        assert written.receivers.tobytes() == default.receivers.tobytes()
        assert np.array_equal(written.receiver_group, default.receiver_group)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.coordinates.tobytes() == want.coordinates.tobytes()

    def test_pinned_benchmark_shape_digest(self):
        # SHA-256 of the default 52 x 8 x 16 campaign at one random stream
        # per location with tone-free windows (numpy 2.4, x86-64)
        sc = sm.generate_scenario(sm.ScenarioConfig(), seed=0)
        ms = sm.simulate_measurement_set(sc, n_estimates=8, n_samples=16, seed=1)
        assert ms.values.shape == (52, 8, 16)
        assert hashlib.sha256(ms.values.tobytes()).hexdigest() == (
            "438d6be2b31e847b6319039a7a6d29721bce74f1a07ab5f0e510c68ac566e7d3"
        )

    @pytest.mark.parametrize(
        "n_locations, n_estimates",
        [(23, 3), (2, sm.BLOCK_WINDOWS // 16 + 1)],
        ids=["partial-last-block", "location-above-block"],
    )
    def test_blocks_match_window_by_window_replay(self, n_locations, n_estimates):
        # 16 channels: 21 locations per block and a last block of 2, or
        # more than BLOCK_WINDOWS windows in each one-location block
        sc = sm.generate_scenario(
            sm.ScenarioConfig(n_locations=n_locations, gain_drift_std_db=1.0), seed=4
        )
        assert sc.n_channels == 16
        got = sm.simulate_measurement_set(sc, n_estimates, n_samples=4, seed=9)
        want = replay_measurement_values(sc, n_estimates, 4, seed=9)
        assert got.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_windows", [1, 17, 48, 10**6])
    def test_block_size_does_not_change_values(self, monkeypatch, block_windows):
        sc = sm.generate_scenario(sm.ScenarioConfig(n_locations=7, gain_drift_std_db=2.0), seed=5)
        want = sm.simulate_measurement_set(sc, n_estimates=3, n_samples=8, seed=2).values
        monkeypatch.setattr(sm, "BLOCK_WINDOWS", block_windows)
        got = sm.simulate_measurement_set(sc, n_estimates=3, n_samples=8, seed=2).values
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_estimates", [3, 21, 22, 100])
    def test_blocks_hold_whole_locations_up_to_the_bound(self, monkeypatch, n_estimates):
        sc = sm.generate_scenario(sm.ScenarioConfig(n_locations=9), seed=5)
        blocks = []
        block = sm._estimate_vectors

        def spy(scenario, location_ids, *args):
            blocks.append(list(location_ids))
            return block(scenario, location_ids, *args)

        monkeypatch.setattr(sm, "_estimate_vectors", spy)
        sm.simulate_measurement_set(sc, n_estimates=n_estimates, n_samples=2, seed=2)
        per_block = max(1, sm.BLOCK_WINDOWS // (n_estimates * 16))
        assert sum(blocks, []) == list(range(9))
        assert [len(b) for b in blocks[:-1]] == [per_block] * (len(blocks) - 1)
        assert len(blocks[-1]) * n_estimates * 16 <= max(sm.BLOCK_WINDOWS, n_estimates * 16)

    def test_zero_window_named_inside_a_block(self):
        # six locations of 2 x 3 windows share one block; the first
        # all-zero window, in (location, estimate, receiver) order, is named
        sc = make_plain_scenario(noise_dbm=-math.inf, receivers=((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0)))
        shadowing = np.zeros((6, 3))
        shadowing[4, 2] = shadowing[5, 0] = -math.inf
        rng = np.random.default_rng(0)
        sc = sm.Scenario(
            config=sc.config,
            locations=rng.uniform(5.0, 6.0, size=(6, 3)),
            receivers=sc.receivers,
            shadowing_db=shadowing,
            receiver_group=sc.receiver_group,
        )
        assert 6 * 2 * 3 <= sm.BLOCK_WINDOWS
        with pytest.raises(DegeneratePowerError, match=r"location 4, receiver 2\)"):
            sm.simulate_measurement_set(sc, n_estimates=2, n_samples=8, seed=1)

    def test_all_zero_windows_raise(self):
        sc = make_plain_scenario(tx_dbm=-math.inf, noise_dbm=-math.inf)
        with pytest.raises(DegeneratePowerError, match="all-zero"):
            sm.simulate_measurement_set(sc, n_estimates=2, n_samples=8, seed=1)
        with pytest.raises(DegeneratePowerError, match="all-zero"):
            sm.estimate_rss_vector(sc, 1, 8, seed=1)


def reference_group_receivers(receivers: np.ndarray, radius: float) -> np.ndarray:
    """The explicit-stack depth-first search that numbered receiver groups
    before min-label propagation: components of distance <= radius, in
    order of their lowest receiver index."""
    m = receivers.shape[0]
    labels = np.full(m, -1, dtype=np.int64)
    dist = np.linalg.norm(receivers[:, None, :] - receivers[None, :, :], axis=2)
    next_label = 0
    for i in range(m):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = next_label
        while stack:
            j = stack.pop()
            for k in np.nonzero((dist[j] <= radius) & (labels < 0))[0]:
                labels[k] = next_label
                stack.append(int(k))
        next_label += 1
    return labels


# coordinates on a coarse grid, so that repeated positions and distances of
# exactly the radius both occur
_COORD = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])
_RECEIVERS = st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=12)


class TestGroupReceivers:
    @given(receivers=_RECEIVERS, radius=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, math.inf]))
    # chains, in order and shuffled, whose two end receivers only
    # transitivity joins; at radius 0 only repeated positions share a group
    @example(receivers=[(0.5 * i, 0.0, 0.0) for i in range(6)], radius=0.5)
    @example(receivers=[(0.5 * i, 0.0, 0.0) for i in (5, 0, 4, 1, 3, 2)], radius=0.5)
    @example(receivers=[(0.0, 0.0, 0.0), (3.0, 0.0, 0.0), (0.0, 0.0, 0.0)], radius=0.0)
    def test_matches_depth_first_search(self, receivers, radius):
        rx = np.array(receivers, dtype=float)
        got = sm._group_receivers(rx, radius)
        assert got.tolist() == reference_group_receivers(rx, radius).tolist()
