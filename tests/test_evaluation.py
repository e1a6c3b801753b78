from dataclasses import replace

import numpy as np
import pytest

from rssdetect import evaluation as ev
from rssdetect import signal_model as sm
from rssdetect.dataset import MeasurementSet, select_features
from rssdetect.errors import ConfigError
from rssdetect.neural import TrainConfig
from rssdetect.seeding import derive_seed


def small_cfg(**kwargs) -> ev.ExperimentConfig:
    """Benchmark-only config sized for fast tests."""
    base = dict(
        scenario=sm.ScenarioConfig(
            n_locations=14,
            shadowing_std_db=3.0,
            noise_dbm=-82.0,
            gain_drift_std_db=1.0,
        ),
        algorithms=("dbc1", "dbc2"),
        location_grid=(8, 10),
        feature_subsets=((0, 1), (0, 4)),
        locations_used_features=8,
        n_estimates=6,
        k_train=80,
        k_val=20,
        k_test=60,
        iterations=3,
        kappa=3,
        master_seed=7,
        train=TrainConfig(hidden_sizes=(8, 8, 8), max_epochs=3, patience=3),
    )
    base.update(kwargs)
    return ev.ExperimentConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    return ev.load_corpus(small_cfg())


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            small_cfg(algorithms=("dnnc", "svm"))

    def test_dnnc_needs_two_validation_locations(self, monkeypatch):
        # the config takes any grid; the sweep refuses the point that splits
        # 4 train / 1 validation location, as the detector draws DIFF
        # validation pairs, and names its key before any fit
        cfg = small_cfg(algorithms=("dnnc",), location_grid=(10, 5))
        monkeypatch.setattr(ev, "fit_rule", lambda *a: pytest.fail("fitted before the check"))
        message = (
            r"^location_grid: 5 locations used with train_fraction = 0.8 "
            r"give 4 train / 1 validation locations; dnnc need at least 2 / 2$"
        )
        with pytest.raises(ConfigError, match=message):
            ev.sweep_locations(cfg)

    def test_benchmarks_allow_small_grids(self):
        small_cfg(algorithms=("dbc2",), location_grid=(4,))

    def test_iterations_positive(self):
        with pytest.raises(ConfigError, match="iterations"):
            small_cfg(iterations=0)

    @pytest.mark.parametrize(
        "field, values",
        [
            ("location_grid", (10, 20, 10)),
            ("feature_subsets", ((0, 1), (0, 4), (0, 1))),
        ],
    )
    def test_repeated_grid_point_refused(self, field, values):
        # two cells under one label would write a raw report read_report_raw refuses
        with pytest.raises(ConfigError, match=f"^{field}: repeats"):
            small_cfg(**{field: values})


class TestRunIteration:
    def test_deterministic(self, corpus):
        cfg = small_cfg()
        a = ev.run_iteration(corpus, cfg, 10, iter_seed=123)
        b = ev.run_iteration(corpus, cfg, 10, iter_seed=123)
        assert a == b

    def test_always_h1_scores_exactly_half(self, corpus):
        cfg = small_cfg(algorithms=("always_h1",))
        accs = ev.run_iteration(corpus, cfg, 10, iter_seed=5)
        assert accs["always_h1"] == 0.5  # test pairs are balanced by construction

    def test_provenance_oracle_scores_one(self, corpus):
        cfg = small_cfg(algorithms=("cheat",))
        accs = ev.run_iteration(corpus, cfg, 10, iter_seed=6)
        assert accs["cheat"] == 1.0

    def test_feature_point_projects_corpus(self, corpus):
        cfg = small_cfg()
        l_used = cfg.locations_used_features
        accs = ev.run_iteration(select_features(corpus, (0, 4)), cfg, l_used, iter_seed=7)
        assert set(accs) == {"dbc1", "dbc2"}
        # cell (1, r) of the feature sweep: the same call on its projection, at its seed path
        report = ev.sweep_features(cfg)
        projected = select_features(corpus, cfg.feature_subsets[1])
        rows = [row for row in report.rows if row.sweep_value == "0+4"]
        for r in range(cfg.iterations):
            cell = ev.run_iteration(projected, cfg, l_used, derive_seed(cfg.master_seed, 1, r))
            assert cell == {row.algorithm: row.raw_accuracies[r] for row in rows}

    def test_infeasible_split_raises(self, corpus):
        cfg = small_cfg(algorithms=("dbc2",), location_grid=(13,))
        with pytest.raises(ValueError, match="at least 2 locations"):
            ev.run_iteration(corpus, cfg, 13, iter_seed=8)  # leaves 1 test location
        # a sweep refuses the point before any iteration, naming its key
        with pytest.raises(ConfigError, match=r"^location_grid: 13 locations used must be in \[2, 12\]"):
            ev.sweep_locations(cfg)
        with pytest.raises(ConfigError, match=r"^locations_used_features: 13 locations used"):
            ev.sweep_features(replace(cfg, locations_used_features=13))


class TestSweeps:
    def test_locations_sweep_report_shape(self):
        cfg = small_cfg()
        report = ev.sweep_locations(cfg)
        assert len(report.rows) == len(cfg.location_grid) * len(cfg.algorithms)
        for row in report.rows:
            assert row.iterations == cfg.iterations
            assert len(row.raw_accuracies) == cfg.iterations
            assert row.mean_accuracy == pytest.approx(np.mean(row.raw_accuracies), abs=0.0)
            assert 0.0 <= row.mean_accuracy <= 1.0

    def test_features_sweep_report_shape(self):
        cfg = small_cfg()
        report = ev.sweep_features(cfg)
        values = {row.sweep_value for row in report.rows}
        assert values == {"0+1", "0+4"}

    def test_single_iteration_has_nan_stderr(self):
        cfg = small_cfg(iterations=1, location_grid=(10,))
        report = ev.sweep_locations(cfg)
        assert all(np.isnan(row.std_error) for row in report.rows)

    def test_deterministic_reports(self):
        cfg = small_cfg(iterations=2, location_grid=(10,))
        a = ev.sweep_locations(cfg)
        b = ev.sweep_locations(cfg)
        assert [r.raw_accuracies for r in a.rows] == [r.raw_accuracies for r in b.rows]


class TestSeedDerivation:
    def test_no_collisions_over_default_grid(self):
        cfg = ev.ExperimentConfig()
        seeds = set()
        n = 0
        for s in range(len(cfg.location_grid) + len(cfg.feature_subsets)):
            for r in range(cfg.iterations):
                seeds.add(derive_seed(cfg.master_seed, s, r))
                n += 1
        for tag in (0, 1):
            seeds.add(derive_seed(cfg.master_seed, tag))
            n += 1
        assert len(seeds) == n

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)


class TestReportFiles:
    def test_emit_and_reparse(self, tmp_path):
        cfg = small_cfg(iterations=2, location_grid=(10,))
        report = ev.sweep_locations(cfg)
        path = tmp_path / "report.csv"
        raw = tmp_path / "report.raw.csv"
        ev.emit_report(report, path, raw_path=raw)

        text = path.read_text().splitlines()
        assert text[0] == "algorithm,sweep_var,sweep_value,mean_accuracy,std_error,iterations"
        back = ev.read_report(path)
        for got, want in zip(back, report.rows):
            assert got.algorithm == want.algorithm
            assert got.sweep_value == want.sweep_value
            assert got.mean_accuracy == want.mean_accuracy
            assert got.std_error == want.std_error or (
                np.isnan(got.std_error) and np.isnan(want.std_error)
            )
            assert got.iterations == want.iterations

    def test_raw_rows_reproduce_summary_exactly(self, tmp_path):
        cfg = small_cfg(iterations=3, location_grid=(8, 10))
        report = ev.sweep_locations(cfg)
        path = tmp_path / "report.csv"
        raw_path = tmp_path / "report.raw.csv"
        ev.emit_report(report, path, raw_path=raw_path)
        raw = ev.read_report_raw(raw_path)
        summary = ev.read_report(path)
        for row in summary:
            accs = np.array(raw[(row.algorithm, row.sweep_value)])
            assert accs.size == row.iterations
            assert float(accs.mean()) == row.mean_accuracy
            assert float(accs.std(ddof=1) / np.sqrt(accs.size)) == row.std_error

    def test_history_file(self, tmp_path):
        from rssdetect.neural import TrainHistory

        hist = TrainHistory(train_loss=[0.7, 0.5], val_accuracy=[0.5, 0.75])
        path = tmp_path / "history.csv"
        ev.emit_history(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_accuracy"
        assert lines[1] == "0,0.7,0.5"
        assert len(lines) == 3


class TestHarnessSanity:
    def test_dbc2_accuracy_approaches_one_with_long_windows(self):
        # far-apart true RSS vectors + long windows -> near-perfect distance rule
        def acc_at(n_samples):
            cfg = small_cfg(
                scenario=sm.ScenarioConfig(
                    n_locations=10,
                    shadowing_std_db=6.0,
                    noise_dbm=-90.0,
                    gain_drift_std_db=0.0,
                ),
                algorithms=("dbc2",),
                location_grid=(6,),
                n_samples=n_samples,
                iterations=2,
                master_seed=3,
            )
            report = ev.sweep_locations(cfg)
            return report.rows[0].mean_accuracy

        low, high = acc_at(4), acc_at(1024)
        assert high >= low
        assert high >= 0.99


# 12 locations x 3 estimates x 2 channels; locations 0-5 repeat one
# vector, so how many distinct vectors a train part holds depends on the split
_values = np.random.default_rng(3).normal(-70.0, 5.0, size=(12, 3, 2))
_values[:6] = _values[:6, :1]
REPEATING = MeasurementSet(values=_values, location_ids=np.arange(12))
# kappa = 7: 2 train locations hold at most 6 vectors, 3 hold 3 to 9 distinct ones
TINY = dict(
    k_train=6, k_val=4, k_test=4, kappa=7,
    train=TrainConfig(hidden_sizes=(3,), max_epochs=1, patience=1),
)


def _check_passes_iff_the_iteration_completes(ms, cfg, l_used, iter_seed) -> bool:
    try:
        ev.check_locations_used(ms, cfg, l_used, "location_grid", 2, (iter_seed,))
        passed = True
    except ConfigError:
        passed = False
    try:
        ev.run_iteration(ms, cfg, l_used, iter_seed)
        completed = True
    except ValueError:
        completed = False
    assert passed == completed, (l_used, iter_seed, passed)
    return passed


@pytest.mark.parametrize("algorithm", ["dbc2", "kmc", "dnnc"])
@pytest.mark.parametrize("train_fraction", [0.1, 0.25, 0.5, 0.8, 0.9])
@pytest.mark.parametrize("l_used", range(2, 13))
def test_split_check_passes_iff_the_iteration_completes(l_used, train_fraction, algorithm):
    cfg = small_cfg(algorithms=(algorithm,), train_fraction=train_fraction, **TINY)
    for iter_seed in range(4):
        _check_passes_iff_the_iteration_completes(REPEATING, cfg, l_used, iter_seed)


def test_kmc_split_check_follows_the_iteration_seed():
    # 3 train locations: whether they hold kappa = 7 distinct vectors is the split's
    cfg = small_cfg(algorithms=("kmc",), **TINY)
    outcomes = set()
    for iter_seed in range(20):
        try:
            ev.check_locations_used(REPEATING, cfg, 4, "location_grid", 2, (iter_seed,))
            outcomes.add("passed")
        except ConfigError as exc:
            assert str(exc).startswith("kappa: 7 centroids need as many training vectors")
            assert str(exc).endswith(" of them distinct")
            outcomes.add("refused")
    assert outcomes == {"passed", "refused"}


def test_kmc_split_check_counts_signed_zeros_as_one_vector():
    # location 0 holds 0.0 and -0.0, one vector to k-means; 3 train locations
    # then hold 5 distinct vectors, where kappa = 6 needs 6
    values = np.arange(12, dtype=np.float64).reshape(6, 2, 1) + 1.0
    values[0] = [[0.0], [-0.0]]
    ms = MeasurementSet(values=values, location_ids=np.arange(6))
    cfg = small_cfg(algorithms=("kmc",), **{**TINY, "kappa": 6})
    passed = [_check_passes_iff_the_iteration_completes(ms, cfg, 4, s) for s in range(12)]
    assert any(passed) and not all(passed)
