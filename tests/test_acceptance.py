"""Acceptance suite: one test per release criterion, in order.

The end-to-end criteria (7 and 8) run the full default Monte Carlo
configuration (52-location synthetic campaign, 16 channels, N_s = 16,
K_tr = 1250, K_val = 150, train fraction 0.8, kappa = 15, R = 20) and
take several minutes each; everything else is fast.  Each test prints a
one-line PASS summary with the measured values.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from rssdetect import benchmarks as bm
from rssdetect import evaluation as ev
from rssdetect import invariants as inv
from rssdetect import signal_model as sm
from rssdetect.cli import main as cli_main
from rssdetect.dataset import PairSet
from rssdetect.seeding import derive_seed

ACCEPT_SEED = 0  # master seed of the acceptance runs


def balanced_pairs(k, m, seed, gap=0.0) -> PairSet:
    rng = np.random.default_rng(seed)
    first = rng.normal(size=(2 * k, m))
    second = first + rng.normal(0, 0.1, size=(2 * k, m))
    second[k:] += gap
    return PairSet(
        first=first,
        second=second,
        location_a=np.r_[np.arange(k), np.arange(k)],
        location_b=np.r_[np.arange(k), np.arange(k) + 10_000],
        estimate_a=np.zeros(2 * k, dtype=np.int64),
        estimate_b=np.ones(2 * k, dtype=np.int64),
        k_per_class=k,
    )


def test_criterion_1_commutativity():
    """1000 random models and pairs: the statistics of DNNC, DBC(l1),
    DBC(l2) and KMC are bit-equal under swap, so their decisions are
    swap-invariant."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(derive_seed(ACCEPT_SEED, 101))
    ok, detail = inv.commutativity(
        rng, rng, 1000, features=(1, 8), widths=(4, 8, 16, 32), std_floor=0.3,
        threshold_mean=1.0, max_centroids=5, weight_scale=(0.5, 3.0),
    )
    assert ok, detail
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"\nPASS criterion 1: commutativity over 1000 models, {detail}, {dt:.1f}s")


def test_criterion_2_gradient_correctness():
    """Analytic gradient of the symmetrized pair loss vs central finite
    differences: relative error < 1e-4 on >= 100 coordinates spread over
    all four layers (weights and biases)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(derive_seed(ACCEPT_SEED, 102))
    pairs = balanced_pairs(k=10, m=3, seed=derive_seed(ACCEPT_SEED, 103), gap=1.0)
    coords = 104
    ok, detail = inv.gradient_check(
        pairs, (10, 9, 8), 7, rng, coords, tol=1e-4, bias_fraction=0.15
    )
    assert ok, detail
    dt = time.perf_counter() - t0
    assert coords >= 100
    assert dt < 30.0
    print(f"PASS criterion 2: {detail} across 4 layers within 1e-4, {dt:.1f}s")


def test_criterion_3_loss_anchor():
    """Zero parameters give pair loss log 2 within 1e-12 on any balanced set."""
    details = []
    for k, m, seed in [(1, 2, 1), (13, 5, 2), (200, 16, 3)]:
        ok, detail = inv.loss_anchor(balanced_pairs(k=k, m=m, seed=seed), (8, 8, 8), tol=1e-12)
        assert ok, detail
        details.append(detail)
    print(f"PASS criterion 3: pair loss at theta=0 equals log 2 ({'; '.join(details)})")


def test_criterion_4_threshold_tuning_optimality():
    """tune_threshold matches a 10^4-point grid-search oracle on 50 sets."""
    rng = np.random.default_rng(2024)
    sets = []
    for _ in range(50):
        n = int(rng.integers(30, 300))
        d = np.abs(rng.normal(3.0, 1.5, size=n)) + rng.exponential(1.0, size=n)
        y = rng.random(n) < rng.uniform(0.2, 0.8)
        sets.append((d, y))
    ok, _ = inv.threshold_tuning(sets)
    assert ok  # the tuned accuracy is achieved and midpoints cannot lose to a grid
    # at these sizes the grid also finds the optimum, which it misses for
    # a few sets at the sizes of `rssdetect check`
    for trial, (d, y) in enumerate(sets):
        assert bm.tune_threshold(d, y).accuracy == inv.grid_accuracy(d, y), trial
    print("PASS criterion 4: threshold tuning equals the 10^4-point grid oracle on 50 sets")


def test_criterion_5_kmeans_monotone_fixpoint():
    """WCSS never increases across Lloyd iterations; terminal assignment is
    a fixpoint, over 50 random corpora."""
    rng = np.random.default_rng(777)

    def corpora():
        for _ in range(50):
            n = int(rng.integers(40, 200))
            dim = int(rng.integers(2, 8))
            k = int(rng.integers(2, 7))
            x = rng.normal(size=(n, dim)) + rng.integers(0, k, size=(n, 1)) * rng.uniform(2, 6)
            yield x, k, int(rng.integers(2**31))

    ok, _ = inv.kmeans_monotone(corpora(), wcss_tol=0.0)
    assert ok
    print("PASS criterion 5: WCSS non-increasing and terminal fixpoint on 50 corpora")


def test_criterion_6_estimator_consistency():
    """Longer windows estimate the true RSS strictly better: mean |err| over
    100 seeds at N_s=1024 below N_s=16."""
    sc = sm.generate_scenario(sm.ScenarioConfig(), seed=derive_seed(ACCEPT_SEED, 106))
    ok, detail = inv.estimator_consistency(
        sc, (ACCEPT_SEED, 106), short=16, long=1024, repeats=100
    )
    assert ok, detail
    print(f"PASS criterion 6: {detail}")


@pytest.fixture(scope="module")
def location_report():
    cfg = ev.ExperimentConfig(location_grid=(10, 45), master_seed=ACCEPT_SEED)
    t0 = time.perf_counter()
    report = ev.sweep_locations(cfg)
    return report, time.perf_counter() - t0


def test_criterion_7_end_to_end_trend(location_report):
    """Default synthetic campaign, R=20: the neural detector is accurate at
    45 locations, beats every benchmark there, and does not lose accuracy
    relative to 10 locations."""
    report, dt = location_report
    rows = {(r.algorithm, r.sweep_value): r for r in report.rows}
    dnnc45 = rows[("dnnc", "45")]
    dnnc10 = rows[("dnnc", "10")]

    assert dnnc45.mean_accuracy >= 0.90, dnnc45.mean_accuracy
    for alg in ("dbc1", "dbc2", "kmc"):
        assert dnnc45.mean_accuracy >= rows[(alg, "45")].mean_accuracy, alg
    assert dnnc45.mean_accuracy >= dnnc10.mean_accuracy - dnnc10.std_error
    assert dt < 900.0, f"runtime {dt:.0f}s exceeds 15 minutes"
    bench = ", ".join(
        f"{alg}={rows[(alg, '45')].mean_accuracy:.3f}" for alg in ("dbc1", "dbc2", "kmc")
    )
    print(f"\nPASS criterion 7: dnnc@45={dnnc45.mean_accuracy:.3f} >= 0.90, "
          f"benchmarks ({bench}), dnnc@10={dnnc10.mean_accuracy:.3f} "
          f"(se {dnnc10.std_error:.3f}), runtime {dt:.0f}s < 900s")


def test_criterion_8_feature_locality():
    """Two features from one receiver carry at least as much usable joint
    information as two features from different receivers (soft gate:
    within one standard error)."""
    cfg = ev.ExperimentConfig(
        feature_subsets=((0, 1), (0, 4)),
        algorithms=("dnnc",),
        master_seed=ACCEPT_SEED,
    )
    report = ev.sweep_features(cfg)
    rows = {r.sweep_value: r for r in report.rows}
    same_rx = rows["0+1"]
    cross_rx = rows["0+4"]
    assert same_rx.mean_accuracy >= cross_rx.mean_accuracy - cross_rx.std_error
    print(f"\nPASS criterion 8: same-receiver {same_rx.mean_accuracy:.3f} "
          f"(se {same_rx.std_error:.3f}) vs cross-receiver {cross_rx.mean_accuracy:.3f} "
          f"(se {cross_rx.std_error:.3f})")


def test_criterion_9_cli_determinism(tmp_path):
    """Identical CLI invocations produce byte-identical outputs."""
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "locations = 14\nestimates = 6\nk_train = 80\nk_val = 20\nk_test = 60\n"
        "kappa = 3\niterations = 2\nhidden_sizes = 8,8\nmax_epochs = 3\npatience = 3\n"
        "shadowing_std_db = 3.0\nnoise_dbm = -82\ngain_drift_std_db = 1.0\n"
    )

    def run_all(tag):
        meas = tmp_path / f"meas_{tag}.csv"
        rep = tmp_path / f"rep_{tag}.csv"
        model = tmp_path / f"dnnc_{tag}.model"
        hist = tmp_path / f"hist_{tag}.csv"
        assert cli_main(["generate", "--out", str(meas), "--seed", "31",
                         "--config", str(cfgfile)]) == 0
        assert cli_main(["train", "--data", str(meas), "--algorithm", "dnnc",
                         "--model-out", str(model), "--history-out", str(hist),
                         "--seed", "32", "--config", str(cfgfile)]) == 0
        assert cli_main(["sweep-locations", "--out", str(rep), "--seed", "33",
                         "--config", str(cfgfile), "--grid", "8,10",
                         "--algorithms", "dbc1,dbc2,kmc"]) == 0
        return [p.read_bytes() for p in (meas, model, hist, rep,
                                         tmp_path / f"rep_{tag}.csv.raw.csv")]

    assert run_all("a") == run_all("b")
    print("\nPASS criterion 9: generate/train/sweep outputs byte-identical on rerun")


def test_criterion_10_harness_calibration():
    """The always-H1 dummy sits at 0.500 +/- 0.02 on 2000 balanced test
    pairs; the provenance-cheating oracle scores exactly 1.0."""
    cfg = ev.ExperimentConfig(
        algorithms=("always_h1", "cheat"),
        location_grid=(20,),
        k_test=1000,
        iterations=1,
        master_seed=ACCEPT_SEED,
    )
    ms = ev.load_corpus(cfg)
    accs = ev.run_iteration(ms, cfg, 20, derive_seed(ACCEPT_SEED, 0, 0))
    assert abs(accs["always_h1"] - 0.5) <= 0.02
    assert accs["cheat"] == 1.0
    print(f"\nPASS criterion 10: always-H1 {accs['always_h1']:.3f}, oracle {accs['cheat']:.1f}")
