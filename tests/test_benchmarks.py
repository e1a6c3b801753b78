import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rssdetect import benchmarks as bm
from rssdetect.dataset import Label, PairSet
from rssdetect.detector import Hypothesis


def grid_search_accuracy(distances, labels_h1, n_points=10_000) -> float:
    """Dense-grid oracle for the best achievable thresholding accuracy."""
    d = np.asarray(distances, dtype=float)
    y = np.asarray(labels_h1, dtype=bool)
    grid = np.linspace(d.min() - 1.0, d.max() + 1.0, n_points)
    best = 0.0
    for t in grid:
        best = max(best, float(np.mean((d > t) == y)))
    return best


def rule_accuracy(distances, labels_h1, threshold) -> float:
    d = np.asarray(distances, dtype=float)
    y = np.asarray(labels_h1, dtype=bool)
    return float(np.mean((d > threshold) == y))


def exhaustive_threshold(distances, labels_h1) -> tuple[float, float]:
    """Accuracy of every candidate midpoint, scanned upward; the first best wins."""
    uniq = sorted(set(distances))
    candidates = [-math.inf] + [(a + b) / 2.0 for a, b in zip(uniq, uniq[1:])] + [math.inf]
    best_t, best_acc = None, -1.0
    for t in candidates:
        acc = sum((d > t) == y for d, y in zip(distances, labels_h1)) / len(distances)
        if acc > best_acc:
            best_t, best_acc = t, acc
    return best_t, best_acc


# few distinct values, so ties and duplicate distances are common
DISTANCE = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6))


def pair_set_from_arrays(first, second, k) -> PairSet:
    codes = np.array([Label.SAME.value] * k + [Label.DIFF.value] * k, dtype=np.int8)
    return PairSet(
        first=np.asarray(first, dtype=float),
        second=np.asarray(second, dtype=float),
        label_codes=codes,
        location_a=np.r_[np.arange(k), np.arange(k)],
        location_b=np.r_[np.arange(k), np.arange(k) + 500],
        estimate_a=np.zeros(2 * k, dtype=np.int64),
        estimate_b=np.ones(2 * k, dtype=np.int64),
        k_per_class=k,
    )


class TestTuneThreshold:
    def test_separable_midpoint(self):
        fit = bm.tune_threshold([1.0, 2.0, 3.0, 4.0], [False, False, True, True])
        assert fit.threshold == 2.5
        assert fit.accuracy == 1.0

    def test_all_same_gives_plus_infinity(self):
        fit = bm.tune_threshold([1.0, 2.0], [False, False])
        assert fit.threshold == np.inf
        assert fit.accuracy == 1.0

    def test_all_diff_gives_minus_infinity(self):
        fit = bm.tune_threshold([1.0, 2.0], [True, True])
        assert fit.threshold == -np.inf
        assert fit.accuracy == 1.0

    def test_tie_breaks_toward_smallest(self):
        # thresholds 1.5 and 3.5 both give accuracy 3/4; pick 1.5
        fit = bm.tune_threshold([1.0, 3.0, 2.0, 4.0], [False, False, True, True])
        assert fit.accuracy == 0.75
        assert fit.threshold == 1.5

    def test_beats_dense_grid_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(20, 200))
            d = rng.normal(5.0, 2.0, size=n)
            y = rng.random(n) < rng.uniform(0.2, 0.8)
            fit = bm.tune_threshold(d, y)
            assert fit.accuracy == pytest.approx(rule_accuracy(d, y, fit.threshold), abs=0.0)
            assert fit.accuracy >= grid_search_accuracy(d, y, n_points=2000) - 1e-12

    @given(st.lists(st.tuples(DISTANCE, st.booleans()), min_size=1, max_size=40))
    @example([(1.0, False), (1.0, True), (2.0, False), (2.0, True)])
    @example([(0.5, False), (0.5, False), (-1.0, False)])
    @example([(0.5, True), (3.0, True), (3.0, True)])
    @example([(2.0, True), (1.0, False), (2.0, False), (0.0, True)])
    def test_matches_exhaustive_scan(self, samples):
        d = [s[0] for s in samples]
        y = [s[1] for s in samples]
        fit = bm.tune_threshold(d, y)
        assert (fit.threshold, fit.accuracy) == exhaustive_threshold(d, y)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bm.tune_threshold([], [])


class TestDbc:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_input_fails_closed(self, bad, slot):
        # a NaN distance compares False against the threshold, which used to read as H0
        pair = [np.zeros(2), np.zeros(2)]
        pair[slot][0] = bad
        for q in (1, 2):
            with pytest.raises(ValueError, match="finite"):
                bm.decide_dbc(bm.DbcModel(q, 1.0), *pair)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_batch_fails_closed(self, bad, slot):
        pairs = [np.zeros((4, 2)), np.zeros((4, 2))]
        pairs[slot][2, 1] = bad
        for q in (1, 2):
            with pytest.raises(ValueError, match="finite"):
                bm.dbc_statistic_batch(bm.DbcModel(q, 1.0), *pairs)

    def test_triangle_distances(self):
        pairs = pair_set_from_arrays([[0.0, 3.0], [0.0, 3.0]], [[4.0, 0.0], [4.0, 0.0]], k=1)
        assert bm.pair_distances(pairs, 2)[0] == 5.0
        assert bm.pair_distances(pairs, 1)[0] == 7.0

    def test_separable_training_accuracy(self):
        rng = np.random.default_rng(1)
        k = 50
        first = rng.normal(size=(2 * k, 3))
        second = first + rng.normal(0, 0.01, size=(2 * k, 3))
        second[k:] += 5.0
        pairs = pair_set_from_arrays(first, second, k)
        model = bm.train_dbc(pairs, 2)
        d = bm.pair_distances(pairs, 2)
        assert rule_accuracy(d, pairs.labels, model.threshold) == 1.0

    def test_swap_symmetric(self):
        model = bm.DbcModel(norm_order=2, threshold=1.5)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            f, fp = rng.normal(size=3), rng.normal(size=3)
            assert bm.decide_dbc(model, f, fp).hypothesis == bm.decide_dbc(model, fp, f).hypothesis

    def test_exact_threshold_is_h0(self):
        model = bm.DbcModel(norm_order=2, threshold=5.0)
        d = bm.decide_dbc(model, np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert d.statistic == 0.0
        assert d.hypothesis is Hypothesis.H0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for q in (1, 2):
            model = bm.DbcModel(norm_order=q, threshold=2.0)
            for _ in range(50):
                f, fp = rng.normal(size=4), rng.normal(size=4)
                dist = np.abs(f - fp).sum() if q == 1 else np.sqrt(((f - fp) ** 2).sum())
                got = bm.decide_dbc(model, f, fp)
                assert got.statistic == pytest.approx(dist - 2.0, rel=1e-12)
                assert (got.hypothesis is Hypothesis.H1) == (dist > 2.0)

    def test_accuracy_invariant_under_common_permutation(self):
        rng = np.random.default_rng(4)
        k = 40
        first = rng.normal(size=(2 * k, 6))
        second = rng.normal(size=(2 * k, 6))
        pairs = pair_set_from_arrays(first, second, k)
        perm = rng.permutation(6)
        permuted = pair_set_from_arrays(first[:, perm], second[:, perm], k)
        for q in (1, 2):
            assert (
                bm.tune_threshold(bm.pair_distances(pairs, q), pairs.labels).accuracy
                == bm.tune_threshold(bm.pair_distances(permuted, q), permuted.labels).accuracy
            )


class TestLloydKmeans:
    def test_two_blobs_recover_group_means(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 0.01, size=(40, 3))
        b = rng.normal(10.0, 0.01, size=(40, 3))
        x = np.concatenate([a, b])
        res = bm.lloyd_kmeans(x, 2, seed=6)
        got = res.centroids[np.argsort(res.centroids[:, 0])]
        assert got[0] == pytest.approx(a.mean(axis=0), abs=1e-6)
        assert got[1] == pytest.approx(b.mean(axis=0), abs=1e-6)
        assert res.converged

    def test_wcss_monotone_and_fixpoint(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=(60, 4)) + rng.integers(0, 3, size=(60, 1)) * 3.0
            res = bm.lloyd_kmeans(x, 3, seed=int(rng.integers(2**31)))
            assert np.all(np.diff(res.wcss_history) <= 0.0)
            assert res.converged
            # one more assignment pass changes nothing
            assert np.array_equal(bm._assign(x, res.centroids), res.labels)

    def test_empty_cluster_reseeds_and_stays_monotone(self):
        # seeds chosen (by search) so that an update empties a cluster
        rng = np.random.default_rng(2)
        x = np.concatenate(
            [
                rng.normal(0, 0.1, size=(30, 2)),
                rng.normal(8, 0.1, size=(30, 2)),
                rng.normal(100, 0.5, size=(2, 2)),
            ]
        )
        res = bm.lloyd_kmeans(x, 5, seed=45)
        assert np.all(np.diff(res.wcss_history) <= 1e-9)
        assert res.converged
        assert np.unique(res.labels).size == 5

    def test_too_few_distinct_vectors(self):
        x = np.array([[1.0, 2.0]] * 10 + [[3.0, 4.0]] * 10)
        with pytest.raises(ValueError, match="distinct"):
            bm.lloyd_kmeans(x, 3, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 2))
        a = bm.lloyd_kmeans(x, 4, seed=9)
        b = bm.lloyd_kmeans(x, 4, seed=9)
        assert np.array_equal(a.centroids, b.centroids)


class TestKmc:
    def _corpus(self, l=8, e=5, m=3, seed=10):
        from rssdetect.dataset import MeasurementSet

        rng = np.random.default_rng(seed)
        signatures = rng.normal(0, 8.0, size=(l, 1, m))
        return MeasurementSet(
            values=signatures + rng.normal(0, 0.5, size=(l, e, m)),
            location_ids=np.arange(l),
        )

    def test_training_and_decision(self):
        ms = self._corpus()
        from rssdetect.dataset import build_pair_set

        pairs = build_pair_set(ms, ms.location_ids, 60, seed=11)
        model = bm.train_kmc(ms, ms.location_ids, pairs, kappa=4, seed=12)
        assert model.centroids.shape == (4, 3)
        d = bm.decide_kmc(model, ms.values[0, 0], ms.values[1, 0])
        swap = bm.decide_kmc(model, ms.values[1, 0], ms.values[0, 0])
        assert d.hypothesis == swap.hypothesis

    def test_kappa_one_reduces_to_scalar_distance_difference(self):
        centroid = np.array([[1.0, -2.0, 0.5]])
        model = bm.KmcModel(centroids=centroid, threshold=0.7)
        rng = np.random.default_rng(13)
        for _ in range(50):
            f, fp = rng.normal(size=3), rng.normal(size=3)
            want = abs(
                np.linalg.norm(f - centroid[0]) - np.linalg.norm(fp - centroid[0])
            )
            got = bm.decide_kmc(model, f, fp)
            assert got.statistic == pytest.approx(want - 0.7, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_input_fails_closed(self, bad, slot):
        model = bm.KmcModel(centroids=np.zeros((2, 3)), threshold=1.0)
        pair = [np.zeros(3), np.zeros(3)]
        pair[slot][0] = bad
        with pytest.raises(ValueError, match="finite"):
            bm.decide_kmc(model, *pair)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_batch_fails_closed(self, bad, slot):
        # an inf row used to come back as an inf statistic
        model = bm.KmcModel(centroids=np.zeros((2, 3)), threshold=1.0)
        pairs = [np.zeros((4, 3)), np.zeros((4, 3))]
        pairs[slot][2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            bm.kmc_statistic_batch(model, *pairs)

    def test_dimension_mismatch(self):
        model = bm.KmcModel(centroids=np.zeros((2, 3)), threshold=1.0)
        with pytest.raises(ValueError, match="feature length"):
            bm.decide_kmc(model, np.zeros(4), np.zeros(4))
