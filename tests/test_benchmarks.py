import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rssdetect import benchmarks as bm
from rssdetect.dataset import PairSet
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


def midpoint_or_lower(a: float, b: float) -> float:
    """(a + b) / 2 for a < b, or a where that leaves [a, b) by rounding or overflow."""
    mid = (a + b) / 2.0
    return mid if a <= mid < b else a


def exhaustive_threshold(distances, labels_h1) -> tuple[float, float]:
    """Accuracy of every candidate midpoint, scanned upward; the first best wins."""
    uniq = sorted(set(distances))
    candidates = [-math.inf] + [midpoint_or_lower(a, b) for a, b in zip(uniq, uniq[1:])] + [math.inf]
    best_t, best_acc = None, -1.0
    for t in candidates:
        acc = sum((d > t) == y for d, y in zip(distances, labels_h1)) / len(distances)
        if acc > best_acc:
            best_t, best_acc = t, acc
    return best_t, best_acc


def best_split_accuracy(distances, labels_h1) -> float:
    """Best accuracy over every split of the sorted distinct distances into H0 | H1."""
    uniq = sorted(set(distances))
    best = 0.0
    for k in range(len(uniq) + 1):
        h0 = set(uniq[:k])
        correct = sum((d not in h0) == y for d, y in zip(distances, labels_h1))
        best = max(best, correct / len(distances))
    return best


# few distinct values, so ties and duplicate distances are common
DISTANCE = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6))


@st.composite
def ulp_neighbours(draw):
    """A value next to an anchor, a few ulps away: midpoints round or overflow."""
    x = draw(st.sampled_from([0.0, 1.0, -1.0, 1e-300, 5e-324, 1e308, -1e308, 1.7976931348623157e308]))
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, draw(st.sampled_from([math.inf, -math.inf])))
    return x


def pair_set_from_arrays(first, second, k) -> PairSet:
    return PairSet(
        first=np.asarray(first, dtype=float),
        second=np.asarray(second, dtype=float),
        location_a=np.r_[np.arange(k), np.arange(k)],
        location_b=np.r_[np.arange(k), np.arange(k) + 500],
        estimate_a=np.zeros(2 * k, dtype=np.int64),
        estimate_b=np.ones(2 * k, dtype=np.int64),
        k_per_class=k,
    )


def distances(pairs: PairSet, q: int) -> np.ndarray:
    """DBC's l_q distance of every pair: the model's margin at threshold 0."""
    return bm.DbcModel(norm_order=q, threshold=0.0).statistic_batch(pairs.first, pairs.second)


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

    @pytest.mark.parametrize(
        "lower, upper",
        [
            (1.0 + 2.0**-52, 1.0 + 2.0**-51),  # the midpoint rounds up to the upper value
            (1e308, 1.7e308),  # the midpoint overflows to inf
            (-1.7e308, -1e308),  # the midpoint overflows to -inf
            (-math.inf, math.inf),  # the midpoint is NaN
        ],
    )
    def test_separable_split_between_adjacent_or_huge_values(self, lower, upper):
        fit = bm.tune_threshold([lower, upper], [False, True])
        assert fit == (lower, 1.0)
        assert rule_accuracy([lower, upper], [False, True], fit.threshold) == 1.0

    @given(
        st.lists(
            st.tuples(st.one_of(DISTANCE, ulp_neighbours()), st.booleans()), min_size=1, max_size=30
        )
    )
    @example([(1.0, False), (1.0000000000000002, True)])
    @example([(1e308, False), (1.7e308, True), (1.7e308, True)])
    def test_reaches_the_best_split(self, samples):
        d = [s[0] for s in samples]
        y = [s[1] for s in samples]
        fit = bm.tune_threshold(d, y)
        assert fit.accuracy == best_split_accuracy(d, y)
        assert rule_accuracy(d, y, fit.threshold) == fit.accuracy
        assert (fit.threshold, fit.accuracy) == exhaustive_threshold(d, y)

    @pytest.mark.parametrize(
        "d, y, want",
        [
            ([1.0, math.nan, math.nan, 2.0], [False, True, True, True], (1.5, 1.0)),
            ([math.nan, math.nan], [False, True], (-math.inf, 0.5)),
            ([-math.inf, math.nan, 3.0, -math.inf], [False, False, True, True], (-math.inf, 0.5)),
            ([math.nan, 1.0, math.nan, math.inf], [True, False, False, True], (1.0, 0.75)),
            ([-math.inf, -math.inf], [False, False], (-math.inf, 1.0)),
            ([1.0, math.nan], [False, False], (1.0, 0.5)),
        ],
    )
    def test_nan_and_infinite_distances(self, d, y, want):
        # fits taken when the distinct values came from np.unique, which
        # keeps one NaN, and the counts from searchsorted
        assert bm.tune_threshold(d, y) == want

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
        assert distances(pairs, 2)[0] == 5.0
        assert distances(pairs, 1)[0] == 7.0

    def test_separable_training_accuracy(self):
        rng = np.random.default_rng(1)
        k = 50
        first = rng.normal(size=(2 * k, 3))
        second = first + rng.normal(0, 0.01, size=(2 * k, 3))
        second[k:] += 5.0
        pairs = pair_set_from_arrays(first, second, k)
        model = bm.train_dbc(pairs, 2)
        d = distances(pairs, 2)
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
                bm.tune_threshold(distances(pairs, q), pairs.labels).accuracy
                == bm.tune_threshold(distances(permuted, q), permuted.labels).accuracy
            )


def update_centroids_ref(x, labels, centroids) -> int:
    """Lloyd's update as one loop over clusters, in place; returns the number of reseeds."""
    reseeds = 0
    for c in range(centroids.shape[0]):
        members = x[labels == c]
        if members.shape[0] > 0:
            centroids[c] = members.mean(axis=0)
        else:
            dist2 = ((x - centroids[labels]) ** 2).sum(axis=1)
            centroids[c] = x[int(np.argmax(dist2))]
            reseeds += 1
    return reseeds


def lloyd_kmeans_ref(x, k, seed, max_iter=300):
    """``lloyd_kmeans`` with the per-cluster update loop; also returns the reseed count."""
    uniq = np.unique(x, axis=0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centroids = uniq[rng.choice(uniq.shape[0], size=k, replace=False)].copy()
    labels = bm._assign(x, centroids)
    history = [bm._wcss(x, centroids, labels)]
    reseeds = 0
    for _ in range(max_iter):
        reseeds += update_centroids_ref(x, labels, centroids)
        new_labels = bm._assign(x, centroids)
        history.append(bm._wcss(x, centroids, new_labels))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, labels, np.asarray(history), reseeds


def empty_cluster_data():
    rng = np.random.default_rng(2)
    return np.concatenate(
        [
            rng.normal(0, 0.1, size=(30, 2)),
            rng.normal(8, 0.1, size=(30, 2)),
            rng.normal(100, 0.5, size=(2, 2)),
        ]
    )


def lloyd_case(name):
    rng = np.random.default_rng(11)
    if name == "empty-cluster":
        return empty_cluster_data(), 5, 45
    if name == "blobs":
        return rng.normal(size=(300, 16)) + rng.integers(0, 4, size=(300, 1)) * 2.0, 4, 3
    if name == "negative-zero-columns":
        x = rng.normal(size=(200, 4)) + rng.integers(0, 3, size=(200, 1)) * 3.0
        x[:, 1] = -0.0
        x[:100, 3] = -0.0  # all -0.0 in some clusters, mixed signs in others
        x[100:, 3] = 0.0
        return x, 3, 5
    if name == "one-feature":
        return rng.normal(size=(500, 1)) + rng.integers(0, 3, size=(500, 1)) * 4.0, 3, 7
    return rng.integers(-3, 4, size=(400, 3)).astype(float), 6, 8  # integer grid


class TestLloydKmeans:
    @pytest.mark.parametrize(
        "name", ["empty-cluster", "blobs", "negative-zero-columns", "one-feature", "grid"]
    )
    def test_matches_per_cluster_loop(self, name):
        x, k, seed = lloyd_case(name)
        res = bm.lloyd_kmeans(x, k, seed=seed)
        centroids, labels, history, reseeds = lloyd_kmeans_ref(x, k, seed)
        assert res.centroids.tobytes() == centroids.tobytes()
        assert np.array_equal(res.labels, labels)
        assert res.wcss_history.tobytes() == history.tobytes()
        assert reseeds > 0 or name != "empty-cluster"

    @given(
        data=st.data(),
        n=st.integers(1, 60),
        m=st.integers(1, 4),
        k=st.integers(1, 6),
    )
    def test_update_matches_per_cluster_loop(self, data, n, m, k):
        values = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
            st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
        )
        x = data.draw(hnp.arrays(np.float64, (n, m), elements=values))
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        centroids = data.draw(hnp.arrays(np.float64, (k, m), elements=values))
        want = centroids.copy()
        update_centroids_ref(x, labels, want)
        bm._update_centroids(x, labels, centroids)
        assert centroids.tobytes() == want.tobytes()

    def test_update_all_negative_zero_column(self):
        # bincount starts each sum from +0.0, whatever numpy's mean starts from
        x = np.array([[-0.0, 1.0], [-0.0, 2.0], [3.0, -0.0], [4.0, -0.0], [5.0, -0.0]])
        labels = np.array([0, 0, 1, 1, 1])
        centroids, want = np.ones((2, 2)), np.ones((2, 2))
        update_centroids_ref(x, labels, want)
        bm._update_centroids(x, labels, centroids)
        assert centroids.tobytes() == want.tobytes()

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
        res = bm.lloyd_kmeans(empty_cluster_data(), 5, seed=45)
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


# both zeros and subnormals likely; |x| <= 1e100 keeps every squared
# distance finite
swap_floats = st.one_of(
    st.floats(-1e100, 1e100),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e100, -1e100]),
)


@st.composite
def swap_cases(draw):
    m = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(m,), (draw(st.integers(1, 8)), m)]))
    f = draw(hnp.arrays(np.float64, shape, elements=swap_floats))
    fp = draw(hnp.arrays(np.float64, shape, elements=swap_floats))
    centroids = draw(hnp.arrays(np.float64, (draw(st.integers(1, 5)), m), elements=swap_floats))
    threshold = draw(st.floats(-1e3, 1e3))
    return f, fp, centroids, threshold


@given(case=swap_cases())
def test_baseline_statistics_swap_bit_exact(case):
    f, fp, centroids, threshold = case
    models = (
        bm.DbcModel(norm_order=1, threshold=threshold),
        bm.DbcModel(norm_order=2, threshold=threshold),
        bm.KmcModel(centroids=centroids, threshold=threshold),
    )
    for model in models:
        a = np.asarray(model.statistic_batch(f, fp))
        b = np.asarray(model.statistic_batch(fp, f))
        assert a.tobytes() == b.tobytes(), model


def centroid_space_distance_rows(centroids, f, f_prime) -> np.ndarray:
    """Reference: each pair's vectors mapped on their own, one row at a time."""
    out = []
    for a, b in zip(f, f_prime):
        rep_a = np.sqrt(((a - centroids) ** 2).sum(axis=-1))
        rep_b = np.sqrt(((b - centroids) ** 2).sum(axis=-1))
        out.append(np.sqrt(((rep_a - rep_b) ** 2).sum()))
    return np.array(out, dtype=np.float64)


def centroid_space_distance_all_rows(centroids, f, f_prime) -> np.ndarray:
    """Reference: every row of both batches mapped, as before rows were shared."""
    rep_a = bm.centroid_distances(centroids, f)
    rep_b = bm.centroid_distances(centroids, f_prime)
    return np.sqrt(((rep_a - rep_b) ** 2).sum(axis=1))


# zeros of both signs are likely; |x| <= 1e100 keeps every squared distance finite
kmc_floats = st.one_of(st.floats(-1e100, 1e100), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@st.composite
def kmc_batches(draw):
    """(centroids, f, f') with rows taken from a pool: few (duplicate-heavy) or all distinct."""
    m = draw(st.integers(1, 20))
    b = draw(st.integers(1, 40))
    if draw(st.booleans()):
        pool = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), m), elements=kmc_floats))
        idx = draw(hnp.arrays(np.intp, (2, b), elements=st.integers(0, len(pool) - 1)))
    else:
        pool = draw(hnp.arrays(np.float64, (2 * b, m), elements=kmc_floats))
        pool[:, 0] = np.arange(2 * b)  # every row distinct
        idx = np.arange(2 * b).reshape(2, b)
    centroids = draw(hnp.arrays(np.float64, (draw(st.integers(1, 16)), m), elements=kmc_floats))
    return centroids, pool[idx[0]], pool[idx[1]]


# rows of signed zeros: equal under ==, distinct as bytes
SIGNED_ZEROS = (
    np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, 0.0]]),
    np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]]),
)


class TestCentroidSpaceDistance:
    @given(case=kmc_batches())
    @example(case=(np.array([[1.0, 2.0]]), *SIGNED_ZEROS))
    @example(case=(np.array([[0.0, 0.0], [3.0, -1.0]]), np.array([[0.0, -0.0]]), np.array([[-0.0, 0.0]])))
    def test_bit_exact_against_row_by_row(self, case):
        centroids, f, fp = case
        got = bm._centroid_space_distance(centroids, f, fp)
        assert got.tobytes() == centroid_space_distance_rows(centroids, f, fp).tobytes()
        assert got.tobytes() == centroid_space_distance_all_rows(centroids, f, fp).tobytes()
        model = bm.KmcModel(centroids, 0.0)
        for i in (0, len(f) - 1):  # a single pair, as one (M,) vector each
            one = bm.kmc_statistic_batch(model, f[i], fp[i])
            assert np.shape(one) == () and one.tobytes() == got[i].tobytes()

    @given(case=kmc_batches())
    @example(case=(None, *SIGNED_ZEROS))
    def test_each_distinct_row_mapped_once(self, case):
        _, f, fp = case
        x = np.concatenate([f, fp])
        rows, inverse = bm._distinct_rows(x)
        assert rows[inverse].tobytes() == x.tobytes()
        assert len(rows) == len({r.tobytes() for r in x})

    @pytest.mark.parametrize(
        "pool",
        [
            np.array(list(itertools.permutations(np.arange(-70.0, -63.0)))),  # integer dBm
            np.array(list(itertools.product([0.0, -0.0, 1.0, -1.0, 0.5, 2.0], repeat=6))),
        ],
        ids=["permuted-integers", "small-grid"],
    )
    def test_structured_rows_grouped_fully(self, pool):
        # rows that differ only in their high bits, or only by a permutation,
        # must still get distinct keys, or each distinct row is mapped many times
        x = np.concatenate([pool, pool[::-1]])
        rows, inverse = bm._distinct_rows(x)
        assert len(rows) == len(pool)
        assert rows[inverse].tobytes() == x.tobytes()

    @given(case=kmc_batches())
    def test_colliding_keys_only_split_groups(self, case):
        # every row gets the same key: equal rows may land in several groups,
        # but unequal rows must never share one
        centroids, f, fp = case
        x = np.concatenate([f, fp])
        with mock.patch.object(bm, "_row_keys", lambda words: np.zeros(len(words), np.uint64)):
            rows, inverse = bm._distinct_rows(x)
            got = bm._centroid_space_distance(centroids, f, fp)
        assert rows[inverse].tobytes() == x.tobytes()
        assert got.tobytes() == centroid_space_distance_rows(centroids, f, fp).tobytes()

    def test_empty_batch(self):
        centroids = np.ones((3, 2))
        got = bm.kmc_statistic_batch(bm.KmcModel(centroids, 0.5), np.zeros((0, 2)), np.zeros((0, 2)))
        assert got.shape == (0,)
