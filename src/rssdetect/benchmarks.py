"""Baseline detectors: distance thresholding and K-means centroid distances.

DBC(l1) and DBC(l2) decide "different locations" iff the l1/l2 distance
between the two feature vectors exceeds a threshold tuned to maximize
accuracy over the training pairs.  KMC first clusters the training
vectors with Lloyd's algorithm, re-represents each vector by its
Euclidean distances to the centroids, and applies the DBC(l2) rule in
that distance space.

Each model's ``statistic_batch`` is its margin (distance - threshold),
so that H1 <=> statistic > 0 holds uniformly, and its decision is the
same :class:`~rssdetect.detector.Decision` as the neural detector's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import PairSet
from .detector import Decision, checked_pair
from .seeding import as_seed_sequence


class ThresholdFit(NamedTuple):
    threshold: float
    accuracy: float  # training accuracy at the returned threshold


@dataclass(frozen=True)
class DbcModel:
    norm_order: int  # 1 or 2
    threshold: float

    def __post_init__(self):
        if self.norm_order not in (1, 2):
            raise ValueError(f"norm_order must be 1 or 2, got {self.norm_order}")

    def statistic_batch(self, f, f_prime):
        """The distance margin; see :func:`dbc_statistic_batch`."""
        return dbc_statistic_batch(self, f, f_prime)


@dataclass(frozen=True)
class KmcModel:
    centroids: np.ndarray  # (kappa, M)
    threshold: float

    def __post_init__(self):
        # with no centroid, or no feature, every pair maps to one vector
        if np.ndim(self.centroids) != 2 or min(np.shape(self.centroids)) < 1:
            raise ValueError(
                f"centroids must be a (kappa, M) array with kappa >= 1 and M >= 1, "
                f"got shape {np.shape(self.centroids)}"
            )

    @property
    def kappa(self) -> int:
        return self.centroids.shape[0]

    def statistic_batch(self, f, f_prime):
        """The centroid-distance margin; see :func:`kmc_statistic_batch`."""
        return kmc_statistic_batch(self, f, f_prime)


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # (k, M)
    labels: np.ndarray  # (n,) assignment of each input row
    wcss_history: np.ndarray  # within-cluster sum of squares per iteration
    converged: bool  # terminal assignment is a fixpoint


def tune_threshold(distances, labels_h1) -> ThresholdFit:
    """Exact accuracy-maximizing threshold for the rule "H1 iff d > eta".

    Candidates are midpoints between consecutive distinct sorted
    distances plus -inf/+inf sentinels, which cover every achievable
    confusion split; ties break toward the smallest threshold.  Where a
    midpoint does not lie in [lower, upper) of its two values (it rounded
    up to the upper one, overflowed to +-inf, or is the NaN of -inf + inf),
    the lower value is the candidate instead.
    ``labels_h1`` is truthy for DIFF (H1) samples.
    """
    d = np.asarray(distances, dtype=np.float64)
    y = np.asarray(labels_h1, dtype=bool)
    if d.size == 0:
        raise ValueError("no labeled distances to tune on")

    order = np.argsort(d, kind="stable")
    d_sorted = d[order]
    y_sorted = y[order]

    uniq = np.unique(d_sorted)
    lo, hi = uniq[:-1], uniq[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        mid = (lo + hi) / 2.0
    mid = np.where((lo <= mid) & (mid < hi), mid, lo)
    candidates = np.concatenate([[-np.inf], mid, [np.inf]])

    # With threshold t: correct = (# SAME with d <= t) + (# DIFF with d > t).
    cum_same = np.concatenate([[0], np.cumsum(~y_sorted)])
    n_diff = int(np.count_nonzero(y))
    below = np.searchsorted(d_sorted, candidates, side="right")
    correct = cum_same[below] + (n_diff - (below - cum_same[below]))
    best = int(np.argmax(correct))  # first max -> smallest threshold
    return ThresholdFit(
        threshold=float(candidates[best]), accuracy=float(correct[best] / d.size)
    )


def pair_distances(pair_set: PairSet, norm_order: int) -> np.ndarray:
    diff = pair_set.first - pair_set.second
    if norm_order == 1:
        return np.abs(diff).sum(axis=1)
    return np.sqrt((diff**2).sum(axis=1))


def train_dbc(pair_set: PairSet, norm_order: int) -> DbcModel:
    """Fit the distance-based classifier on labeled training pairs."""
    fit = tune_threshold(pair_distances(pair_set, norm_order), pair_set.labels)
    return DbcModel(norm_order=norm_order, threshold=fit.threshold)


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # ties go to the lowest centroid index (argmin convention)
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def _wcss(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    return float(((x - centroids[labels]) ** 2).sum())


def lloyd_kmeans(x: np.ndarray, k: int, seed, max_iter: int = 300) -> KMeansResult:
    """Lloyd's algorithm with seeded distinct-point init.

    Initial centroids are k distinct data vectors chosen uniformly at
    random.  An update that empties a cluster reseeds its centroid to
    the point currently farthest from its own centroid.  Iterates to an
    assignment fixpoint or ``max_iter`` iterations.
    """
    x = np.asarray(x, dtype=np.float64)
    uniq = np.unique(x, axis=0)
    if uniq.shape[0] < k:
        raise ValueError(
            f"k-means needs at least {k} distinct vectors, found {uniq.shape[0]}"
        )
    rng = np.random.default_rng(as_seed_sequence(seed))
    centroids = uniq[rng.choice(uniq.shape[0], size=k, replace=False)].copy()

    labels = _assign(x, centroids)
    history = [_wcss(x, centroids, labels)]
    converged = False
    for _ in range(max_iter):
        for c in range(k):
            members = x[labels == c]
            if members.shape[0] > 0:
                centroids[c] = members.mean(axis=0)
            else:
                # reseed: steal the globally worst-fit point
                dist2 = ((x - centroids[labels]) ** 2).sum(axis=1)
                centroids[c] = x[int(np.argmax(dist2))]
        new_labels = _assign(x, centroids)
        history.append(_wcss(x, centroids, new_labels))
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
    return KMeansResult(
        centroids=centroids,
        labels=labels,
        wcss_history=np.asarray(history),
        converged=converged,
    )


def centroid_distances(centroids: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Map an (M,) vector or (B, M) batch to its Euclidean distances from each centroid."""
    f = np.asarray(f, dtype=np.float64)
    return np.sqrt(((f[..., None, :] - centroids) ** 2).sum(axis=-1))


def _row_keys(words: np.ndarray) -> np.ndarray:
    """A 64-bit key per row of an (N, M) uint64 array: equal rows, equal keys.

    Each word's high half is folded into its low half, because small
    values such as integer dBm readings differ only in their high bits,
    which a product cannot carry down.  The folded words are combined by
    a wrapping dot product with odd multipliers taken from splitmix64, so
    the multipliers have no small additive relations for permuted or
    grid-valued rows to fall into.
    """
    k = np.arange(1, words.shape[1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    k = (k ^ (k >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    k = (k ^ (k >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    k = (k ^ (k >> np.uint64(31))) | np.uint64(1)
    folded = words >> np.uint64(32)
    folded ^= words
    return folded @ k


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (N, M) float64 array under byte equality.

    Returns ``(rows, inverse)`` with ``rows[inverse]`` byte-identical to
    ``x``.  Rows are sorted by :func:`_row_keys`, so equal rows sit
    together, and a group starts wherever a row's bytes differ from those
    of the row before it.  A key collision can therefore split a group but
    never join unequal rows.  -0.0 and +0.0 stay apart.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    words = x.view(np.uint64)
    order = np.argsort(_row_keys(words))
    ordered = words[order]
    starts = np.ones(len(words), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(words), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return x[order[starts]], inverse


def _centroid_space_distance(centroids: np.ndarray, f, f_prime) -> np.ndarray:
    """KMC's distance ||d(f) - d(f')||_2, where d is :func:`centroid_distances`.

    Takes two (M,) vectors or two (B, M) batches and returns a scalar or a
    (B,) array.  Pairs are drawn with replacement from a corpus of a few
    hundred vectors, so a batch repeats its rows: each distinct row of
    ``[f; f']`` is mapped into centroid space once, and the maps are
    gathered back per row.  Each output is the same arithmetic on the same
    row as mapping every row, so the result is bit for bit the row-by-row
    one.  A single pair is mapped directly, as grouping two rows costs
    more than it saves.
    """
    if np.ndim(f) == 1:
        rep_a = centroid_distances(centroids, f)
        rep_b = centroid_distances(centroids, f_prime)
    else:
        rows, inverse = _distinct_rows(np.concatenate([f, f_prime]))
        rep = centroid_distances(centroids, rows)[inverse]
        rep_a, rep_b = rep[:len(f)], rep[len(f):]
    return np.sqrt(((rep_a - rep_b) ** 2).sum(axis=-1))


def train_kmc(
    ms, train_location_ids, pair_set: PairSet, kappa: int, seed, max_iter: int = 300
) -> KmcModel:
    """Cluster all training vectors, then tune the distance-space threshold.

    Every estimate f^(j)(x_n) of every training location is clustered
    (not per-location means).  The threshold applies the DBC(l2) rule to
    ||d(f) - d(f')||_2 where d(.) is the centroid-distance map, computed
    by :func:`_centroid_space_distance`, which maps each distinct training
    vector once however many pairs it appears in.
    """
    rows = [ms.index_of(int(i)) for i in np.asarray(train_location_ids)]
    x = ms.values[rows].reshape(-1, ms.n_features)
    km = lloyd_kmeans(x, kappa, seed, max_iter=max_iter)

    d = _centroid_space_distance(km.centroids, pair_set.first, pair_set.second)
    fit = tune_threshold(d, pair_set.labels)
    return KmcModel(centroids=km.centroids, threshold=fit.threshold)


def dbc_statistic_batch(model: DbcModel, f: np.ndarray, f_prime: np.ndarray):
    """Margin ||f - f'||_q - threshold for (B, M) batches, or a float for one pair."""
    f, f_prime = checked_pair(f, f_prime)
    diff = f - f_prime
    if model.norm_order == 1:
        d = np.abs(diff).sum(axis=-1)
    else:
        d = np.sqrt((diff**2).sum(axis=-1))
    return d - model.threshold


def decide_dbc(model: DbcModel, f: np.ndarray, f_prime: np.ndarray) -> Decision:
    """H1 iff ||f - f'||_q exceeds the tuned threshold; ties go to H0."""
    return Decision(float(dbc_statistic_batch(model, f, f_prime)))


def kmc_statistic_batch(model: KmcModel, f: np.ndarray, f_prime: np.ndarray):
    """Centroid-distance-space margin for (B, M) batches, or a float for one pair.

    The margin is ||d(f) - d(f')||_2 - threshold, with the distance from
    :func:`_centroid_space_distance`, the one ``train_kmc`` tunes on.  The
    input is checked first, so NaN, inf or mis-shaped input raises.
    """
    f, f_prime = checked_pair(f, f_prime)
    if f.shape[-1] != model.centroids.shape[1]:
        raise ValueError(
            f"feature length {f.shape[-1]} does not match centroids "
            f"({model.centroids.shape[1]})"
        )
    return _centroid_space_distance(model.centroids, f, f_prime) - model.threshold


def decide_kmc(model: KmcModel, f: np.ndarray, f_prime: np.ndarray) -> Decision:
    """DBC(l2) rule in centroid-distance space; ties go to H0."""
    return Decision(float(kmc_statistic_batch(model, f, f_prime)))
