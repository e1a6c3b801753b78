"""Measurement corpora, SAME/DIFF pair construction, and location splits.

A corpus holds E short-term RSS vector estimates for each of L
transmitter locations (M features per estimate, dB).  Training data for
the detectors are balanced sets of labeled pairs: SAME pairs are two
distinct estimates of one location, DIFF pairs are estimates of two
distinct locations.  Draws follow the uniform with/without-replacement
recipe exactly, so duplicate pairs across draws are possible and
accuracies are interpreted as sampling with replacement over pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError


@dataclass(frozen=True)
class MeasurementSet:
    """Dense corpus of RSS vector estimates, indexed (location, estimate).

    values[n, j, :] is the j-th estimate at the n-th location, in dB.
    Location ids are arbitrary distinct integers; their order fixes the
    row order on disk.
    """

    values: np.ndarray  # (L, E, M) float64
    location_ids: np.ndarray  # (L,) int64
    coordinates: np.ndarray | None = None  # (L, 3) meters, optional

    def __post_init__(self):
        if self.values.ndim != 3:
            raise DataFormatError(f"values must be (L, E, M), got shape {self.values.shape}")
        l, e, _ = self.values.shape
        if e < 2:
            raise DataFormatError(f"need at least 2 estimates per location, got E={e}")
        if self.location_ids.shape != (l,):
            raise DataFormatError("location_ids length must match values")
        if np.unique(self.location_ids).size != l:
            raise DataFormatError("location ids must be pairwise distinct")
        if not np.all(np.isfinite(self.values)):
            n, j, m = np.argwhere(~np.isfinite(self.values))[0]
            raise DataFormatError(
                f"non-finite value at location index {n}, estimate {j}, feature {m}"
            )
        if self.coordinates is not None:
            if self.coordinates.shape != (l, 3):
                raise DataFormatError("coordinates must be (L, 3)")
            if not np.all(np.isfinite(self.coordinates)):
                n = np.argwhere(~np.isfinite(self.coordinates))[0, 0]
                raise DataFormatError(f"non-finite coordinate at location index {n}")

    @property
    def n_locations(self) -> int:
        return self.values.shape[0]

    @property
    def n_estimates(self) -> int:
        return self.values.shape[1]

    @property
    def n_features(self) -> int:
        return self.values.shape[2]

    def index_of(self, location_id: int) -> int:
        idx = np.nonzero(self.location_ids == location_id)[0]
        if idx.size == 0:
            raise KeyError(f"unknown location id {location_id}")
        return int(idx[0])


@dataclass(frozen=True)
class PairSet:
    """Balanced pair collection: exactly K SAME followed by K DIFF pairs.

    Stored columnar for vectorized training and evaluation: pair i is row
    i of every array.  The layout fixes every label (rows [0, K) SAME,
    rows [K, 2K) DIFF), so the labels are derived from K, not stored.
    """

    first: np.ndarray  # (2K, M)
    second: np.ndarray  # (2K, M)
    location_a: np.ndarray  # (2K,) location ids
    location_b: np.ndarray
    estimate_a: np.ndarray  # (2K,) estimate indices
    estimate_b: np.ndarray
    k_per_class: int

    def __post_init__(self):
        k = self.k_per_class
        if self.first.shape[0] != 2 * k:
            raise ValueError("pair arrays must hold exactly 2K pairs")
        if np.any(self.location_a[:k] != self.location_b[:k]) or np.any(
            self.estimate_a[:k] == self.estimate_b[:k]
        ):
            raise ValueError("SAME pairs must share a location and use distinct estimates")
        if np.any(self.location_a[k:] == self.location_b[k:]):
            raise ValueError("DIFF pairs must use distinct locations")

    def __len__(self) -> int:
        return self.first.shape[0]

    @property
    def labels(self) -> np.ndarray:
        """Boolean mask, True where the pair is DIFF (hypothesis H1)."""
        return np.arange(2 * self.k_per_class) >= self.k_per_class


@dataclass(frozen=True)
class LocationSplit:
    """Disjoint train/validation/test location ids."""

    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray

    def __post_init__(self):
        parts = [self.train_ids, self.val_ids, self.test_ids]
        total = np.concatenate(parts)
        if np.unique(total).size != total.size:
            raise ValueError("split parts must be pairwise disjoint")


def _draw_distinct_pairs(rng: np.random.Generator, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """K ordered draws of two distinct indices from range(n), uniform.

    first uniform over n, second uniform over the remaining n-1,
    realized as a uniform nonzero cyclic shift.
    """
    a = rng.integers(0, n, size=k)
    shift = rng.integers(1, n, size=k)
    return a, (a + shift) % n


def build_pair_set(
    ms: MeasurementSet, location_ids, k: int, seed: int
) -> PairSet:
    """Draw K SAME and K DIFF pairs from the given location subset.

    SAME: location uniform over the subset, two estimate indices without
    replacement.  DIFF: two locations without replacement, two estimate
    indices without replacement.  Each pair is redrawn independently, so
    duplicates across draws are allowed.  Deterministic given seed; the
    SAME class is drawn first.
    """
    ids = np.asarray(location_ids, dtype=np.int64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ids.size < 2:
        raise ValueError(f"need at least 2 locations to draw DIFF pairs, got {ids.size}")
    e = ms.n_estimates
    rows = np.array([ms.index_of(int(i)) for i in ids])
    rng = np.random.default_rng(seed)
    # SAME: location, then estimates; DIFF: locations, then estimates
    n_same = rng.integers(0, ids.size, size=k)
    ja, jb = _draw_distinct_pairs(rng, e, k)
    na, nb = _draw_distinct_pairs(rng, ids.size, k)
    jda, jdb = _draw_distinct_pairs(rng, e, k)
    na, nb = np.concatenate([n_same, na]), np.concatenate([n_same, nb])
    ja, jb = np.concatenate([ja, jda]), np.concatenate([jb, jdb])
    return PairSet(
        first=ms.values[rows[na], ja],
        second=ms.values[rows[nb], jb],
        location_a=ids[na],
        location_b=ids[nb],
        estimate_a=ja,
        estimate_b=jb,
        k_per_class=k,
    )


def split_sizes(l_used: int, train_fraction: float) -> tuple[int, int]:
    """(train, validation) location counts of a split of ``l_used`` locations:
    round(train_fraction * l_used) (ties round up) and the rest."""
    n_train = int(math.floor(train_fraction * l_used + 0.5))
    return n_train, l_used - n_train


def split_locations(
    ms: MeasurementSet, l_used: int, train_fraction: float, seed: int
) -> LocationSplit:
    """Pick l_used locations at random and partition them train/validation.

    The part sizes are :func:`split_sizes`; the remaining L - l_used
    locations form the test part.  Deterministic given seed.
    """
    l_total = ms.n_locations
    if not 2 <= l_used <= l_total:
        raise ValueError(f"l_used must be in [2, {l_total}], got {l_used}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train, n_val = split_sizes(l_used, train_fraction)
    if n_train < 1 or n_val < 1:
        raise ValueError(
            f"infeasible split: l_used={l_used}, train_fraction={train_fraction} "
            f"gives {n_train} train / {n_val} validation locations"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(ms.location_ids, size=l_used, replace=False)
    test = np.setdiff1d(ms.location_ids, chosen)
    return LocationSplit(
        train_ids=chosen[:n_train].copy(),
        val_ids=chosen[n_train:].copy(),
        test_ids=np.sort(test),
    )


def select_features(ms: MeasurementSet, channel_ids) -> MeasurementSet:
    """Project the corpus onto an ordered subset of receiver channels."""
    ids = np.asarray(channel_ids, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("channel subset must be nonempty")
    if np.unique(ids).size != ids.size:
        raise ValueError("channel ids must be distinct")
    if ids.min() < 0 or ids.max() >= ms.n_features:
        raise ValueError(
            f"channel id out of range: valid ids are 0..{ms.n_features - 1}, got {ids.tolist()}"
        )
    return MeasurementSet(
        values=ms.values[:, :, ids].copy(),
        location_ids=ms.location_ids.copy(),
        coordinates=None if ms.coordinates is None else ms.coordinates.copy(),
    )


# Measurement files are UTF-8 CSV: header `location_id,estimate_id,feat_0,...`,
# one row per (location, estimate).  Features are written with 17 significant
# digits so that save -> load round-trips float64 bit-exactly.
_FLOAT_FMT = "%.16e"
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def save_measurements(ms: MeasurementSet, path, coords_path=None) -> None:
    if coords_path is not None and ms.coordinates is None:
        raise ValueError("measurement set has no coordinates to save")
    m = ms.n_features
    row = ",".join(["%d,%d"] + [_FLOAT_FMT] * m)
    locs = ms.location_ids.tolist()
    rows = (row % (loc, j, *f) for loc, fs in zip(locs, ms.values.tolist()) for j, f in enumerate(fs))
    _write_lines(path, "location_id,estimate_id," + ",".join(f"feat_{i}" for i in range(m)), rows)
    if coords_path is not None:
        crow = ",".join(["%d"] + [_FLOAT_FMT] * 3)
        xyz = ms.coordinates.tolist()
        _write_lines(coords_path, "location_id,x,y,z", (crow % (n, *p) for n, p in zip(locs, xyz)))


def load_measurements(path, coords_path=None) -> MeasurementSet:
    """Parse and validate a measurement CSV; errors carry row/column info."""
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[:2] != ["location_id", "estimate_id"]:
        raise DataFormatError(f"{path}: bad header {lines[0]!r}")
    m = len(header) - 2
    if m < 1 or header[2:] != [f"feat_{i}" for i in range(m)]:
        raise DataFormatError(f"{path}: bad feature columns in header")

    index: dict[int, int] = {}  # location id -> location index, in file order
    seen: set[tuple[int, int]] = set()
    loc_index, est_ids, feats = [], [], []
    for row_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != m + 2:
                raise ValueError(f"expected {m + 2} columns, found {len(cells)}")
            loc, est = int(cells[0]), int(cells[1])
            if not _INT64_MIN <= loc <= _INT64_MAX:
                raise ValueError(f"location id {loc} does not fit in 64 bits")
            row = [float(c) for c in cells[2:]]
            if not all(map(math.isfinite, row)):
                col = [math.isfinite(v) for v in row].index(False)
                raise ValueError(f"non-finite value in feat_{col}")
            if (loc, est) in seen:
                raise ValueError(f"duplicate (location {loc}, estimate {est})")
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {row_no}: {exc}") from exc
        seen.add((loc, est))
        loc_index.append(index.setdefault(loc, len(index)))
        est_ids.append(est)
        feats.append(row)

    e_counts = np.unique(np.bincount(loc_index)).tolist()
    if len(e_counts) != 1:
        raise DataFormatError(f"{path}: locations have inconsistent estimate counts {e_counts}")
    e = e_counts[0]
    if e < 2:
        raise DataFormatError(f"{path}: need at least 2 estimates per location, found {e}")
    # each location holds e distinct estimate ids: they are 0..e-1 unless one is out of range
    order = list(index)
    bad = [n for n, j in zip(loc_index, est_ids) if not 0 <= j < e]
    if bad:
        raise DataFormatError(f"{path}: location {order[min(bad)]}: estimate ids must be 0..{e - 1}")
    values = np.empty((len(order), e, m))
    values[loc_index, est_ids] = feats

    coordinates = None
    if coords_path is not None:
        coordinates = _load_coordinates(coords_path, order)
    return MeasurementSet(
        values=values,
        location_ids=np.asarray(order, dtype=np.int64),
        coordinates=coordinates,
    )


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, without their line ends."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _write_lines(path, header: str, rows) -> None:
    """Write ``header``, then each string of ``rows``, one UTF-8 line each."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def _load_coordinates(path, location_order: list[int]) -> np.ndarray:
    """The (x, y, z) row of each location, in ``location_order``; a row
    with a non-finite coordinate or a repeated location id is refused."""
    lines = [ln.strip() for ln in _read_lines(path) if ln.strip()]
    if not lines or lines[0] != "location_id,x,y,z":
        raise DataFormatError(f"{path}: bad coordinates header")
    coords: dict[int, list[float]] = {}
    for row_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != 4:
                raise ValueError("expected 4 columns")
            loc, xyz = int(cells[0]), [float(c) for c in cells[1:]]
            if not all(map(math.isfinite, xyz)):
                raise ValueError(f"non-finite coordinate in {cells[1:]}")
            if loc in coords:
                raise ValueError(f"repeated location id {loc}")
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {row_no}: {exc}") from exc
        coords[loc] = xyz
    missing = [loc for loc in location_order if loc not in coords]
    if missing:
        raise DataFormatError(f"{path}: missing coordinates for locations {missing}")
    return np.array([coords[loc] for loc in location_order])
