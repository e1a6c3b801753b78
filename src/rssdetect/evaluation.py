"""Monte Carlo evaluation harness for the detector and its benchmarks.

Two sweeps mirror the headline experiments: test accuracy as a function
of the number of locations available for training, and as a function of
the receiver-channel subset used as features.  Each Monte Carlo
iteration redraws the location split (and pair sets) and retrains every
requested algorithm from scratch; the corpus itself is fixed, like a
real measurement campaign.

Grid point s of a sweep is a (label, corpus, locations used) triple; the
feature sweep projects the corpus on each channel subset once.  Cell
(s, r) is ``run_iteration(corpus, cfg, l_used, derive_seed(S, s, r))``.

Seed contract: with master seed S, the synthetic scenario uses
derive_seed(S, 0), the corpus draws derive_seed(S, 1), and iteration r
at sweep point s (0-based grid index) uses derive_seed(S, s, r).
Inside an iteration the substreams are derive_seed(iter_seed, k) with
k = 0 split, 1 benchmark training pairs, 2 test pairs, 3 detector
training (which spawns its own train/validation pair streams), and
4 k-means.  Paths never collide, so iterations may run in any order (or
concurrently) with identical results; reports reduce raw accuracies in
fixed iteration order for bit-stable output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import benchmarks as bm
from . import detector as det
from .dataset import LocationSplit, MeasurementSet, PairSet
from .dataset import _read_lines, _write_lines, build_pair_set, load_measurements, select_features
from .dataset import split_locations, split_sizes
from .errors import ConfigError, DataFormatError
from .neural import TrainConfig, TrainHistory
from .seeding import derive_seed
from .signal_model import ScenarioConfig, generate_scenario, simulate_measurement_set

# Algorithms selectable in experiments.  The two calibration rules are
# harness checks, not detectors: "always_h1" ignores its input and
# "cheat" reads the true location ids off the pair provenance.
ALGORITHMS = ("dnnc", "dbc1", "dbc2", "kmc")
CALIBRATION_ALGORITHMS = ("always_h1", "cheat")

REPORT_HEADER = "algorithm,sweep_var,sweep_value,mean_accuracy,std_error,iterations"
RAW_HEADER = "algorithm,sweep_var,sweep_value,iteration,accuracy"
HISTORY_HEADER = "epoch,train_loss,val_accuracy"


def default_scenario_config() -> ScenarioConfig:
    """Synthetic campaign mimicking the measured one: 52 locations,
    four 4-antenna receiver groups (16 channels).

    Relative to the plain indoor defaults, the evaluation scenario uses
    lighter shadowing, a higher noise floor, and 2 dB of per-window
    receiver gain drift shared within each antenna group.  With the
    textbook values every algorithm saturates at accuracy 1.0 and the
    sweeps are flat; these settings put the short-window estimates in a
    genuinely noisy regime where the benchmarks measurably trail the
    learned detector, and the shared drift is what makes nearly located
    antennas more informative jointly than distant ones.
    """
    return ScenarioConfig(
        n_locations=52,
        shadowing_std_db=2.5,
        noise_dbm=-82.0,
        gain_drift_std_db=2.0,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; figure-caption values are the defaults."""

    scenario: ScenarioConfig = field(default_factory=default_scenario_config)
    measurements_path: str | None = None  # overrides the synthetic scenario
    algorithms: tuple[str, ...] = ALGORITHMS
    location_grid: tuple[int, ...] = (10, 20, 30, 40, 45, 50)
    feature_subsets: tuple[tuple[int, ...], ...] = (
        (0, 1),
        (0, 4),
        (0, 1, 2, 3),
        (0, 4, 8, 12),
        (0, 1, 2, 3, 4, 5, 6, 7),
        tuple(range(16)),
    )
    locations_used_features: int = 40  # locations per iteration in the feature sweep
    n_samples: int = 16  # N_s
    n_estimates: int = 64  # estimates per location in the synthetic corpus
    k_train: int = 1250
    k_val: int = 150
    k_test: int = 1000
    train_fraction: float = 0.8
    kappa: int = 15
    iterations: int = 20
    master_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        known = set(ALGORITHMS) | set(CALIBRATION_ALGORITHMS)
        for alg in self.algorithms:
            if alg not in known:
                raise ConfigError(f"algorithms: unknown algorithm {alg!r}")
        if not self.algorithms:
            raise ConfigError("algorithms: must request at least one algorithm")
        if self.iterations < 1:
            raise ConfigError(f"iterations: must be >= 1, got {self.iterations}")
        if not self.location_grid:
            raise ConfigError("location_grid: must be nonempty")
        if not self.feature_subsets:
            raise ConfigError("feature_subsets: must be nonempty")
        # a repeated grid point would write two rows under one label
        for name in ("location_grid", "feature_subsets"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name}: repeats an entry in {values}")
        if self.n_samples < 1:
            raise ConfigError(f"n_samples: must be >= 1, got {self.n_samples}")
        if self.n_estimates < 2:
            raise ConfigError(f"n_estimates: must be >= 2, got {self.n_estimates}")
        for name in ("k_train", "k_val", "k_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction: must be in (0, 1), got {self.train_fraction}")
        if self.kappa < 1:
            raise ConfigError(f"kappa: must be >= 1, got {self.kappa}")


@dataclass(frozen=True)
class ReportRow:
    algorithm: str
    sweep_var: str
    sweep_value: str
    mean_accuracy: float
    std_error: float  # NaN when iterations == 1
    iterations: int
    raw_accuracies: tuple[float, ...]


@dataclass(frozen=True)
class EvalReport:
    sweep_var: str
    rows: tuple[ReportRow, ...]


def load_corpus(cfg: ExperimentConfig) -> MeasurementSet:
    """The fixed corpus: loaded from disk, or simulated from the scenario."""
    if cfg.measurements_path is not None:
        return load_measurements(cfg.measurements_path)
    scenario = generate_scenario(cfg.scenario, seed=derive_seed(cfg.master_seed, 0))
    return simulate_measurement_set(
        scenario, cfg.n_estimates, cfg.n_samples, seed=derive_seed(cfg.master_seed, 1)
    )


def fit_rule(
    ms: MeasurementSet, cfg: ExperimentConfig, alg: str, split: LocationSplit,
    train_pairs: PairSet, iter_seed: int,
):
    """Fit one rule of ``ALGORITHMS``: (model, training history or None).

    Seed paths are the module docstring's, under ``iter_seed``.
    """
    if alg == "dnnc":
        return det.train_detector(
            ms, split, cfg.k_train, cfg.k_val, cfg.train, seed=derive_seed(iter_seed, 3)
        )
    if alg in ("dbc1", "dbc2"):
        return bm.train_dbc(train_pairs, 1 if alg == "dbc1" else 2), None
    if alg == "kmc":
        seed = derive_seed(iter_seed, 4)
        return bm.train_kmc(ms, split.train_ids, train_pairs, cfg.kappa, seed=seed), None
    raise ConfigError(f"algorithms: unknown algorithm {alg!r}")


def check_locations_used(
    ms: MeasurementSet, cfg: ExperimentConfig, l_used: int, key: str, n_test: int,
    iter_seeds: list[int], kappa_key: str = "kappa",
) -> None:
    """Refuse a split of ``l_used`` locations that the fit of a rule in
    ``cfg.algorithms`` would die on, naming ``key`` (the key or flag that
    set ``l_used``) or ``kappa_key``.  Each rule draws DIFF pairs, of two
    locations: the split leaves ``n_test`` test locations and gives 2 train
    and 1 validation location, 2 with ``dnnc``; ``kmc`` needs ``cfg.kappa``
    distinct vectors in the train part of the split at each of
    ``iter_seeds``.  A split passes iff :func:`run_iteration` fits on it."""
    top = ms.n_locations - n_test
    if not 2 <= l_used <= top:
        leaving = f", leaving at least {n_test} of {ms.n_locations} to test on" if n_test else ""
        raise ConfigError(f"{key}: {l_used} locations used must be in [2, {top}]{leaving}")
    n_train, n_val = split_sizes(l_used, cfg.train_fraction)
    min_val = 2 if "dnnc" in cfg.algorithms else 1
    if n_train < 2 or n_val < min_val:
        raise ConfigError(
            f"{key}: {l_used} locations used with train_fraction = {cfg.train_fraction} "
            f"give {n_train} train / {n_val} validation locations; {','.join(cfg.algorithms)} "
            f"need at least 2 / {min_val}"
        )
    if "kmc" not in cfg.algorithms:
        return
    # a train part's n_train * E vectors are distinct but for the corpus' repeated
    # rows; on finite rows, + 0.0 makes these equal where lloyd_kmeans' np.unique does
    rows = ms.values.reshape(-1, ms.n_features)
    n_repeats = len(rows) - len(bm._distinct_rows(rows + 0.0)[0])
    for iter_seed in iter_seeds if cfg.kappa > n_train * ms.n_estimates - n_repeats else ():
        train_ids = training_split(ms, cfg, l_used, iter_seed)[0].train_ids
        x = ms.values[np.isin(ms.location_ids, train_ids)].reshape(-1, ms.n_features)
        n_distinct = np.unique(x, axis=0).shape[0]  # as lloyd_kmeans counts them
        if cfg.kappa > n_distinct:
            distinct = f", {n_distinct} of them distinct" if n_distinct < len(x) else ""
            raise ConfigError(
                f"{kappa_key}: {cfg.kappa} centroids need as many training vectors, but {l_used} "
                f"locations used give {n_train} train locations x {ms.n_estimates} estimates = "
                f"{len(x)}{distinct}"
            )


def training_split(
    ms: MeasurementSet, cfg: ExperimentConfig, l_used: int, iter_seed: int
) -> tuple[LocationSplit, PairSet]:
    """The location split (seed path k = 0) of ``l_used`` locations and the
    benchmark training pairs (k = 1) of the iteration at ``iter_seed``."""
    split = split_locations(ms, l_used, cfg.train_fraction, seed=derive_seed(iter_seed, 0))
    train_pairs = build_pair_set(ms, split.train_ids, cfg.k_train, seed=derive_seed(iter_seed, 1))
    return split, train_pairs


def run_iteration(
    ms: MeasurementSet, cfg: ExperimentConfig, l_used: int, iter_seed: int
) -> dict[str, float]:
    """Split ``l_used`` locations, build pairs, train every requested
    algorithm, and score it on the test pairs."""
    split, train_pairs = training_split(ms, cfg, l_used, iter_seed)
    test_pairs = build_pair_set(ms, split.test_ids, cfg.k_test, seed=derive_seed(iter_seed, 2))

    out: dict[str, float] = {}
    for alg in cfg.algorithms:
        if alg == "always_h1":
            got_h1 = np.ones(len(test_pairs), dtype=bool)
        elif alg == "cheat":
            # provenance oracle: reads the true location ids, so it is
            # always right; a harness upper-bound check
            got_h1 = test_pairs.location_a != test_pairs.location_b
        else:
            model, _ = fit_rule(ms, cfg, alg, split, train_pairs, iter_seed)
            got_h1 = model.statistic_batch(test_pairs.first, test_pairs.second) > 0.0
        out[alg] = float(np.count_nonzero(got_h1 == test_pairs.labels) / len(test_pairs))
    return out


def _sweep(cfg: ExperimentConfig, sweep_var: str, key: str, points) -> EvalReport:
    """Every cell of a grid of (label, corpus, locations used) points;
    ``key`` is the config key that set the locations used."""
    points = list(points)
    for s, (_, ms, l_used) in enumerate(points):  # before any fit
        seeds = [derive_seed(cfg.master_seed, s, r) for r in range(cfg.iterations)]
        check_locations_used(ms, cfg, l_used, key, n_test=2, iter_seeds=seeds)
    rows = []
    for s, (label, ms, l_used) in enumerate(points):
        per_alg: dict[str, list[float]] = {alg: [] for alg in cfg.algorithms}
        for r in range(cfg.iterations):
            accs = run_iteration(ms, cfg, l_used, derive_seed(cfg.master_seed, s, r))
            for alg in cfg.algorithms:
                per_alg[alg].append(accs[alg])
        for alg in cfg.algorithms:
            raw = np.asarray(per_alg[alg])
            stderr = (
                float(raw.std(ddof=1) / np.sqrt(raw.size)) if raw.size > 1 else float("nan")
            )
            rows.append(
                ReportRow(
                    algorithm=alg,
                    sweep_var=sweep_var,
                    sweep_value=label,
                    mean_accuracy=float(raw.mean()),
                    std_error=stderr,
                    iterations=raw.size,
                    raw_accuracies=tuple(float(a) for a in raw),
                )
            )
    return EvalReport(sweep_var=sweep_var, rows=tuple(rows))


def sweep_locations(cfg: ExperimentConfig) -> EvalReport:
    """Accuracy versus number of locations available for training."""
    ms = load_corpus(cfg)
    return _sweep(cfg, "locations", "location_grid", ((str(l), ms, l) for l in cfg.location_grid))


def sweep_features(cfg: ExperimentConfig) -> EvalReport:
    """Accuracy versus receiver-channel subset, at a fixed location count."""
    ms = load_corpus(cfg)
    points = (
        ("+".join(map(str, s)), select_features(ms, s), cfg.locations_used_features)
        for s in cfg.feature_subsets
    )
    return _sweep(cfg, "features", "locations_used_features", points)


def emit_report(report: EvalReport, path, raw_path=None) -> None:
    """Write the summary CSV; optionally the per-iteration raw CSV."""
    _write_lines(path, REPORT_HEADER, (
        f"{row.algorithm},{row.sweep_var},{row.sweep_value},"
        f"{row.mean_accuracy!r},{row.std_error!r},{row.iterations}"
        for row in report.rows
    ))
    if raw_path is not None:
        _write_lines(raw_path, RAW_HEADER, (
            f"{row.algorithm},{row.sweep_var},{row.sweep_value},{r},{acc!r}"
            for row in report.rows
            for r, acc in enumerate(row.raw_accuracies)
        ))


def _unit_interval(what: str, text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} {text!r} outside [0, 1]")
    return value


def _parse_rows(path, header: str, parse) -> list:
    """``parse(*cells)`` of each data row; a wrong header or cell count, an
    algorithm (the first cell) no sweep runs, a second ``sweep_var`` (the
    second cell), a ``ValueError`` from ``parse`` or non-UTF-8 bytes raise
    ``DataFormatError``."""
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if not lines or lines[0] != header:
        raise DataFormatError(f"{path}: bad header, expected {header!r}")
    n_cells = header.count(",") + 1
    out, sweep_var = [], None
    for row_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != n_cells:
                raise ValueError(f"expected {n_cells} columns, found {len(cells)}")
            if cells[0] not in ALGORITHMS + CALIBRATION_ALGORITHMS:
                raise ValueError(f"unknown algorithm {cells[0]!r}")
            if sweep_var is None:
                sweep_var = cells[1]
            elif cells[1] != sweep_var:
                raise ValueError(f"sweep_var {cells[1]!r} after {sweep_var!r}; a file holds one sweep")
            out.append(parse(*cells))
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {row_no}: {exc}") from exc
    return out


def read_report(path) -> list[ReportRow]:
    """Parse a summary CSV back into rows (raw accuracies not included).

    Besides the checks of every report reader, a row is refused unless
    its mean accuracy lies in [0, 1], it counts at least one iteration,
    and its std_error is NaN at exactly one iteration and finite and
    >= 0 otherwise.
    """
    def parse(alg, var, value, mean, stderr, iters):
        iterations, std_error = int(iters), float(stderr)
        if iterations < 1:
            raise ValueError(f"iterations {iters!r} < 1")
        if iterations == 1 and not math.isnan(std_error):
            raise ValueError(f"std_error {stderr!r} of one iteration is not nan")
        if iterations > 1 and not 0.0 <= std_error < math.inf:
            raise ValueError(f"std_error {stderr!r} of {iterations} iterations is not finite >= 0")
        return ReportRow(
            alg, var, value, _unit_interval("mean_accuracy", mean), std_error, iterations,
            raw_accuracies=(),
        )

    return _parse_rows(path, REPORT_HEADER, parse)


def read_report_raw(path) -> dict[tuple[str, str], list[float]]:
    """Parse a raw CSV into {(algorithm, sweep_value): [accuracy per iteration]};
    each group's iterations must run 0, 1, ..., R-1 in order and every
    accuracy lie in [0, 1]."""
    out: dict[tuple[str, str], list[float]] = {}

    def parse(alg, _var, value, r, acc):
        acc = _unit_interval("accuracy", acc)
        accs = out.setdefault((alg, value), [])
        if r != str(len(accs)):
            raise ValueError(f"iteration {r!r} where {len(accs)} is next")
        accs.append(acc)

    _parse_rows(path, RAW_HEADER, parse)
    return out


def emit_history(history: TrainHistory, path) -> None:
    """Write a per-epoch training history CSV."""
    _write_lines(path, HISTORY_HEADER, (
        f"{epoch},{loss!r},{acc!r}"
        for epoch, (loss, acc) in enumerate(zip(history.train_loss, history.val_accuracy))
    ))


def with_scenario(cfg: ExperimentConfig, **scenario_fields) -> ExperimentConfig:
    """Convenience: replace scenario fields inside an experiment config."""
    return replace(cfg, scenario=replace(cfg.scenario, **scenario_fields))
