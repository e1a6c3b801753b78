"""The three benchmark workloads, each a one-client closed loop.

A workload has a set-up, an op and a check of each op's output.  Every
input is derived from the workload seed: op ``i`` uses
``derive_seed(seed, 100 + i)`` and set-up uses small fixed paths.  Ops
``0 .. prefix-1`` are the fixed prefix that accuracy, the output digest
and the traced per-layer numbers are computed over, so those depend on
the seed alone, never on how many ops fit in the time window.

Each workload takes a size: "full" is what the benchmark measures,
"tiny" runs in seconds for the smoke check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from rssdetect import benchmarks as bm
from rssdetect import dataset as ds
from rssdetect import detector as det
from rssdetect import evaluation as ev
from rssdetect import modelio
from rssdetect import signal_model as sm
from rssdetect.neural import TrainConfig
from rssdetect.seeding import derive_seed

TINY_SCENARIO = dict(n_locations=14)
TINY_TRAIN = TrainConfig(hidden_sizes=(8, 8), max_epochs=3, patience=3)
CAMPAIGN_ESTIMATES = 8  # per location in each campaign_baselines campaign


def op_seed(seed: int, i: int) -> int:
    return derive_seed(seed, 100 + i)


def import_package(env: dict) -> None:
    """Import rssdetect in a fresh interpreter, as every CLI command does."""
    subprocess.run([sys.executable, "-c", "import rssdetect"], env=env, check=True, timeout=120)


def generate_cli(env: dict, seed: int, path: Path, *extra: str) -> bytes:
    """Run ``rssdetect generate`` in a fresh interpreter; return the CSV it wrote."""
    subprocess.run(
        [sys.executable, "-m", "rssdetect.cli", "generate", "--out", str(path), "--seed", str(seed), *extra],
        env=env, check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    return path.read_bytes()


def _accuracies_ok(report, algorithms, grid) -> bool:
    rows = {(r.algorithm, r.sweep_value): r for r in report.rows}
    if len(rows) != len(report.rows) or len(rows) != len(algorithms) * len(grid):
        return False
    for alg in algorithms:
        for value in grid:
            row = rows.get((alg, str(value)))
            if row is None or row.iterations != 1 or len(row.raw_accuracies) != 1:
                return False
            if not (math.isfinite(row.mean_accuracy) and 0.0 <= row.mean_accuracy <= 1.0):
                return False
    return True


def _bit_equal(a, b) -> bool:
    """Bit-exact equality of two models, field by field."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_bit_equal, a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _bit_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    return a == b


def _nan_first_row(report):
    first = replace(report.rows[0], mean_accuracy=math.nan)
    return replace(report, rows=(first, *report.rows[1:]))


def _report_bytes(report) -> bytes:
    return "\n".join(f"{r.algorithm},{r.sweep_value},{r.mean_accuracy!r}" for r in report.rows).encode()


@dataclass
class OpResult:
    ok: bool
    digest_bytes: bytes  # what the op contributes to the output digest
    accuracy: list = field(default_factory=list)  # headline-rule accuracies of this op


class SweepDnnc:
    """One op = one ``sweep_locations`` shaped like acceptance criterion 7,
    at one iteration per grid point, with a fresh master seed."""

    name = "sweep_dnnc"
    prefix = 2
    setup_repeats = 3

    def __init__(self, seed: int, size: str, workdir: Path, env: dict):
        self.seed = seed
        self.env = env
        if size == "full":
            self.cfg = ev.ExperimentConfig(location_grid=(10, 45), iterations=1)
        else:
            self.cfg = ev.with_scenario(
                ev.ExperimentConfig(
                    location_grid=(10, 12), iterations=1, n_estimates=8, k_train=80,
                    k_val=20, k_test=60, kappa=3, train=TINY_TRAIN,
                ),
                **TINY_SCENARIO,
            )

    def setup(self):
        import_package(self.env)
        return b""

    def op(self, i: int):
        return ev.sweep_locations(replace(self.cfg, master_seed=op_seed(self.seed, i)))

    def check(self, i: int, report) -> OpResult:
        ok = _accuracies_ok(report, self.cfg.algorithms, self.cfg.location_grid)
        acc = [r.mean_accuracy for r in report.rows if r.algorithm == "dnnc"]
        return OpResult(ok, _report_bytes(report), acc)

    def corrupt(self, report):
        return _nan_first_row(report)


class CampaignBaselines:
    """One op = synthesize a campaign and save it, as ``generate`` does, then
    a baselines-only sweep over the location grid read back from that file.
    Set-up is one ``rssdetect generate`` command in a fresh interpreter.

    The campaign has the default 52 locations and 16 channels but 8
    estimates per location instead of 64: an op then takes under a second,
    so a run holds dozens of ops and their median passes over the host's
    slow bursts, which a median of the ~8 default-size ops in a run cannot."""

    name = "campaign_baselines"
    prefix = 16
    setup_repeats = 7

    def __init__(self, seed: int, size: str, workdir: Path, env: dict):
        self.seed = seed
        self.env = env
        self.path = workdir / "campaign.csv"
        self.setup_path = workdir / "generated.csv"
        algs = ("dbc1", "dbc2", "kmc")
        if size == "full":
            self.cfg = ev.ExperimentConfig(algorithms=algs, iterations=1, n_estimates=CAMPAIGN_ESTIMATES)
            self.generate_args = ("--estimates", str(CAMPAIGN_ESTIMATES))
        else:
            self.cfg = ev.with_scenario(
                ev.ExperimentConfig(
                    algorithms=algs, location_grid=(6, 10), iterations=1, n_estimates=8,
                    k_train=80, k_test=60, kappa=3,
                ),
                **TINY_SCENARIO,
            )
            self.generate_args = ("--locations", str(TINY_SCENARIO["n_locations"]), "--estimates", "8")
        self.ms = None

    def setup(self):
        return generate_cli(self.env, derive_seed(self.seed, 1), self.setup_path, *self.generate_args)

    def op(self, i: int):
        s = op_seed(self.seed, i)
        cfg = self.cfg
        scenario = sm.generate_scenario(cfg.scenario, seed=derive_seed(s, 0))
        self.ms = sm.simulate_measurement_set(
            scenario, cfg.n_estimates, cfg.n_samples, seed=derive_seed(s, 1)
        )
        ds.save_measurements(self.ms, self.path)
        return ev.sweep_locations(replace(cfg, measurements_path=str(self.path), master_seed=s))

    def check(self, i: int, report) -> OpResult:
        back = ds.load_measurements(self.path)
        ok = (
            np.array_equal(back.values, self.ms.values)
            and np.array_equal(back.location_ids, self.ms.location_ids)
            and _accuracies_ok(report, self.cfg.algorithms, self.cfg.location_grid)
        )
        acc = [r.mean_accuracy for r in report.rows if r.algorithm == "kmc"]
        return OpResult(ok, self.path.read_bytes() + _report_bytes(report), acc)

    def corrupt(self, report):
        """Rewrite the saved file with one value changed."""
        values = self.ms.values.copy()
        values[0, 0, 0] += 1.0
        ds.save_measurements(replace(self.ms, values=values), self.path)
        return report


# Non-finite pairs every decide_stream run sends to all four models.  A
# fail-closed rule raises on each; a Decision coming back is a failure.
PROBE_VALUES = ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, math.nan))


class DecideStream:
    """Online screening with one client: one op = one ``decide_any`` call on
    the DNNC model, over test pairs generated at set-up."""

    name = "decide_stream"
    setup_repeats = 3

    def __init__(self, seed: int, size: str, workdir: Path, env: dict):
        self.seed = seed
        self.env = env
        self.workdir = workdir
        if size == "full":
            # default width; a fixed epoch count keeps set-up work the same
            # at every seed, so set-up time compares across seeds
            self.train = TrainConfig(max_epochs=12, patience=math.inf)
            self.scenario = ev.default_scenario_config()
            self.n_estimates, self.l_used, self.k_train, self.k_val, self.k_test = 64, 40, 1250, 150, 1000
            self.kappa = 15
        else:
            self.train = TINY_TRAIN
            self.scenario = replace(ev.default_scenario_config(), **TINY_SCENARIO)
            self.n_estimates, self.l_used, self.k_train, self.k_val, self.k_test = 8, 10, 80, 20, 20
            self.kappa = 3
        self.prefix = 2 * self.k_test  # every test pair decided once

    def setup(self):
        """Campaign, four fitted models round-tripped through model files, test pairs."""
        import_package(self.env)
        s = self.seed
        scenario = sm.generate_scenario(self.scenario, seed=derive_seed(s, 0))
        ms = sm.simulate_measurement_set(scenario, self.n_estimates, 16, seed=derive_seed(s, 1))
        split = ds.split_locations(ms, self.l_used, 0.8, seed=derive_seed(s, 2))
        dnnc, _ = det.train_detector(ms, split, self.k_train, self.k_val, self.train, seed=derive_seed(s, 3))
        train_pairs = ds.build_pair_set(ms, split.train_ids, self.k_train, seed=derive_seed(s, 4))
        fitted = {
            "dnnc": dnnc,
            "dbc1": bm.train_dbc(train_pairs, 1),
            "dbc2": bm.train_dbc(train_pairs, 2),
            "kmc": bm.train_kmc(ms, split.train_ids, train_pairs, self.kappa, seed=derive_seed(s, 5)),
        }
        self.models = {}
        self.round_trip_ok = True
        blob = b""
        for name, model in fitted.items():
            path = self.workdir / f"{name}.model"
            modelio.save_model(model, path)
            self.models[name] = modelio.load_model(path)
            self.round_trip_ok &= _bit_equal(self.models[name], model)
            blob += path.read_bytes()
        self.pairs = ds.build_pair_set(ms, split.test_ids, self.k_test, seed=derive_seed(s, 6))
        self.expected = det.statistic_batch(self.models["dnnc"], self.pairs.first, self.pairs.second)
        return blob + self.expected.tobytes()

    def op(self, i: int):
        p = i % len(self.pairs)
        return modelio.decide_any(self.models["dnnc"], self.pairs.first[p], self.pairs.second[p])

    def check(self, i: int, decision) -> OpResult:
        p = i % len(self.pairs)
        g = decision.statistic
        ok = (
            self.round_trip_ok
            and math.isclose(g, float(self.expected[p]), rel_tol=1e-9, abs_tol=1e-12)
            and (decision.hypothesis is det.Hypothesis.H1) == (g > 0.0)
        )
        correct = (decision.hypothesis is det.Hypothesis.H1) == bool(self.pairs.labels[p])
        return OpResult(ok, repr(g).encode(), [float(correct)])

    def corrupt(self, decision):
        """Move the statistic away from its true value, keeping its sign."""
        return replace(decision, statistic=2.0 * decision.statistic + math.copysign(1.0, decision.statistic))

    def probe(self):
        """(attempted, failed) over the non-finite probe pairs and all four models."""
        m = self.pairs.first.shape[1]
        attempted = failed = 0
        for model in self.models.values():
            for a, b in PROBE_VALUES:
                f = np.zeros(m)
                f_prime = np.zeros(m)
                f[0], f_prime[0] = a, b
                attempted += 1
                try:
                    modelio.decide_any(model, f, f_prime)
                except Exception:  # any error is a refusal, which is the wanted outcome
                    continue
                failed += 1
        return attempted, failed


WORKLOADS = {w.name: w for w in (SweepDnnc, CampaignBaselines, DecideStream)}


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()
