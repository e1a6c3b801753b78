"""Span tracing of the rssdetect layers, installed from outside the package.

Each public function of each layer module is replaced, at every module
attribute that refers to it, by a wrapper that records a span: its name,
start, end, parent span and op id.  Calls between layers (for example
``detector`` -> ``neural.forward_cached``) are therefore timed too, while
the package source stays unchanged.  Spans are kept in memory, in flat
arrays, and written out once at the end of a run.

Self time is a span's duration minus the time its direct child spans
cover.  Calls run on one thread, so children never overlap and that time
is the sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("signal_model", "dataset", "neural", "detector", "benchmarks", "evaluation", "modelio")

SETUP_OP = -1  # op id of spans recorded during set-up


def _dense_flops(sizes, rows: int) -> int:
    """Multiply-add flops of one forward pass through (in, out) layers."""
    return sum(2 * rows * a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) == 1 else int(shape[0])


# Counters recorded at layer boundaries, from a call's arguments or result.
# Each hook returns {counter name: increment}.
def _hook_forward(args, kwargs, result):
    rows = _rows(args[1])
    return {"neural.forward.rows": rows, "neural.flops": _dense_flops(args[0].layer_sizes, rows)}


def _hook_forward_cached(args, kwargs, result):
    return {"neural.flops": _dense_flops(args[0].layer_sizes, _rows(args[1]))}


def _hook_backward_from_cache(args, kwargs, result):
    sizes = args[0].layer_sizes
    rows = _rows(args[2])
    # weight gradients of every layer, plus the delta passed back through
    # every layer but the first
    return {"neural.flops": 2 * _dense_flops(sizes, rows) - _dense_flops(sizes[:2], rows)}


def _hook_train_loop(args, kwargs, result):
    history = result[1]
    kept = history.best_epoch() + 1
    return {
        "neural.train_loop.epochs": history.n_epochs,
        "neural.train_loop.wasted_epochs": history.n_epochs - kept,
    }


def _hook_lloyd(args, kwargs, result):
    return {"benchmarks.lloyd_kmeans.iters": len(result.wcss_history) - 1}


def _hook_statistic_batch(args, kwargs, result):
    return {"detector.statistic_batch.pairs": _rows(args[1])}


def _hook_build_pair_set(args, kwargs, result):
    return {"dataset.pairs": len(result)}


def _hook_save_measurements(args, kwargs, result):
    return {"dataset.csv_bytes": Path(args[1]).stat().st_size}


def _hook_save_model(args, kwargs, result):
    return {"modelio.model_bytes": Path(args[1]).stat().st_size}


HOOKS = {
    "neural.forward": _hook_forward,
    "neural.forward_cached": _hook_forward_cached,
    "neural.backward_from_cache": _hook_backward_from_cache,
    "neural.train_loop": _hook_train_loop,
    "benchmarks.lloyd_kmeans": _hook_lloyd,
    "detector.statistic_batch": _hook_statistic_batch,
    "dataset.build_pair_set": _hook_build_pair_set,
    "dataset.save_measurements": _hook_save_measurements,
    "modelio.save_model": _hook_save_model,
}


class Tracer:
    """Records spans and counters for the calls into the layer modules.

    ``op`` is the id stamped on new spans; the benchmark sets it before
    each op.  Counters only accumulate while ``counting`` is true, so that
    they cover a fixed amount of work.  ``active`` false passes calls
    straight through (used around the benchmark's own output checks).
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.op = SETUP_OP
        self.counting = True
        self.active = True
        self._stack: list[tuple[int, int]] = []  # (span index, layer index)

    def install(self, package: str = "rssdetect") -> None:
        """Wrap every public function of every layer module, everywhere it is bound."""
        wrapped = {}
        for layer_idx, layer in enumerate(LAYERS):
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[obj] = self._wrap(obj, f"{layer}.{attr}", layer_idx)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def _wrap(self, fn, name: str, layer_idx: int):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            parent, parent_layer = stack[-1] if stack else (-1, -1)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append((idx, layer_idx))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent_layer != layer_idx:
                    self.errors[LAYERS[layer_idx]] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
            if hook is not None and self.counting:
                for key, inc in hook(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + inc
            return result

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span, with the name table, as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def span_totals(self, max_op: int) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive and self seconds over set-up and ops < max_op."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        keep = a["op"] < max_op
        n = len(self.names)
        calls = np.bincount(a["name"][keep], minlength=n)
        incl = np.bincount(a["name"][keep], weights=dur[keep], minlength=n)
        excl = np.bincount(a["name"][keep], weights=self_time[keep], minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
            for i, name in enumerate(self.names)
        }


END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "accuracy": "ratio",
    "peak_rss_mb": "MB",
}

_SUFFIX_UNITS = (
    (".self_s", "s"),
    (".s", "s"),
    ("_frac", "ratio"),
    ("gflops_per_s", "GFLOP/s"),
    ("_per_s", "1/s"),
    ("flops", "flop"),
    ("_bytes", "B"),
)


def unit_of(name: str) -> str:
    """Unit of a metric: end-to-end by name, per-layer by suffix, else a count."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(tracer: Tracer, max_op: int) -> dict[str, float]:
    """The per-layer metrics, in BENCHMARK.json order, over set-up and ops < max_op."""
    t = tracer.span_totals(max_op)
    c = tracer.counters

    def s(name):
        return t[name]["s"]

    def self_s(name):
        return t[name]["self_s"]

    def calls(name):
        return t[name]["calls"]

    epochs = c.get("neural.train_loop.epochs", 0)
    matmul_s = (
        self_s("neural.forward_cached")
        + self_s("neural.backward_from_cache")
        + self_s("neural.forward")
    )
    flops = c.get("neural.flops", 0)
    synth_s = s("signal_model.simulate_measurement_set")
    return {
        "neural.forward_cached.self_s": self_s("neural.forward_cached"),
        "neural.backward_from_cache.self_s": self_s("neural.backward_from_cache"),
        "neural.sgd_step.self_s": self_s("neural.sgd_step"),
        "neural.sgd_step.calls": calls("neural.sgd_step"),
        "neural.forward.self_s": self_s("neural.forward"),
        "neural.forward.rows": c.get("neural.forward.rows", 0),
        "neural.train_loop.self_s": self_s("neural.train_loop"),
        "neural.train_loop.epochs": epochs,
        "neural.train_loop.wasted_epoch_frac": (
            c.get("neural.train_loop.wasted_epochs", 0) / epochs if epochs else 0.0
        ),
        "neural.flops": flops,
        "neural.gflops_per_s": flops / matmul_s / 1e9 if matmul_s > 0 else 0.0,
        "neural.errors": tracer.errors["neural"],
        "detector.train_detector.self_s": self_s("detector.train_detector"),
        "detector.statistic_batch.s": s("detector.statistic_batch"),
        "detector.statistic_batch.pairs": c.get("detector.statistic_batch.pairs", 0),
        "detector.decide.self_s": self_s("detector.decide"),
        "detector.decide.calls": calls("detector.decide"),
        "detector.errors": tracer.errors["detector"],
        "signal_model.simulate_measurement_set.s": synth_s,
        "signal_model.estimate_rss_vector.self_s": self_s("signal_model.estimate_rss_vector"),
        "signal_model.draw_sample_window.self_s": self_s("signal_model.draw_sample_window"),
        "signal_model.draw_sample_window.calls": calls("signal_model.draw_sample_window"),
        "signal_model.estimate_rss.self_s": self_s("signal_model.estimate_rss"),
        "signal_model.windows_per_s": (
            calls("signal_model.draw_sample_window") / synth_s if synth_s > 0 else 0.0
        ),
        "signal_model.errors": tracer.errors["signal_model"],
        "benchmarks.train_kmc.s": s("benchmarks.train_kmc"),
        "benchmarks.lloyd_kmeans.self_s": self_s("benchmarks.lloyd_kmeans"),
        "benchmarks.lloyd_kmeans.iters": c.get("benchmarks.lloyd_kmeans.iters", 0),
        "benchmarks.train_dbc.s": s("benchmarks.train_dbc"),
        "benchmarks.tune_threshold.self_s": self_s("benchmarks.tune_threshold"),
        "benchmarks.kmc_statistic_batch.s": s("benchmarks.kmc_statistic_batch"),
        "benchmarks.dbc_statistic_batch.s": s("benchmarks.dbc_statistic_batch"),
        "benchmarks.decide_dbc.s": s("benchmarks.decide_dbc"),
        "benchmarks.decide_kmc.s": s("benchmarks.decide_kmc"),
        "benchmarks.errors": tracer.errors["benchmarks"],
        "dataset.split_locations.s": s("dataset.split_locations"),
        "dataset.build_pair_set.s": s("dataset.build_pair_set"),
        "dataset.pairs": c.get("dataset.pairs", 0),
        "dataset.save_measurements.s": s("dataset.save_measurements"),
        "dataset.load_measurements.s": s("dataset.load_measurements"),
        "dataset.csv_bytes": c.get("dataset.csv_bytes", 0),
        "dataset.errors": tracer.errors["dataset"],
        "evaluation.run_iteration.self_s": self_s("evaluation.run_iteration"),
        "evaluation.load_corpus.s": s("evaluation.load_corpus"),
        "evaluation.iterations": calls("evaluation.run_iteration"),
        "evaluation.errors": tracer.errors["evaluation"],
        "modelio.save_model.s": s("modelio.save_model"),
        "modelio.load_model.s": s("modelio.load_model"),
        "modelio.decide_any.self_s": self_s("modelio.decide_any"),
        "modelio.model_bytes": c.get("modelio.model_bytes", 0),
        "modelio.errors": tracer.errors["modelio"],
    }
