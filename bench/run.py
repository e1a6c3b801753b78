"""Run one rssdetect benchmark workload and print its metrics.

    python3 bench/run.py --workload decide_stream --seed 1 --seconds 30 --trace 0

Run from a source checkout: the package is imported from ``src/`` next
to this directory, and the run fails without printing a result when it is
missing.  The workload is a one-process closed loop: after set-up, ops
run back to back for ``--seconds`` (and at least the workload's fixed
prefix of ops), each op's output is checked, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` the calls into each
layer are timed and the metrics are the per-layer ones.  The line before
it is the full record: environment header, output digest, fail-closed
probe, op p90 and error rate.  ``--out FILE`` appends that record to a
JSON-lines file for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("sweep_dnnc", "campaign_baselines", "decide_stream")
PROBE_OP = -2  # op id of the fail-closed probe's spans


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny runs every workload at toy sizes (smoke check)")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt the first op's output before its check (smoke check)")
    p.add_argument("--out", type=Path, help="append the full record to this JSON-lines file")
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """BLAS threads: the caller's setting, capped at the usable cores; set before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    try:
        threads = min(max(int(os.environ["OPENBLAS_NUM_THREADS"]), 1), cores)
    except (KeyError, ValueError):
        threads = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state():
    """(commit, dirty) of the checkout, or (None, None) outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        if commit.returncode != 0:
            return None, None
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return commit.stdout.strip(), bool(status.stdout.strip())


def environment(np, threads: int, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, dirty = git_state()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


def run(args) -> int:
    if not (SRC / "rssdetect" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'rssdetect'}; run from an rssdetect checkout",
              file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import rssdetect

    if Path(rssdetect.__file__).resolve().parent != SRC / "rssdetect":
        print(f"error: imported rssdetect from {rssdetect.__file__}, not {SRC}", file=sys.stderr)
        return 2
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, threads, child_env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, threads: int, child_env: dict, workdir: Path) -> int:
    import numpy as np
    import workloads
    from tracer import Tracer, layer_metrics, unit_of

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir, child_env)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    # Untraced runs repeat the set-up at even steps through the op window, so
    # setup_s, their median, samples the machine's speed over the whole run
    # rather than over its first seconds.  Set-ups are deterministic (their
    # outputs must be identical), so repeating one leaves the ops' inputs as
    # they were.
    repeats = 1 if tracer else wl.setup_repeats
    setup_times, setup_blobs = [], []

    def set_up():
        t0 = time.perf_counter()
        setup_blobs.append(wl.setup())
        setup_times.append(time.perf_counter() - t0)

    set_up()
    latencies, chunks, accuracy = [], [setup_blobs[0]], []
    failed = 0
    window_s = 0.0  # wall time of the op loop, set-ups excluded
    i = 0
    while i < wl.prefix or window_s < args.seconds:
        if len(setup_times) < repeats and window_s >= args.seconds * len(setup_times) / repeats:
            set_up()
        start = time.perf_counter()
        if tracer:
            tracer.op, tracer.counting = i, i < wl.prefix
        t0 = time.perf_counter()
        out = wl.op(i)
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.active = False
        if args.corrupt and i == 0:
            out = wl.corrupt(out)
        res = wl.check(i, out)
        if tracer:
            tracer.active = True
        failed += not res.ok
        if i < wl.prefix:
            chunks.append(res.digest_bytes)
            accuracy.extend(res.accuracy)
        i += 1
        window_s += time.perf_counter() - start
    while len(setup_times) < repeats:
        set_up()
    setup_ok = all(b == setup_blobs[0] for b in setup_blobs)

    probe_attempted = probe_failed = 0
    if hasattr(wl, "probe"):
        if tracer:
            tracer.op, tracer.counting = PROBE_OP, True
        probe_attempted, probe_failed = wl.probe()

    ops = len(latencies)
    ops_per_s = ops / sum(latencies)
    if tracer:
        metrics = layer_metrics(tracer, wl.prefix)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "accuracy": statistics.fmean(accuracy),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": setup_ok and failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "env": environment(np, threads, args.seed),
        "ops": ops,
        "prefix_ops": wl.prefix,
        "window_s": window_s,
        "ops_per_s": ops_per_s,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3 if ops >= 100 else None,
        "op_ms": [t * 1e3 for t in latencies] if ops < 100 else None,
        "setup_times_s": setup_times,
        "setup_deterministic": setup_ok,
        "digest": workloads.digest(chunks),
        "probe": {"attempted": probe_attempted, "failed": probe_failed},
        "error_rate": (failed + probe_failed) / (ops + probe_attempted),
        "counters": dict(tracer.counters) if tracer else None,
        "result": result,
    }
    if tracer:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    line = json.dumps(record)
    print(line)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
