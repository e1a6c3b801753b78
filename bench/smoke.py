"""Fast self-check of the benchmark itself.

    python3 bench/smoke.py    # tiny sizes, about a minute

For every workload, including ``sweep_dnnc`` which BENCHMARK.json leaves
out, it checks that:

* an untraced run is correct and emits exactly the end-to-end metrics of
  BENCHMARK.json, with their units;
* two traced runs at one seed emit exactly the per-layer metrics, give
  identical exact counts, and give the untraced run's output digest;
* a run whose first op output is deliberately corrupted counts that op as
  failed and is not correct.

It also checks that in a directory holding only BENCHMARK.json and the
benchmark's files the run fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from compare import EXACT_COUNTS
from run import WORKLOAD_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def run(root: Path, workload: str, trace: int, *extra: str):
    """(exit code, record, result) of one run; record/result are None when absent."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    record = result = None
    try:
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError):
        pass
    return proc.returncode, record, result


def metric_names_ok(result, wanted) -> bool:
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    numbers = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    return got == {m["name"]: m["unit"] for m in wanted} and numbers


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    failures = 0

    def report(name: str, ok: bool) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}", flush=True)

    for w in WORKLOAD_NAMES:
        code, record, result = run(ROOT, w, 0)
        report(f"{w}: untraced run correct, end-to-end names and units",
               code == 0 and metric_names_ok(result, spec["end_to_end"])
               and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1)
        traced = [run(ROOT, w, 1) for _ in range(2)]
        report(f"{w}: traced runs correct, per-layer names and units",
               all(c == 0 and metric_names_ok(res, spec["per_layer"]) and res["correct"]
                   for c, _, res in traced))
        if all(res is not None for _, _, res in traced):
            a, b = (res["metrics"] for _, _, res in traced)
            report(f"{w}: exact counts identical across two traced runs",
                   all(a[c]["value"] == b[c]["value"] for c in EXACT_COUNTS))
        if record is not None:
            report(f"{w}: tracing leaves the output digest unchanged",
                   all(rec is not None and rec["digest"] == record["digest"] for _, rec, _ in traced))
        code, _, result = run(ROOT, w, 0, "--corrupt")
        report(f"{w}: corrupted output counted as a failed op",
               code == 0 and result is not None and result["failed"] >= 1 and not result["correct"])

    bare = BENCH / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, _, result = run(bare, WORKLOAD_NAMES[0], 0)
    report("without the package source the run fails and prints no result",
           code != 0 and result is None)
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
