"""Run the benchmark over several seeds and append every record to one file.

    python3 bench/collect.py --out runs.jsonl --seeds 1-10
    python3 bench/collect.py --out traced.jsonl --seeds 0,0 --trace 1

Workloads default to every workload in BENCHMARK.json; every run lasts its
``run_seconds``.  Runs are sequential, one process at a time, so
they do not compete for cores.  Summarize the file, or compare two, with
``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seeds", default="1-10", type=parse_seeds)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = p.parse_args(argv)

    status = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace), "--out", str(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed} exit {proc.returncode}: {last[0][:160]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
