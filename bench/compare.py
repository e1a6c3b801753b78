"""Summarize one set of benchmark records, or compare two.

    python3 bench/compare.py RUNS.jsonl            # spread, overhead, exact counts
    python3 bench/compare.py BASE.jsonl NEW.jsonl  # verdict per workload and metric

Records are the JSON lines ``bench/run.py --out`` appends (``bench/collect.py``
runs many).  End-to-end figures come from untraced records.  Spread is the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median.  Verdicts follow the bounds in
BENCHMARK.json: "better" needs every new run better than every base run,
or at least 90% of paired runs won with the medians further apart than
the base spread; "unresolved" means the spread exceeds the bound;
"worse" means the median moved the wrong way by more than the bound;
anything else is "no worse".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = (
    "neural.train_loop.epochs",
    "neural.flops",
    "benchmarks.lloyd_kmeans.iters",
    "dataset.pairs",
    "signal_model.draw_sample_window.calls",
    "neural.sgd_step.calls",
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_workload(records, trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def value(record, metric: str) -> float:
    return record["result"]["metrics"][metric]["value"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def summarize(records, spec) -> int:
    """Spread of every end-to-end metric against a third of its bound."""
    untraced = by_workload(records, 0)
    traced = by_workload(records, 1)
    too_wide = 0
    print(f"{'workload':20} {'metric':12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  status")
    for wl, runs in untraced.items():
        for m in spec["end_to_end"]:
            vals = [value(r, m["name"]) for r in runs]
            q1, q2, q3 = quartiles(vals)
            sp = spread(vals)
            if sp <= m["bound"] / 3:
                status = "steady"
            elif sp <= m["bound"]:
                status = "within bound"
            else:
                status = "TOO WIDE"
                too_wide += 1
            print(f"{wl:20} {m['name']:12} {len(vals):3d} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{sp:7.3f} {m['bound']:6.2f}  {status}")
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        probe_f = sum(r["probe"]["failed"] for r in runs)
        probe_a = sum(r["probe"]["attempted"] for r in runs)
        digests = {r["seed"]: r["digest"] for r in runs}
        print(f"{wl:20} ops failed {failed}/{attempted}, probe failed {probe_f}/{probe_a}, "
              f"error_rate {(failed + probe_f) / (attempted + probe_a):.3g}, "
              f"all correct: {all(r['result']['correct'] for r in runs)}, "
              f"digests: {len(set(digests.values()))} distinct over {len(digests)} seeds")
    if traced:
        names = list(traced)
        print(f"\nper-layer medians over traced runs\n{'metric':44}" + "".join(f"{n:>20}" for n in names))
        for m in spec["per_layer"]:
            row = [statistics.median(value(r, m["name"]) for r in traced[n]) for n in names]
            print(f"{m['name'] + ' (' + m['unit'] + ')':44}" + "".join(f"{v:20.6g}" for v in row))
    for wl, runs in traced.items():
        if wl in untraced:
            base = statistics.median(r["ops_per_s"] for r in untraced[wl])
            got = statistics.median(r["ops_per_s"] for r in runs)
            print(f"{wl:20} tracing overhead: traced ops_per_s {got:.6g} vs untraced {base:.6g} "
                  f"({(base / got - 1) * 100:+.1f}% time per op)")
        by_seed: dict[int, list[dict]] = {}
        for r in runs:
            by_seed.setdefault(r["seed"], []).append(r)
        for seed, group in sorted(by_seed.items()):
            if len(group) < 2:
                continue
            same = all(
                all(value(g, c) == value(group[0], c) for c in EXACT_COUNTS) for g in group[1:]
            )
            print(f"{wl:20} exact counts over {len(group)} traced runs at seed {seed}: "
                  f"{'identical' if same else 'DIFFER'}")
            too_wide += not same
    return 1 if too_wide else 0


def verdict(base, new, better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    won = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(base)
    nmed = statistics.median(new)
    worse_by = -sign * (nmed - bmed) / abs(bmed)
    if all(sign * (n - b) > 0 for b in base for n in new):
        return "better", won
    if max(spread(base), spread(new)) > bound:
        return "unresolved", won
    if worse_by > bound:
        return "worse", won
    if won >= 0.9 and sign * (nmed - bmed) > bq3 - bq1:
        return "better", won
    return "no worse", won


def paired(base_runs, new_runs, metric):
    """Values paired by seed where both sets have it, else in run order."""
    new_by_seed = {r["seed"]: r for r in new_runs}
    common = [r for r in base_runs if r["seed"] in new_by_seed]
    if common:
        return [value(r, metric) for r in common], [value(new_by_seed[r["seed"]], metric) for r in common]
    return [value(r, metric) for r in base_runs], [value(r, metric) for r in new_runs]


def compare(base_records, new_records, spec) -> int:
    base = by_workload(base_records, 0)
    new = by_workload(new_records, 0)
    worse = 0
    print(f"{'workload':20} {'metric':12} {'base median [q1, q3]':>36} {'new median [q1, q3]':>36} "
          f"{'change':>8} {'won':>5}  verdict")
    for wl in base:
        if wl not in new:
            print(f"{wl:20} missing from the new set")
            continue
        for m in spec["end_to_end"]:
            b, n = paired(base[wl], new[wl], m["name"])
            bq = quartiles([value(r, m["name"]) for r in base[wl]])
            nq = quartiles([value(r, m["name"]) for r in new[wl]])
            v, won = verdict(b, n, m["better"], m["bound"])
            worse += v == "worse"
            change = (nq[1] - bq[1]) / abs(bq[1])
            print(f"{wl:20} {m['name']:12} {bq[1]:12.6g} [{bq[0]:.5g}, {bq[2]:.5g}]".ljust(70)
                  + f" {nq[1]:12.6g} [{nq[0]:.5g}, {nq[2]:.5g}]".ljust(37)
                  + f" {change:+8.1%} {won:5.2f}  {v}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    if len(argv) == 1:
        return summarize(load_records(argv[0]), spec)
    return compare(load_records(argv[0]), load_records(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
