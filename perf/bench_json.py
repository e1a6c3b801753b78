"""Write bench/compare.py's verdicts on two record files as JSON.

    python3 perf/bench_json.py BASE.jsonl NEW.jsonl > BENCH_<topic>.json

One entry per workload and end-to-end metric of BENCHMARK.json, with the
numbers ``compare.py BASE NEW`` prints: base and new median and
quartiles, the relative change of the median, the share of seed-paired
runs won and the verdict.  Each workload also records its seeds, its
failed and attempted ops, and whether the output digests agree seed by
seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import compare  # noqa: E402


def _quartiles(runs, metric) -> dict:
    q1, median, q3 = compare.quartiles([compare.value(r, metric) for r in runs])
    return {"median": median, "q1": q1, "q3": q3}


def verdicts(base_path, new_path) -> dict:
    spec = compare.load_spec()
    base = compare.by_workload(compare.load_records(base_path), 0)
    new = compare.by_workload(compare.load_records(new_path), 0)
    out = {"base": str(base_path), "new": str(new_path), "workloads": {}}
    for wl in (w for w in base if w in new):
        metrics = {}
        for m in spec["end_to_end"]:
            b, n = compare.paired(base[wl], new[wl], m["name"])
            verdict, won = compare.verdict(b, n, m["better"], m["bound"])
            bq, nq = _quartiles(base[wl], m["name"]), _quartiles(new[wl], m["name"])
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "base": bq, "new": nq, "change": (nq["median"] - bq["median"]) / abs(bq["median"]),
                "pairs": len(b), "won": won, "verdict": verdict,
            }
        new_digest = {r["seed"]: r["digest"] for r in new[wl]}
        out["workloads"][wl] = {
            "seeds": sorted(r["seed"] for r in base[wl]),
            "ops_failed": {side: [sum(r["result"][k] for r in runs[wl]) for k in ("failed", "attempted")]
                           for side, runs in (("base", base), ("new", new))},
            "digests_equal": {str(r["seed"]): r["digest"] == new_digest.get(r["seed"]) for r in base[wl]},
            "metrics": metrics,
        }
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    json.dump(verdicts(sys.argv[1], sys.argv[2]), sys.stdout, indent=2)
    print()
