"""Paired timing of the DNNC statistic: this tree against a parent tree.

    python3 perf/paired_statistic.py PARENT_SRC [--seed 1] [--rounds 40]

PARENT_SRC is the ``src`` directory of another checkout (for example a
``git archive`` of the parent commit).  Its ``rssdetect`` package is
imported as ``parent_rssdetect`` next to this tree's ``rssdetect``, and
both score one shared model object: the DNNC that the decide_stream
workload of ``bench/workloads.py`` fits at ``--seed`` (full size, a few
seconds), on that workload's test pairs.

Each round times two steps in both trees, in an order that alternates
from round to round:

    lone    ``statistic_batch`` on each test pair in turn, per call
    batch   one ``statistic_batch`` call on all the test pairs

and takes the ratio new / parent of each step.  It prints, per step, the
median ratio, its interquartile range and the rounds the new tree won,
after checking that both trees give the same bytes.  Nothing under
``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from lone_pair_split import set_up


def import_parent(src: Path):
    """The ``rssdetect`` package under ``src``, imported as ``parent_rssdetect``."""
    init = src / "rssdetect" / "__init__.py"
    spec = importlib.util.spec_from_file_location("parent_rssdetect", init)
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return importlib.import_module("parent_rssdetect.detector")


def steps(detector, model, f, f_prime):
    """The two timed steps of one tree, each returning its statistics."""
    pairs = list(zip(f, f_prime))
    statistic = detector.statistic_batch

    def lone():
        return np.array([statistic(model, a, b) for a, b in pairs])

    def batch():
        return statistic(model, f, f_prime)

    return {"lone": lone, "batch": batch}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent_src", type=Path, help="the parent tree's src directory")
    p.add_argument("--seed", type=int, default=1, help="decide_stream workload seed")
    p.add_argument("--rounds", type=int, default=40)
    args = p.parse_args(argv)

    from rssdetect import detector

    parent = import_parent(args.parent_src.resolve())
    model, pairs = set_up(args.seed)
    f, f_prime = (np.array(v) for v in zip(*pairs))
    trees = {"new": steps(detector, model, f, f_prime), "parent": steps(parent, model, f, f_prime)}
    for name in ("lone", "batch"):
        got = [trees[tree][name]().tobytes() for tree in trees]
        if got[0] != got[1]:
            raise SystemExit(f"the {name} statistics of the two trees differ")

    ratios = {name: [] for name in ("lone", "batch")}
    for r in range(args.rounds):
        for name in ratios:
            seconds = {}
            for tree in (("new", "parent") if r % 2 else ("parent", "new")):
                t0 = time.perf_counter()
                trees[tree][name]()
                seconds[tree] = time.perf_counter() - t0
            ratios[name].append(seconds["new"] / seconds["parent"])

    sizes = "-".join(map(str, model.params.layer_sizes))
    print(f"model {sizes} {model.params.weights[0].dtype}, {len(pairs)} pairs, {args.rounds} rounds")
    for name, rs in ratios.items():
        q1, _, q3 = statistics.quantiles(rs, n=4)
        median = statistics.median(rs)
        wins = sum(x < 1.0 for x in rs)
        print(f"{name:<6} new/parent median {median:.3f}  IQR {q1:.3f}-{q3:.3f}  new won {wins}/{len(rs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
