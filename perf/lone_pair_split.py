"""Where a lone DNNC decision's time goes, on one decide_stream set-up model.

    PYTHONPATH=src python3 perf/lone_pair_split.py [--seed 1] [--rounds 25]

Sets up the decide_stream workload of ``bench/workloads.py`` at full size
(one DNNC fit at the default width, a few seconds), then takes its test
pairs in turn and times, in ``--rounds`` rounds of one pass over the
pairs per step, each step in a new order every round:

    gemms       the network's bare GEMMs, one ``np.matmul`` per layer into
                the lone-pair scratch, on the input rows of each pair
    network     ``detector._lone_network``: those GEMMs plus the bias adds
                and the leaky ReLUs
    decide_any  the whole ``modelio.decide_any`` call

It prints the median µs per call of each step over the rounds, and their
differences: the network's own glue (network - gemms) and what a decision
costs outside the network (decide_any - network).  Nothing under
``bench/`` is changed; the set-up writes its model files into a
temporary directory.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from rssdetect import detector, modelio  # noqa: E402


def set_up(seed: int):
    """The reloaded DNNC model and the test pairs of decide_stream at ``seed``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.DecideStream(seed, "full", Path(workdir), env)
        wl.setup()
    return wl.models["dnnc"], list(zip(wl.pairs.first, wl.pairs.second))


def steps(model, pairs):
    """Each step as a function of one pair's index."""
    params, slope = model.params, model.negative_slope
    buffers = detector._lone_buffers(params)
    inputs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for f, f_prime in pairs:
            inputs.append(detector._lone_input(model, f, f_prime, buffers).copy())
    # the bare GEMMs read each hidden layer's activations as the last
    # network pass left them
    layers = [(w.T, z, act) for w, (z, act) in zip(params.weights, buffers.hidden)]
    last = params.weights[-1].T

    def gemms(i):
        a = inputs[i]
        for w, z, act in layers:
            np.matmul(a, w, out=z)
            a = act
        np.matmul(a, last, out=buffers.out)

    def network(i):
        detector._lone_network(params, slope, inputs[i], buffers)

    def decide_any(i):
        modelio.decide_any(model, *pairs[i])

    return {"gemms": gemms, "network": network, "decide_any": decide_any}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1, help="decide_stream workload seed")
    p.add_argument("--rounds", type=int, default=25)
    args = p.parse_args(argv)

    model, pairs = set_up(args.seed)
    timed = steps(model, pairs)
    rng = np.random.default_rng(args.seed)
    per_call = {name: [] for name in timed}
    for _ in range(args.rounds):
        for name in rng.permutation(list(timed)):
            step = timed[name]
            t0 = time.perf_counter()
            for i in range(len(pairs)):
                step(i)
            per_call[name].append((time.perf_counter() - t0) / len(pairs) * 1e6)
    median = {name: statistics.median(us) for name, us in per_call.items()}
    sizes = "-".join(map(str, model.params.layer_sizes))
    print(f"model {sizes} {model.params.weights[0].dtype}, {len(pairs)} pairs, {args.rounds} rounds")
    for name, us in median.items():
        print(f"{name:<12}{us:8.1f} us")
    print(f"{'glue':<12}{median['network'] - median['gemms']:8.1f} us  (network - gemms)")
    print(f"{'outside':<12}{median['decide_any'] - median['network']:8.1f} us  (decide_any - network)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
