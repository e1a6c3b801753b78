"""Command-line interface.

Subcommands:

* ``generate``        synthetic campaign -> measurement CSV (+ coordinates)
* ``train``           fit one algorithm on a measurement file -> model file
* ``decide``          model file + two feature vectors -> hypothesis line
* ``sweep-locations`` Monte Carlo accuracy vs number of training locations
* ``sweep-features``  Monte Carlo accuracy vs receiver-channel subset
* ``check``           fast invariant self-test

Every randomized command takes a mandatory ``--seed``; identical
invocations produce byte-identical output files.  On failure the exit
code is nonzero and stderr carries a single line ``error: <message>``.

Configuration files are flat ``key = value`` text (``#`` comments).  See
the README for the key list; defaults are the headline-experiment
values.  A config file sets no seed: ``--seed`` is the only one.  A flag
whose ``dest`` is a config key (``--grid`` is ``location_grid``,
``--subsets`` is ``feature_subsets``) is that key: its value parses
exactly as the key's does in a file, and overrides the file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from . import evaluation as ev
from . import invariants as inv
from . import neural
from . import signal_model as sm
from .dataset import MeasurementSet, build_pair_set, load_measurements, save_measurements
from .errors import ConfigError
from .modelio import decide_any, load_model, save_model
from .seeding import derive_seed

# config key -> (section, field): every field of the three sections except
# the sections themselves, the master seed (--seed is the only one) and the
# measurement file (--data); three campaign fields have shorter keys
_SHORT_KEYS = {"n_locations": "locations", "n_estimates": "estimates", "n_samples": "samples"}
CONFIG_FIELDS = {
    _SHORT_KEYS.get(f.name, f.name): (section, f.name)
    for section, cls in (
        ("scenario", sm.ScenarioConfig),
        ("train", neural.TrainConfig),
        ("experiment", ev.ExperimentConfig),
    )
    for f in fields(cls)
    if f.name not in ("scenario", "train", "master_seed", "measurements_path")
}
CONFIG_KEYS = frozenset(CONFIG_FIELDS)


def _parse_value(key: str, raw: str, current):
    """Parse a config string against the field's current value/shape."""
    raw = raw.strip()
    try:
        if key == "patience":
            return float("inf") if raw in ("inf", "Infinity") else int(raw)
        if key == "algorithms":
            return tuple(a.strip() for a in raw.split(",") if a.strip())
        if key in ("location_grid", "hidden_sizes"):
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if key == "feature_subsets":
            return tuple(
                tuple(int(v) for v in group.split(",") if v.strip())
                for group in raw.split(";")
                if group.strip()
            )
        if key in ("region", "receiver_positions"):
            return tuple(
                tuple(float(v) for v in part.split(",")) for part in raw.split(";") if part.strip()
            )
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse value {raw!r} ({exc})") from exc
    raise ConfigError(f"{key}: unsupported config key type")


def parse_config_file(path) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}: line {line_no}: expected 'key = value'")
            key, value = body.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def apply_config(cfg: ev.ExperimentConfig, kv: dict[str, str]) -> ev.ExperimentConfig:
    """Overlay parsed key/value strings onto an experiment config.

    Scenario and training keys apply one at a time.  Experiment keys apply
    in one ``replace``, as ``ExperimentConfig`` checks its fields against
    each other (``location_grid`` against ``algorithms``).
    """
    updates = {}  # experiment fields, the scenario and train sections among them
    for key, raw in kv.items():
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"unknown configuration key {key!r}")
        section, name = CONFIG_FIELDS[key]
        if section == "experiment":
            updates[name] = _parse_value(name, raw, getattr(cfg, name))
        else:
            owner = updates.get(section, getattr(cfg, section))
            updates[section] = replace(owner, **{name: _parse_value(name, raw, getattr(owner, name))})
    return replace(cfg, **updates)


def _experiment_config(args) -> ev.ExperimentConfig:
    cfg = ev.ExperimentConfig()
    if args.config:
        cfg = apply_config(cfg, parse_config_file(args.config))
    # a flag whose dest is a config key is that key, parsed from its string
    flags = {k: str(v) for k, v in vars(args).items() if k in CONFIG_FIELDS and v is not None}
    cfg = apply_config(cfg, flags)
    if getattr(args, "data", None):
        cfg = replace(cfg, measurements_path=args.data)
    return replace(cfg, master_seed=args.seed)


def _cmd_generate(args) -> int:
    # the synthetic corpus of a sweep at the same seed: generate takes no --data
    ms = ev.load_corpus(_experiment_config(args))
    save_measurements(ms, args.out, coords_path=args.coords_out)
    print(
        f"wrote {ms.n_locations} locations x {ms.n_estimates} estimates x "
        f"{ms.n_features} features to {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    if args.history_out and args.algorithm != "dnnc":
        raise ConfigError("history_out: only the dnnc algorithm records a history")
    cfg = _experiment_config(args)
    ms = load_measurements(args.data)
    l_used = args.locations_used if args.locations_used is not None else ms.n_locations
    ev.check_locations_used(ms, cfg, l_used, "--locations-used", n_test=0)
    # the split and pairs of a sweep iteration whose seed is --seed
    split, train_pairs = ev.training_split(ms, cfg, l_used, cfg.master_seed)
    model, history = ev.fit_rule(ms, cfg, args.algorithm, split, train_pairs, cfg.master_seed)
    if history is not None:
        print(
            f"dnnc: {history.n_epochs} epochs, best validation accuracy "
            f"{max(history.val_accuracy):.4f} at epoch {history.best_epoch()}"
        )
        if args.history_out:
            ev.emit_history(history, args.history_out)
    else:
        centroids = f"{model.kappa} centroids, " if args.algorithm == "kmc" else ""
        print(f"{args.algorithm}: {centroids}threshold {model.threshold!r}")
    save_model(model, args.model_out)
    print(f"wrote model to {args.model_out}")
    return 0


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"feature vector: {exc}") from exc


def _cmd_decide(args) -> int:
    model = load_model(args.model)
    f = _parse_vector(args.f)
    f_prime = _parse_vector(args.f_prime)
    decision = decide_any(model, f, f_prime)
    print(
        f"hypothesis={decision.hypothesis.value} "
        f"statistic={decision.statistic!r} posterior={decision.posterior!r}"
    )
    return 0


def _cmd_sweep(args) -> int:
    report = args.sweep(_experiment_config(args))
    raw_path = args.raw_out if args.raw_out else str(args.out) + ".raw.csv"
    ev.emit_report(report, args.out, raw_path=raw_path)
    print(f"wrote {len(report.rows)} report rows to {args.out} (raw: {raw_path})")
    return 0


def _cmd_check(args) -> int:
    # every check draws its instances from one stream, in this order; KMC
    # draws from its own, so the other checks see the same draws
    rng = np.random.default_rng(args.seed)
    kmc_rng = np.random.default_rng(derive_seed(args.seed, 1))
    results = {}
    results["commutativity"] = inv.commutativity(
        rng, kmc_rng, 100, features=(2, 6), widths=(16,), std_floor=0.5,
        threshold_mean=0.0, max_centroids=4,
    )
    ms = MeasurementSet(values=rng.normal(0, 5, size=(6, 4, 3)), location_ids=np.arange(6))
    pairs = build_pair_set(ms, np.arange(6), 8, seed=args.seed)
    results["gradient-check"] = inv.gradient_check(pairs, (8, 8, 8), args.seed, rng, 25, tol=1e-4)
    results["loss-anchor"] = inv.loss_anchor(pairs, (8, 8, 8), tol=1e-12)
    sets = ((rng.normal(5, 2, size=120), rng.random(120) < 0.5) for _ in range(10))
    results["threshold-tuning"] = inv.threshold_tuning(sets)
    corpora = (
        (rng.normal(size=(80, 3)) + rng.integers(0, 3, size=(80, 1)) * 4.0, 4, int(rng.integers(2**31)))
        for _ in range(10)
    )
    results["kmeans-monotone"] = inv.kmeans_monotone(corpora, wcss_tol=1e-9)
    config = sm.ScenarioConfig(n_locations=2, shadowing_std_db=3.0, noise_dbm=-75.0)
    scenario = sm.generate_scenario(config, seed=args.seed)
    results["estimator-consistency"] = inv.estimator_consistency(
        scenario, (args.seed,), short=16, long=256, repeats=20
    )

    for name, (ok, detail) in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    failures = sum(not ok for ok, _ in results.values())
    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssdetect",
        description="Same-location detection from short-term RSS vector estimates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a measurement campaign CSV")
    gen.add_argument("--out", required=True, help="measurement CSV path")
    gen.add_argument("--coords-out", default=None, help="optional location coordinates CSV")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--config", default=None, help="flat key=value config file")
    gen.add_argument("--locations", type=int, default=None)
    gen.add_argument("--estimates", type=int, default=None)
    gen.add_argument("--samples", type=int, default=None, help="samples per RSS estimate (N_s)")
    gen.set_defaults(run=_cmd_generate)

    tr = sub.add_parser("train", help="train one algorithm and save a model file")
    tr.add_argument("--data", required=True, help="measurement CSV")
    tr.add_argument("--algorithm", required=True, choices=ev.ALGORITHMS)
    tr.add_argument("--model-out", required=True)
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--config", default=None)
    tr.add_argument("--locations-used", type=int, default=None, help="default: all locations")
    tr.add_argument("--history-out", default=None, help="per-epoch history CSV (dnnc only)")
    tr.add_argument("--k-train", type=int, default=None, dest="k_train")
    tr.add_argument("--k-val", type=int, default=None, dest="k_val")
    tr.add_argument("--kappa", type=int, default=None)
    tr.add_argument("--train-fraction", type=float, default=None, dest="train_fraction")
    tr.set_defaults(run=_cmd_train)

    dec = sub.add_parser("decide", help="apply a saved model to one pair of feature vectors")
    dec.add_argument("--model", required=True)
    dec.add_argument("--f", required=True, help="comma-separated features of the first estimate")
    dec.add_argument("--f-prime", required=True, dest="f_prime")
    dec.set_defaults(run=_cmd_decide)

    for which, sweep, flag, key, flag_help in (
        ("locations", ev.sweep_locations, "--grid", "location_grid", "comma list of location counts"),
        ("features", ev.sweep_features, "--subsets", "feature_subsets", "semicolon list of channel lists"),
    ):
        sw = sub.add_parser(f"sweep-{which}", help=f"Monte Carlo accuracy sweep over {which}")
        sw.add_argument("--out", required=True, help="summary report CSV")
        sw.add_argument("--raw-out", default=None, help="per-iteration CSV (default: <out>.raw.csv)")
        sw.add_argument("--seed", type=int, required=True)
        sw.add_argument("--config", default=None)
        sw.add_argument("--data", default=None, help="measurement CSV (default: synthetic)")
        sw.add_argument("--iterations", type=int, default=None)
        sw.add_argument("--algorithms", default=None, help="comma list, e.g. dnnc,dbc2")
        # the metavar argparse would derive from the flag's own name
        sw.add_argument(flag, dest=key, metavar=flag[2:].upper(), help=flag_help)
        sw.set_defaults(run=_cmd_sweep, sweep=sweep)

    chk = sub.add_parser("check", help="run the fast invariant self-test")
    chk.add_argument("--seed", type=int, required=True)
    chk.set_defaults(run=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:  # error contract: one parsable line, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
