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
values.  A config file sets no seed: ``--seed`` is the only one.
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
from .dataset import MeasurementSet, build_pair_set, load_measurements
from .dataset import save_measurements, split_locations
from .errors import ConfigError
from .modelio import decide_any, load_model, save_model
from .seeding import derive_seed

_SCENARIO_FIELDS = {f.name for f in fields(sm.ScenarioConfig)}
_TRAIN_FIELDS = {f.name for f in fields(neural.TrainConfig)}
_EXPERIMENT_FIELDS = {f.name for f in fields(ev.ExperimentConfig)}

# config-file keys that are spelled differently from the dataclass fields
_KEY_ALIASES = {
    "locations": ("scenario", "n_locations"),
    "estimates": ("experiment", "n_estimates"),
    "samples": ("experiment", "n_samples"),
}
# the keys the README documents: every field of the three sections except
# the sections themselves, the master seed (--seed is the only one), the
# measurement file (--data) and the field names the aliases spell differently
CONFIG_KEYS = frozenset(
    (_SCENARIO_FIELDS | _TRAIN_FIELDS | _EXPERIMENT_FIELDS | set(_KEY_ALIASES))
    - {"scenario", "train", "master_seed", "measurements_path"}
    - {name for _, name in _KEY_ALIASES.values()}
)


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
        if isinstance(current, str) or current is None:
            return raw
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
    """Overlay parsed key/value strings onto an experiment config."""
    scenario = cfg.scenario
    train = cfg.train
    experiment_updates = {}
    for key, raw in kv.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        if key in _KEY_ALIASES:
            section, name = _KEY_ALIASES[key]
        elif key in _SCENARIO_FIELDS:
            section, name = "scenario", key
        elif key in _TRAIN_FIELDS:
            section, name = "train", key
        else:
            section, name = "experiment", key

        if section == "scenario":
            value = _parse_value(name, raw, getattr(scenario, name))
            scenario = replace(scenario, **{name: value})
        elif section == "train":
            value = _parse_value(name, raw, getattr(train, name))
            train = replace(train, **{name: value})
        else:
            value = _parse_value(name, raw, getattr(cfg, name))
            experiment_updates[name] = value
    return replace(cfg, scenario=scenario, train=train, **experiment_updates)


def _experiment_config(args) -> ev.ExperimentConfig:
    cfg = ev.ExperimentConfig()
    if getattr(args, "config", None):
        cfg = apply_config(cfg, parse_config_file(args.config))
    overrides: dict[str, str] = {}
    for flag, key in (
        ("locations", "locations"),
        ("estimates", "estimates"),
        ("samples", "samples"),
        ("iterations", "iterations"),
        ("algorithms", "algorithms"),
        ("grid", "location_grid"),
        ("subsets", "feature_subsets"),
        ("k_train", "k_train"),
        ("k_val", "k_val"),
        ("k_test", "k_test"),
        ("kappa", "kappa"),
        ("train_fraction", "train_fraction"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = str(value)
    if overrides:
        cfg = apply_config(cfg, overrides)
    if getattr(args, "data", None):
        cfg = replace(cfg, measurements_path=args.data)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    return cfg


def _cmd_generate(args) -> int:
    # the synthetic corpus of a sweep at the same seed, never a loaded one
    ms = ev.load_corpus(replace(_experiment_config(args), measurements_path=None))
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
    # the split and pairs of a sweep iteration whose seed is --seed
    seed = cfg.master_seed
    split = split_locations(ms, l_used, cfg.train_fraction, seed=derive_seed(seed, 0))
    train_pairs = build_pair_set(ms, split.train_ids, cfg.k_train, seed=derive_seed(seed, 1))
    model, history = ev.fit_rule(ms, cfg, args.algorithm, split, train_pairs, seed)
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


def _cmd_sweep(args, which: str) -> int:
    cfg = _experiment_config(args)
    report = ev.sweep_locations(cfg) if which == "locations" else ev.sweep_features(cfg)
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

    dec = sub.add_parser("decide", help="apply a saved model to one pair of feature vectors")
    dec.add_argument("--model", required=True)
    dec.add_argument("--f", required=True, help="comma-separated features of the first estimate")
    dec.add_argument("--f-prime", required=True, dest="f_prime")

    for which in ("locations", "features"):
        sw = sub.add_parser(f"sweep-{which}", help=f"Monte Carlo accuracy sweep over {which}")
        sw.add_argument("--out", required=True, help="summary report CSV")
        sw.add_argument("--raw-out", default=None, help="per-iteration CSV (default: <out>.raw.csv)")
        sw.add_argument("--seed", type=int, required=True)
        sw.add_argument("--config", default=None)
        sw.add_argument("--data", default=None, help="measurement CSV (default: synthetic)")
        sw.add_argument("--iterations", type=int, default=None)
        sw.add_argument("--algorithms", default=None, help="comma list, e.g. dnnc,dbc2")
        if which == "locations":
            sw.add_argument("--grid", default=None, help="comma list of location counts")
        else:
            sw.add_argument("--subsets", default=None, help="semicolon list of channel lists")
        sw.set_defaults(which=which)

    chk = sub.add_parser("check", help="run the fast invariant self-test")
    chk.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "decide":
            return _cmd_decide(args)
        if args.command in ("sweep-locations", "sweep-features"):
            return _cmd_sweep(args, args.which)
        if args.command == "check":
            return _cmd_check(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except Exception as exc:  # error contract: one parsable line, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
