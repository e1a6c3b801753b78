import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from rssdetect.cli import CONFIG_FIELDS, CONFIG_KEYS, main, parse_config_file, apply_config
from rssdetect.cli import _experiment_config, build_parser
from rssdetect.errors import ConfigError
from rssdetect import evaluation as ev
from rssdetect.dataset import MeasurementSet, build_pair_set, load_measurements, save_measurements
from rssdetect.dataset import split_locations
from rssdetect.detector import DetectorModel
from rssdetect.modelio import save_model
from rssdetect.neural import init_params
from rssdetect.seeding import derive_seed


@pytest.fixture()
def small_args(tmp_path):
    """Shared flags for a small synthetic corpus."""
    config = tmp_path / "exp.cfg"
    config.write_text(
        "\n".join(
            [
                "# small test experiment",
                "locations = 14",
                "estimates = 6",
                "samples = 16",
                "shadowing_std_db = 3.0",
                "noise_dbm = -82",
                "gain_drift_std_db = 1.0",
                "k_train = 80",
                "k_val = 20",
                "k_test = 60",
                "kappa = 3",
                "iterations = 2",
                "locations_used_features = 8",
                "hidden_sizes = 8,8",
                "max_epochs = 3",
                "patience = 3",
            ]
        )
    )
    return config


def test_generate_train_decide_flow(tmp_path, small_args, capsys):
    meas = tmp_path / "meas.csv"
    coords = tmp_path / "locs.csv"
    assert main(
        [
            "generate",
            "--out", str(meas),
            "--coords-out", str(coords),
            "--seed", "11",
            "--config", str(small_args),
        ]
    ) == 0
    assert meas.exists() and coords.exists()

    model = tmp_path / "dbc2.model"
    assert main(
        [
            "train",
            "--data", str(meas),
            "--algorithm", "dbc2",
            "--model-out", str(model),
            "--seed", "12",
            "--config", str(small_args),
        ]
    ) == 0
    capsys.readouterr()

    f = ",".join(["-70.0"] * 16)
    fp = ",".join(["-40.0"] * 16)
    assert main(["decide", "--model", str(model), f"--f={f}", f"--f-prime={fp}"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("hypothesis=")
    assert "statistic=" in line and "posterior=" in line
    # huge distance must be declared a different location
    assert "hypothesis=H1" in line


def test_train_dnnc_with_history(tmp_path, small_args):
    meas = tmp_path / "meas.csv"
    assert main(["generate", "--out", str(meas), "--seed", "11", "--config", str(small_args)]) == 0
    model = tmp_path / "dnnc.model"
    history = tmp_path / "history.csv"
    assert main(
        [
            "train",
            "--data", str(meas),
            "--algorithm", "dnnc",
            "--model-out", str(model),
            "--history-out", str(history),
            "--seed", "13",
            "--config", str(small_args),
        ]
    ) == 0
    lines = history.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_accuracy"
    assert len(lines) >= 2
    from rssdetect.modelio import load_model
    from rssdetect.detector import DetectorModel

    assert isinstance(load_model(model), DetectorModel)


@pytest.mark.parametrize("algorithm", ["dbc1", "kmc"])
def test_history_out_refused_before_fitting(tmp_path, small_args, capsys, algorithm):
    meas = tmp_path / "meas.csv"
    assert main(["generate", "--out", str(meas), "--seed", "11", "--config", str(small_args)]) == 0
    capsys.readouterr()
    model, history = tmp_path / "m.model", tmp_path / "h.csv"
    rc = main(
        [
            "train",
            "--data", str(meas),
            "--algorithm", algorithm,
            "--model-out", str(model),
            "--history-out", str(history),
            "--seed", "12",
            "--config", str(small_args),
        ]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: history_out: only the dnnc algorithm records a history\n"
    assert not model.exists() and not history.exists()


def test_train_rejects_zero_hidden_size(tmp_path, small_args, capsys):
    meas = tmp_path / "meas.csv"
    assert main(["generate", "--out", str(meas), "--seed", "11", "--config", str(small_args)]) == 0
    capsys.readouterr()
    config = tmp_path / "zero.cfg"
    config.write_text(small_args.read_text() + "\nhidden_sizes = 0\n")
    rc = main(
        [
            "train",
            "--data", str(meas),
            "--algorithm", "dnnc",
            "--model-out", str(tmp_path / "m.model"),
            "--seed", "12",
            "--config", str(config),
        ]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "hidden_sizes" in lines[0]


@pytest.mark.parametrize("algorithm", ev.ALGORITHMS)
def test_train_model_file_is_fit_rule_at_the_iteration_seed_paths(
    tmp_path, small_args, capsys, algorithm
):
    meas = tmp_path / "meas.csv"
    assert main(["generate", "--out", str(meas), "--seed", "11", "--config", str(small_args)]) == 0
    seed, l_used = 17, 12
    model = tmp_path / "cli.model"
    assert main(
        [
            "train",
            "--data", str(meas),
            "--algorithm", algorithm,
            "--model-out", str(model),
            "--seed", str(seed),
            "--locations-used", str(l_used),
            "--config", str(small_args),
        ]
    ) == 0
    # run_iteration's split (k = 0) and training pairs (k = 1) at iter_seed = --seed
    cfg = apply_config(ev.ExperimentConfig(), parse_config_file(small_args))
    ms = load_measurements(meas)
    split = split_locations(ms, l_used, cfg.train_fraction, seed=derive_seed(seed, 0))
    train_pairs = build_pair_set(ms, split.train_ids, cfg.k_train, seed=derive_seed(seed, 1))
    fitted, history = ev.fit_rule(ms, cfg, algorithm, split, train_pairs, seed)
    assert (history is not None) == (algorithm == "dnnc")
    reference = tmp_path / "ref.model"
    save_model(fitted, reference)
    assert model.read_bytes() == reference.read_bytes()


def test_sweep_locations_deterministic_bytes(tmp_path, small_args):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    argv = [
        "sweep-locations",
        "--seed", "21",
        "--config", str(small_args),
        "--grid", "8,10",
        "--algorithms", "dbc1,dbc2",
        "--iterations", "2",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    raw1 = tmp_path / "r1.csv.raw.csv"
    raw2 = tmp_path / "r2.csv.raw.csv"
    assert raw1.read_bytes() == raw2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "algorithm,sweep_var,sweep_value,mean_accuracy,std_error,iterations"


def test_sweep_features_subsets_flag(tmp_path, small_args):
    out = tmp_path / "feat.csv"
    assert main(
        [
            "sweep-features",
            "--out", str(out),
            "--seed", "22",
            "--config", str(small_args),
            "--subsets", "0,1;0,4",
            "--algorithms", "dbc2",
            "--iterations", "2",
        ]
    ) == 0
    rows = ev.read_report(out)
    assert [r.sweep_value for r in rows] == ["0+1", "0+4"]


@pytest.mark.parametrize(
    "command, flag, value, key",
    [
        ("sweep-locations", "--grid", "10,10", "location_grid"),
        ("sweep-features", "--subsets", "0,1;0,1", "feature_subsets"),
    ],
)
def test_repeated_grid_point_is_one_error_line(tmp_path, small_args, capsys, command, flag, value, key):
    out = tmp_path / "r.csv"
    argv = [command, "--out", str(out), "--seed", "23", "--config", str(small_args)]
    assert main(argv + [flag, value, "--algorithms", "dbc2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key}: repeats")
    assert not out.exists()


@pytest.mark.parametrize("subsets", ["0,16", "0,0", "-1"])
def test_bad_feature_subset_is_one_error_line_naming_the_key(tmp_path, small_args, capsys, subsets):
    out = tmp_path / "r.csv"
    argv = ["sweep-features", "--out", str(out), "--seed", "23", "--config", str(small_args)]
    assert main(argv + ["--subsets", subsets, "--algorithms", "dbc2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: feature_subsets: ")
    assert not out.exists()


RANGE = "must be in [2, 12]"
SPLIT = "2 locations used with train_fraction = 0.9 give 2 train / 0 validation locations"
KAPPA = "40 centroids need as many training vectors"


@pytest.mark.parametrize(
    "command, lines, flags, key, message",
    [
        ("sweep-features", "locations_used_features = 13\n", [], "locations_used_features", RANGE),
        ("sweep-features", "locations_used_features = 1\n", [], "locations_used_features", RANGE),
        ("sweep-locations", "", ["--grid", "10,60"], "location_grid", RANGE),
        # grid point 8 splits 7 / 1 locations, point 2 splits 2 / 0
        ("sweep-locations", "train_fraction = 0.9\n", ["--grid", "8,2"], "location_grid", SPLIT),
        # k-means on 48 vectors at grid point 10 (8 train locations x 6
        # estimates), 18 at point 4; 36 at the feature sweep's 8 locations
        ("sweep-locations", "kappa = 40\n", ["--grid", "10,4", "--algorithms", "dbc2,kmc"], "kappa", KAPPA),
        ("sweep-features", "kappa = 40\n", ["--algorithms", "dbc2,kmc"], "kappa", KAPPA),
        # every rule draws DIFF training pairs: point 2 splits 1 / 1
        ("sweep-locations", "train_fraction = 0.5\n", ["--grid", "8,2"], "location_grid",
         "2 locations used with train_fraction = 0.5 give 1 train / 1 validation locations"),
        # the detector also draws DIFF validation pairs: 9 / 1 and 4 / 1
        ("sweep-locations", "train_fraction = 0.9\n", ["--grid", "10", "--algorithms", "dnnc"],
         "location_grid", "10 locations used with train_fraction = 0.9 give 9 train / 1 validation"),
        ("sweep-features", "locations_used_features = 5\n", ["--algorithms", "dnnc"],
         "locations_used_features", "5 locations used with train_fraction = 0.8 give 4 train / 1 validation"),
    ],
    ids=[
        "features-13", "features-1", "grid-60", "grid-2-split", "grid-4-kappa", "features-kappa",
        "grid-2-one-train", "grid-10-dnnc-one-validation", "features-5-dnnc-one-validation",
    ],
)
def test_locations_used_outside_the_corpus_is_one_error_line(
    tmp_path, small_args, capsys, monkeypatch, command, lines, flags, key, message
):
    # checked against the 14-location corpus, and split, before any iteration runs
    cfg = tmp_path / "c.cfg"
    cfg.write_text(small_args.read_text() + "\n" + lines)
    monkeypatch.setattr(ev, "run_iteration", lambda *a: pytest.fail("fitted before the check"))
    out = tmp_path / "r.csv"
    argv = [command, "--out", str(out), "--seed", "23", "--config", str(cfg), "--algorithms", "dbc2"]
    assert main(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {key}: ")
    assert message in captured.err
    assert not out.exists()


def test_infeasible_kappa_in_train_names_the_flag(tmp_path, small_args, capsys, monkeypatch):
    meas = tmp_path / "meas.csv"
    assert main(["generate", "--out", str(meas), "--seed", "11", "--config", str(small_args)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(ev, "fit_rule", lambda *a: pytest.fail("fitted before the check"))
    model = tmp_path / "m.model"
    argv = ["train", "--data", str(meas), "--algorithm", "kmc", "--model-out", str(model)]
    assert main(argv + ["--seed", "12", "--config", str(small_args), "--kappa", "500"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --kappa: 500 centroids need as many training vectors, but 14 locations "
        "used give 11 train locations x 6 estimates = 66\n"
    )
    assert not model.exists()


@pytest.mark.parametrize(
    "lines, algorithm, used, message",
    [
        ("", "dbc2", "1", "1 locations used must be in [2, 14]"),
        ("train_fraction = 0.9\n", "dbc2", "2", "2 locations used with train_fraction = 0.9 give 2 train"),
        ("", "dnnc", "5", "5 locations used with train_fraction = 0.8 give 4 train / 1 validation"),
    ],
    ids=["one-location", "no-validation-location", "dnnc-one-validation-location"],
)
def test_train_split_errors_name_the_flag(
    tmp_path, small_args, capsys, monkeypatch, lines, algorithm, used, message
):
    meas = tmp_path / "meas.csv"
    assert main(["generate", "--out", str(meas), "--seed", "11", "--config", str(small_args)]) == 0
    capsys.readouterr()
    cfg = tmp_path / "c.cfg"
    cfg.write_text(small_args.read_text() + "\n" + lines)
    monkeypatch.setattr(ev, "fit_rule", lambda *a: pytest.fail("fitted before the check"))
    model = tmp_path / "m.model"
    argv = ["train", "--data", str(meas), "--algorithm", algorithm, "--model-out", str(model)]
    assert main(argv + ["--seed", "12", "--config", str(cfg), "--locations-used", used]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: --locations-used: {message}")
    assert not model.exists()


def test_check_passes(capsys):
    assert main(["check", "--seed", "5"]) == 0
    assert capsys.readouterr().out == (
        "PASS commutativity (worst rel asymmetry 0.00e+00)\n"
        "PASS gradient-check (0 bad coordinates of 25)\n"
        "PASS loss-anchor (|loss - log 2| = 0.0e+00)\n"
        "PASS threshold-tuning\n"
        "PASS kmeans-monotone\n"
        "PASS estimator-consistency (mean |err| 0.623 dB @16 vs 0.160 dB @256)\n"
        "all checks passed\n"
    )


def test_check_seed_4_stdout_digest(capsys):
    # the self-test CI runs; its estimator line follows the synthesis streams
    assert main(["check", "--seed", "4"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "9a4da5c88155967829dfbeff1c8ecfcd1c71bcb6f5a886b063041758ff222e26"
    )


def test_decide_rejects_wrong_feature_count(tmp_path, capsys):
    model = tmp_path / "dnnc.model"
    save_model(
        DetectorModel(
            params=init_params([12, 4, 1], seed=0),
            feature_mean=np.zeros(4),
            feature_std=np.ones(4),
        ),
        model,
    )
    assert main(["decide", "--model", str(model), "--f=1.0", "--f-prime=2.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: feature length 1")
    assert captured.err.count("\n") == 1


def test_error_line_on_missing_file(tmp_path, capsys):
    rc = main(
        [
            "train",
            "--data", str(tmp_path / "nope.csv"),
            "--algorithm", "dbc1",
            "--model-out", str(tmp_path / "m.model"),
            "--seed", "1",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0  # single machine-parsable line


def test_error_on_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 7\n")
    rc = main(
        ["generate", "--out", str(tmp_path / "m.csv"), "--seed", "1", "--config", str(cfg)]
    )
    assert rc == 2
    assert "frobnicate" in capsys.readouterr().err


def test_seed_is_mandatory(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--out", str(tmp_path / "m.csv")])
    assert exc.value.code != 0


def test_config_parsing_layers():
    kv = {
        "locations": "20",
        "noise_dbm": "-75.5",
        "algorithms": "dnnc,dbc2",
        "location_grid": "10,20,30",
        "feature_subsets": "0,1;2,3,4",
        "learning_rate": "0.05",
        "patience": "inf",
        "hidden_sizes": "16,16",
    }
    cfg = apply_config(ev.ExperimentConfig(), kv)
    assert cfg.scenario.n_locations == 20
    assert cfg.scenario.noise_dbm == -75.5
    assert cfg.algorithms == ("dnnc", "dbc2")
    assert cfg.location_grid == (10, 20, 30)
    assert cfg.feature_subsets == ((0, 1), (2, 3, 4))
    assert cfg.train.learning_rate == 0.05
    assert cfg.train.patience == float("inf")
    assert cfg.train.hidden_sizes == (16, 16)


def test_config_file_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment only\n\nlocations = 5 # trailing comment\n")
    assert parse_config_file(cfg) == {"locations": "5"}


def _readme_config_keys() -> list[str]:
    """The keys of the README's configuration table, in table order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    keys = []
    for group in ("scenario", "campaign", "experiment", "training"):
        row = re.search(rf"^\| {group} \| (.*) \|$", readme, re.MULTILINE).group(1)
        # parentheses hold value formats, such as `x0,x1;y0,y1;z0,z1` and `inf`
        keys += re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", row))
    return keys


def _config_text(value) -> str:
    """A config value written the way the config file spells it."""
    if isinstance(value, tuple):
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(_config_text(v) for v in value)
    return str(value)


def test_config_keys_are_the_readme_table():
    keys = _readme_config_keys()
    assert len(keys) == len(set(keys))
    assert set(keys) == CONFIG_KEYS


@pytest.mark.parametrize(
    "key, value",
    [("n_locations", "5"), ("n_estimates", "6"), ("n_samples", "8"), ("measurements_path", "m.csv")],
)
def test_second_spellings_of_keys_are_refused(key, value):
    # the README spells these locations, estimates, samples and --data
    with pytest.raises(ConfigError, match=f"unknown configuration key {key!r}"):
        apply_config(ev.ExperimentConfig(), {key: value})


@pytest.mark.parametrize("key", _readme_config_keys())
def test_every_readme_config_key_is_accepted(key):
    default = ev.ExperimentConfig()
    if key == "receiver_positions":  # default None: no layout to write back
        cfg = apply_config(default, {key: "1.0,2.0,3.0;4.0,5.0,6.0"})
        assert cfg.scenario.receiver_positions == ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
        return
    name = CONFIG_FIELDS[key][1]
    owner = next(o for o in (default.scenario, default.train, default) if hasattr(o, name))
    # the default written back leaves the whole config unchanged
    assert apply_config(default, {key: _config_text(getattr(owner, name))}) == default


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "1"),
        ("ts_seconds", "1e-6"),
        ("master_seed", "3"),
        # second spellings of receiver_positions, tx_power_dbm and --seed
        ("n_receiver_groups", "4"),
        ("antennas_per_group", "4"),
        ("receiver_standoff_m", "12.0"),
        ("antenna_spacing_m", "0.05"),
        ("antenna_height_m", "2.0"),
        ("reference_loss_db", "40.0"),
        ("tone_cycles_per_sample", "0.25"),
    ],
)
def test_keys_that_change_no_output_are_refused(tmp_path, capsys, key, value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"locations = 5\n{key} = {value}\n")
    out = tmp_path / "m.csv"
    assert main(["generate", "--out", str(out), "--seed", "1", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown configuration key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line, key",
    [
        ("receiver_positions = 0,0,2,1,1,2", "receiver_positions"),  # one receiver, six numbers
        ("receiver_positions = 0,0;1,1,2", "receiver_positions"),
        ("receiver_positions = 0,0,2;1,nan,2", "receiver_positions"),
        ("receiver_positions = 0,0,2;1,inf,2", "receiver_positions"),
        ("path_loss_exponent = nan", "path_loss_exponent"),
        ("path_loss_exponent = inf", "path_loss_exponent"),
        ("shadowing_std_db = nan", "shadowing_std_db"),
        ("shadowing_std_db = inf", "shadowing_std_db"),
        ("noise_dbm = nan", "noise_dbm"),
        ("noise_dbm = inf", "noise_dbm"),
        ("gain_drift_std_db = nan", "gain_drift_std_db"),
        ("gain_drift_std_db = inf", "gain_drift_std_db"),
        ("tx_power_dbm = nan", "tx_power_dbm"),
        ("tx_power_dbm = inf", "tx_power_dbm"),
        ("gain_group_radius_m = nan", "gain_group_radius_m"),
        # training keys
        ("learning_rate = nan", "learning_rate"),
        ("learning_rate = inf", "learning_rate"),
        ("l1_lambda = nan", "l1_lambda"),
        ("l1_lambda = inf", "l1_lambda"),
        ("init_scale = nan", "init_scale"),
        ("init_scale = inf", "init_scale"),
        ("patience = nan", "patience"),
    ],
)
def test_bad_scenario_value_is_one_error_line_naming_the_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "m.csv"
    argv = ["generate", "--out", str(out), "--seed", "1", "--config", str(cfg)]
    assert main(argv + ["--locations", "6", "--estimates", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key}") and captured.err.count("\n") == 1
    assert not out.exists()


def test_non_utf8_config_file_is_one_error_line_naming_it(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"locations = 6\nnoise_dbm = -80\xff\n")
    out = tmp_path / "m.csv"
    assert main(["generate", "--out", str(out), "--seed", "1", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: not UTF-8 text") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, key",
    [
        ("generate", "--locations", "x", "locations"),
        ("train", "--k-train", "x", "k_train"),
        ("train", "--kappa", "2.5", "kappa"),
        ("train", "--train-fraction", "abc", "train_fraction"),
        ("sweep-locations", "--iterations", "1.5", "iterations"),
    ],
)
def test_unparsable_key_flag_is_one_error_line_naming_the_key(tmp_path, capsys, command, flag, value, key):
    # argparse takes the string; the key's own parser refuses it
    out = tmp_path / "out"
    argv = {
        "generate": ["--out", str(out)],
        "train": ["--data", str(tmp_path / "m.csv"), "--algorithm", "kmc", "--model-out", str(out)],
        "sweep-locations": ["--out", str(out), "--algorithms", "dbc1"],
    }[command]
    assert main([command, *argv, "--seed", "1", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key}: cannot parse value {value!r}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line", ["tx_power_dbm = -inf", "noise_dbm = -inf"])
def test_minus_inf_power_stays_legal(tmp_path, line):
    # a silent transmitter above the noise floor; noise-free windows
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "m.csv"
    argv = ["generate", "--out", str(out), "--seed", "1", "--config", str(cfg)]
    assert main(argv + ["--locations", "6", "--estimates", "4"]) == 0
    assert load_measurements(out).values.shape == (6, 4, 16)


def test_grid_point_with_one_validation_location_is_refused_with_dnnc(
    tmp_path, small_args, capsys, monkeypatch
):
    # point 5 splits 4 train / 1 validation location: the baselines fit on
    # it, the detector, whose validation pairs draw DIFF pairs, does not
    cfg = tmp_path / "c.cfg"
    cfg.write_text(small_args.read_text() + "\nlocation_grid = 5,8\niterations = 1\n")
    argv = ["sweep-locations", "--out", str(tmp_path / "r.csv"), "--seed", "1", "--config", str(cfg)]
    assert main(argv + ["--algorithms", "dbc1,dbc2"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(ev, "fit_rule", lambda *a: pytest.fail("fitted before the check"))
    out = tmp_path / "dnnc.csv"
    argv[2] = str(out)
    assert main(argv + ["--algorithms", "dbc1,dnnc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: location_grid: 5 locations used with train_fraction = 0.8 "
        "give 4 train / 1 validation locations; dbc1,dnnc need at least 2 / 2\n"
    )
    assert not out.exists()


def test_infeasible_second_grid_point_is_refused_before_any_fit(tmp_path, small_args, capsys, monkeypatch):
    # point 10 splits 8 / 2 locations, point 5 splits 4 / 1
    monkeypatch.setattr(ev, "fit_rule", lambda *a: pytest.fail("fitted before the check"))
    out = tmp_path / "r.csv"
    argv = ["sweep-locations", "--out", str(out), "--seed", "2", "--config", str(small_args)]
    assert main(argv + ["--grid", "10,5", "--algorithms", "dbc2,dnnc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: location_grid: 5 locations used")
    assert not out.exists() and not Path(f"{out}.raw.csv").exists()


def test_kappa_above_the_distinct_training_vectors_is_refused_before_any_fit(tmp_path, capsys, monkeypatch):
    # 12 locations whose 4 estimates are equal: 8 train locations hold 32
    # training vectors, but only 8 distinct ones for k-means to start from
    values = np.repeat(np.random.default_rng(5).normal(-70.0, 5.0, size=(12, 1, 4)), 4, axis=1)
    meas = tmp_path / "meas.csv"
    save_measurements(MeasurementSet(values=values, location_ids=np.arange(12)), meas)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("kappa = 20\n")
    monkeypatch.setattr(ev, "fit_rule", lambda *a: pytest.fail("fitted before the check"))
    out, model = tmp_path / "r.csv", tmp_path / "kmc.model"
    common = ["--data", str(meas), "--seed", "3", "--config", str(cfg)]
    for argv, key in (
        (["sweep-locations", "--out", str(out), "--grid", "10,8", "--algorithms", "dbc2,kmc"], "kappa"),
        (["train", "--algorithm", "kmc", "--model-out", str(model), "--locations-used", "10"], "--kappa"),
    ):
        assert main(argv + common) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {key}: 20 centroids need as many training vectors, but 10 locations used "
            "give 8 train locations x 4 estimates = 32, 8 of them distinct\n"
        )
    assert not out.exists() and not model.exists()


# every flag named after a config key: (command, flag, key, value, another value)
KEY_FLAGS = [
    ("generate", "--locations", "locations", "17", "20"),
    ("generate", "--estimates", "estimates", "9", "5"),
    ("generate", "--samples", "samples", "8", "32"),
    ("train", "--k-train", "k_train", "90", "70"),
    ("train", "--k-val", "k_val", "25", "30"),
    ("train", "--kappa", "kappa", "4", "6"),
    ("train", "--train-fraction", "train_fraction", "0.75", "0.6"),
    ("sweep-locations", "--iterations", "iterations", "3", "4"),
    ("sweep-locations", "--algorithms", "algorithms", "dbc1,kmc", "dbc2"),
    ("sweep-locations", "--grid", "location_grid", "12,14", "20"),
    ("sweep-features", "--iterations", "iterations", "3", "4"),
    ("sweep-features", "--algorithms", "algorithms", "kmc,dnnc", "dbc1"),
    ("sweep-features", "--subsets", "feature_subsets", "0,1;2,3", "0,4"),
]
REQUIRED = {
    "generate": ["--out", "m.csv", "--seed", "5"],
    "train": ["--data", "m.csv", "--algorithm", "kmc", "--model-out", "m.model", "--seed", "5"],
    "sweep-locations": ["--out", "r.csv", "--seed", "5"],
    "sweep-features": ["--out", "r.csv", "--seed", "5"],
}


@pytest.mark.parametrize("command, flag, key, value, other", KEY_FLAGS)
def test_key_flag_is_its_config_key(tmp_path, command, flag, key, value, other):
    def config(*extra, text=None):
        argv = [command, *REQUIRED[command], *extra]
        if text is not None:
            path = tmp_path / "c.cfg"
            path.write_text(text)
            argv += ["--config", str(path)]
        return _experiment_config(build_parser().parse_args(argv))

    from_flag = config(flag, value)
    assert from_flag != config()
    assert from_flag == config(text=f"{key} = {value}\n")
    # the flag overrides the file
    assert from_flag == config(flag, value, text=f"{key} = {other}\n")
    assert config(text=f"{key} = {other}\n") != from_flag
