"""SHA-256 of files the program writes, pinned at a fixed input.

The digests of files that start from a synthesized campaign were
re-taken when synthesis moved to one random stream per location, a
declared seed-contract bump; the coordinates digest and the
measurement-file report digest were taken before it and held across it.
Any change to a digest here is a change in the program's output.
Platform: numpy 2.4, x86-64.
"""

import hashlib
from dataclasses import replace

import numpy as np

from rssdetect import benchmarks as bm
from rssdetect import dataset as ds
from rssdetect import evaluation as ev
from rssdetect import modelio
from rssdetect import signal_model as sm


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def campaign(n_locations, n_estimates, seed):
    scenario = sm.generate_scenario(
        replace(ev.default_scenario_config(), n_locations=n_locations), seed=seed
    )
    return sm.simulate_measurement_set(scenario, n_estimates, 16, seed=seed + 1)


def test_saved_measurements_digest(tmp_path):
    ms = campaign(6, 3, seed=21)
    values = ms.values.copy()
    # values whose text form is easy to get wrong
    values[0, 0, :6] = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e-5]
    ms = replace(ms, values=values, location_ids=np.array([7, -3, 0, 2**62, 5, 11]))
    ds.save_measurements(ms, tmp_path / "m.csv", tmp_path / "m.coords.csv")
    assert sha256(tmp_path / "m.csv") == (
        "a3ab15543fa91051ee25871aa825b07afc07a69f0942989128713b64d8143d90"
    )
    assert sha256(tmp_path / "m.coords.csv") == (
        "ce4da502a37238a1592db6b777a3808461dd6beaf46f46d9067d4cff94d6b69f"
    )


def test_kmc_model_digest(tmp_path):
    ms = campaign(20, 8, seed=31)
    train_ids = ms.location_ids[:16]
    pairs = ds.build_pair_set(ms, train_ids, 400, seed=32)
    model = bm.train_kmc(ms, train_ids, pairs, kappa=6, seed=33)
    modelio.save_model(model, tmp_path / "kmc.model")
    assert sha256(tmp_path / "kmc.model") == (
        "d846895437cfc3e6c216547d3a3d8bb7e8544ce11f26eacd442e4c7e8ac90ca2"
    )


def test_baselines_sweep_report_digest(tmp_path):
    cfg = ev.with_scenario(
        ev.ExperimentConfig(
            algorithms=("dbc1", "dbc2", "kmc"), location_grid=(6, 12), iterations=2,
            n_estimates=8, k_train=200, k_test=150, kappa=4, master_seed=41,
        ),
        n_locations=16,
    )
    ev.emit_report(ev.sweep_locations(cfg), tmp_path / "r.csv", tmp_path / "r.raw.csv")
    assert sha256(tmp_path / "r.csv") == (
        "502b6e99b6ec2549a64ecc42e80759b70e68c395d02dde7c9f0a7f16405c4b96"
    )
    assert sha256(tmp_path / "r.raw.csv") == (
        "cda8f2560a5ab0b77bb72322fc29db906d6d440f4d94aabb6ce9155433ba4fdb"
    )


def test_measurement_file_sweep_report_digest(tmp_path):
    # the corpus is a file whose values never went through signal_model,
    # so a change to synthesis cannot move these digests
    rng = np.random.default_rng(51)
    values = rng.normal(-60.0, 8.0, size=(16, 1, 6)) + rng.normal(0.0, 2.0, size=(16, 8, 6))
    ds.save_measurements(ds.MeasurementSet(values=values, location_ids=np.arange(16)), tmp_path / "m.csv")
    cfg = ev.ExperimentConfig(
        measurements_path=str(tmp_path / "m.csv"), algorithms=("dbc1", "dbc2", "kmc"),
        location_grid=(6, 12), iterations=2, k_train=200, k_test=150, kappa=4, master_seed=52,
    )
    ev.emit_report(ev.sweep_locations(cfg), tmp_path / "r.csv", tmp_path / "r.raw.csv")
    assert sha256(tmp_path / "r.csv") == (
        "bb27291944e41f0004d7a1dcfbcebd1b2a34a75fe98b442326cbbe3bb1eec45d"
    )
    assert sha256(tmp_path / "r.raw.csv") == (
        "ce790f8b057df9af143635bd0a6d44e128ab15e3e760e565e74af3c2e39a9717"
    )
