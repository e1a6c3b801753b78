"""SHA-256 of files the program writes, pinned at a fixed input.

Each digest was taken before the KMC map was shared between equal rows,
before ``save_measurements`` formatted rows from one template, and before
synthesis inlined its dB conversions; those changes are bit for bit, so
any change to a digest here is a change in the program's output.
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
        "dd6f277fc35621ec57b840ffcc44afebfeb3f6ffe9a4f60b482007a2cd7be4b4"
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
        "65fed8f71af7815f8ef8d6360ff73e293cab2433bc087117d6ad725904cb9454"
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
        "f47f1c1c80839dd0f497e6a10804fe026bd117e887aca6aa8c2c54b0f76d9a05"
    )
    assert sha256(tmp_path / "r.raw.csv") == (
        "bc9e3eabdfa51f37983a0ebbbc518ff141ca3c9e19cb08d9b0015e57d327fd02"
    )
