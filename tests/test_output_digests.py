"""SHA-256 of files the program writes, pinned at a fixed input.

The digests of files that start from a synthesized campaign were
re-taken at two declared seed-contract bumps: when synthesis moved to
one random stream per location, and when sample windows dropped the
carrier tone and its phase draws (and distances their BLAS dot).  The
coordinates digest and the measurement-file report digest were taken
before both and held across them.
Any change to a digest here is a change in the program's output.
Platform: numpy 2.4, x86-64.  DNNC bytes also follow the BLAS kernel,
so their pins name one: see ``test_dnnc_pipeline_digests``.
"""

import hashlib
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rssdetect
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
        "274dc06815189b39236f62407bd7957eef6135c3c86a20429cff591e31c71526"
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
        "c36b6f4eff9cf705cee1910a7fd9b78aba09e3739f72b413e00a80f883727a55"
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
        "6258b5121e81c2ce07bd4fbc7f5597a29339e41c68e824dee73b04f81f1a1511"
    )
    assert sha256(tmp_path / "r.raw.csv") == (
        "fc8d0de888455e8f0e5f269eaeb751ee7ebae1ff375e1352d329b025f0800a30"
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


# The DNNC pins hold for this OpenBLAS build, forced to this core at one
# thread (numpy 2.4.6's bundled scipy-openblas).
PIN_OPENBLAS = "0.3.31.188.0"
PIN_CORE = "Haswell"
DNNC_DIGESTS = {
    "meas.csv": "d2a9b9853e0087cf9efbb517de5ffa18ecdecb14accd0036baa051f105d26be5",
    "dnnc.model": "aa6b89a7f0e478c2adcb808508ddf6eb0f0b2d08d0a61f4195a9b6ad767f7822",
    "history.csv": "5630c917c6e64980f7fb2498af373e3ea14a9c344e4266a721e7791416703a79",
    "decide.txt": "63bd0fdcbe528800ee895791628f796224739f9cfc1e19f0f6227ddaa8d632f6",
    "decide_swapped.txt": "63bd0fdcbe528800ee895791628f796224739f9cfc1e19f0f6227ddaa8d632f6",
    "sweep.csv": "af007c46a37d4d31b484e4eaf84032f4952f509cf4aacc1fa7fae71f3497b60d",
    "sweep.csv.raw.csv": "c9d689795feac730e4a5b09a73739d4fb81a0bb6f1b51bc4e44f0a829e14b905",
}

# generate, a DNNC fit with its history, one decision in both argument
# orders and a DNNC sweep from the file, in one interpreter; it first
# prints the core OpenBLAS runs on
DNNC_PIPELINE = """
import contextlib, ctypes, glob, os
import numpy as np
from rssdetect.cli import main

lib, = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
print(corename().decode())

def run(argv, out=os.devnull):
    with open(out, "w") as f, contextlib.redirect_stdout(f):
        assert main(argv) == 0, argv

with open("dnnc.cfg", "w") as f:
    f.write("estimates = 4\\nsamples = 8\\nk_train = 200\\nk_val = 100\\nk_test = 100\\n"
            "hidden_sizes = 32,32\\nmax_epochs = 12\\n")
run(["generate", "--out", "meas.csv", "--seed", "1", "--config", "dnnc.cfg", "--locations", "12"])
run(["train", "--data", "meas.csv", "--algorithm", "dnnc", "--model-out", "dnnc.model",
     "--history-out", "history.csv", "--seed", "2", "--config", "dnnc.cfg"])
rows = open("meas.csv").read().splitlines()
f, f_prime = rows[1].split(",", 2)[2], rows[2].split(",", 2)[2]
run(["decide", "--model", "dnnc.model", f"--f={f}", f"--f-prime={f_prime}"], "decide.txt")
run(["decide", "--model", "dnnc.model", f"--f={f_prime}", f"--f-prime={f}"], "decide_swapped.txt")
run(["sweep-locations", "--data", "meas.csv", "--out", "sweep.csv", "--seed", "3",
     "--config", "dnnc.cfg", "--grid", "8", "--iterations", "2", "--algorithms", "dnnc"])
"""


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"), reason="the pinned OpenBLAS core is an x86-64 one"
)
def test_dnnc_pipeline_digests(tmp_path):
    version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE=PIN_CORE,
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=str(Path(rssdetect.__file__).parents[1]),
    )
    run = subprocess.run(
        [sys.executable, "-c", DNNC_PIPELINE], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    core = run.stdout.strip()
    if (version, core) != (PIN_OPENBLAS, PIN_CORE):
        pytest.fail(
            f"re-pin: the DNNC digests were taken on OpenBLAS {PIN_OPENBLAS}, core {PIN_CORE}; "
            f"this run has OpenBLAS {version}, core {core}"
        )
    assert {name: sha256(tmp_path / name) for name in DNNC_DIGESTS} == DNNC_DIGESTS
