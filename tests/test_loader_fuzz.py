"""Damaged model files, measurement CSVs and reports: each one loads or raises DataFormatError.

Every example takes a valid saved file and truncates it, or overwrites,
inserts or deletes a few bytes in it, then loads the result.  Any
exception other than ``DataFormatError`` fails the test.
"""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rssdetect import dataset as ds
from rssdetect import evaluation as ev
from rssdetect import modelio, neural
from rssdetect.benchmarks import DbcModel, KmcModel
from rssdetect.detector import DetectorModel
from rssdetect.errors import DataFormatError


def _saved_bytes(save, obj, *extra_names) -> list[bytes]:
    with tempfile.TemporaryDirectory() as d:
        paths = [Path(d) / "main", *(Path(d) / name for name in extra_names)]
        save(obj, *paths)
        return [p.read_bytes() for p in paths]


def _model_files() -> dict[str, bytes]:
    rng = np.random.default_rng(0)
    dnnc = DetectorModel(
        params=neural.init_params([6, 4, 3, 1], seed=1),
        feature_mean=rng.normal(size=2),
        feature_std=np.abs(rng.normal(size=2)) + 0.1,
    )
    models = {
        "dnnc": dnnc,
        "dbc1": DbcModel(norm_order=1, threshold=2.0),
        "dbc2": DbcModel(norm_order=2, threshold=-math.inf),
        "kmc": KmcModel(centroids=rng.normal(size=(2, 3)), threshold=0.5),
    }
    return {name: _saved_bytes(modelio.save_model, m)[0] for name, m in models.items()}


def _csv_files() -> dict[str, bytes]:
    rng = np.random.default_rng(1)
    ms = ds.MeasurementSet(
        values=rng.normal(-70.0, 5.0, size=(3, 2, 2)),
        location_ids=np.array([4, 0, 7], dtype=np.int64),
        coordinates=rng.uniform(0, 5, size=(3, 3)),
    )
    csv, coords = _saved_bytes(ds.save_measurements, ms, "coords")
    return {"measurements": csv, "coordinates": coords}


def _report_files() -> dict[str, bytes]:
    rows = tuple(
        ev.ReportRow("dbc2", "locations", value, 0.75, std, len(raw), raw)
        for value, std, raw in (("8", 0.05, (0.7, 0.8)), ("10", math.nan, (0.75,)))
    )
    report = ev.EvalReport(sweep_var="locations", rows=rows)
    summary, raw = _saved_bytes(ev.emit_report, report, "raw")
    return {"report": summary, "raw": raw}


MODEL_FILES = _model_files()
CSV_FILES = _csv_files()
REPORT_FILES = _report_files()

# fields a mutation may write whole: u32 counts and f64 values at their edges
_FIELDS = [struct.pack("<I", v) for v in (0, 1, 2, 3, 0xFFFFFFFF)] + [
    struct.pack("<d", v) for v in (math.nan, math.inf, -math.inf, 0.0, -1.0, 2.0, 5e-324)
]
# bytes that keep a CSV close to parsing, a non-UTF-8 byte, and values
# just past what the loader accepts
_CSV_CHUNKS = [bytes([b]) for b in b"0123456789,.-+e\nnaif_ \xff"] + [
    b"99999999999999999999",
    b"1e999",
    b"nan",
]


def _chunks(special):
    return st.one_of(
        st.binary(min_size=1, max_size=24),
        st.sampled_from(special),
    )


@st.composite
def damaged(draw, data: bytes, special) -> bytes:
    """``data`` after one to three truncations, overwrites, insertions or deletions."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "overwrite", "insert", "delete"]))
        pos = draw(st.integers(0, len(data)))
        if kind == "truncate":
            data = data[:pos]
        elif kind == "delete":
            data = data[:pos] + data[pos + draw(st.integers(1, 16)) :]
        else:
            chunk = draw(_chunks(special))
            end = pos + len(chunk) if kind == "overwrite" else pos
            data = data[:pos] + chunk + data[end:]
    return data


def _loads_or_rejects(load, path) -> None:
    try:
        load(path)
    except DataFormatError:
        pass


@pytest.mark.parametrize("name", sorted(MODEL_FILES))
@given(data=st.data())
def test_damaged_model_file(name, data):
    blob = data.draw(damaged(MODEL_FILES[name], _FIELDS))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.model"
        path.write_bytes(blob)
        _loads_or_rejects(modelio.load_model, path)


@pytest.mark.parametrize("name", sorted(CSV_FILES))
@given(data=st.data())
def test_damaged_measurement_csv(name, data):
    blob = data.draw(damaged(CSV_FILES[name], _CSV_CHUNKS))
    with tempfile.TemporaryDirectory() as d:
        csv, coords = Path(d) / "m.csv", Path(d) / "c.csv"
        csv.write_bytes(blob if name == "measurements" else CSV_FILES["measurements"])
        coords.write_bytes(blob if name == "coordinates" else CSV_FILES["coordinates"])
        _loads_or_rejects(lambda p: ds.load_measurements(p, coords_path=coords), csv)


@pytest.mark.parametrize("name", sorted(REPORT_FILES))
@given(data=st.data())
def test_damaged_report(name, data):
    blob = data.draw(damaged(REPORT_FILES[name], _CSV_CHUNKS))
    read = ev.read_report if name == "report" else ev.read_report_raw
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "r.csv"
        path.write_bytes(blob)
        _loads_or_rejects(read, path)


# raw rows each reader must refuse although every cell parses on its own
_BAD_RAW = {
    "non-integer iteration": ["dbc2,locations,8,xyz,0.5"],
    "first iteration not 0": ["dbc2,locations,8,1,0.5"],
    "iteration repeated": ["dbc2,locations,8,0,0.5", "dbc2,locations,8,0,0.75"],
    "iteration skipped": ["dbc2,locations,8,0,0.5", "dbc2,locations,8,2,0.75"],
    "two sweep_vars": ["dbc2,locations,8,0,0.5", "dbc2,features,0+1,0,0.75"],
    "accuracy above 1": ["dbc2,locations,8,0,1.5"],
    "accuracy below 0": ["dbc2,locations,8,0,-0.25"],
    "accuracy nan": ["dbc2,locations,8,0,nan"],
    "unknown algorithm": ["svm,locations,8,0,0.5"],
}

# summary rows read_report must refuse although every cell parses on its own
_BAD_SUMMARY = {
    "unknown algorithm": "svm,locations,8,0.5,0.01,2",
    "mean above 1": "dbc2,locations,8,2.0,0.01,2",
    "mean below 0": "dbc2,locations,8,-0.5,0.01,2",
    "mean nan": "dbc2,locations,8,nan,0.01,2",
    "negative std_error": "dbc2,locations,8,0.5,-1,2",
    "infinite std_error": "dbc2,locations,8,0.5,inf,2",
    "nan std_error of two iterations": "dbc2,locations,8,0.5,nan,2",
    "std_error of one iteration": "dbc2,locations,8,0.5,0.0,1",
    "zero iterations": "dbc2,locations,8,0.5,nan,0",
    "negative iterations": "dbc2,locations,8,0.5,nan,-1",
    "every defect at once": "svm,locations,8,2.0,-1,0",
}


@pytest.mark.parametrize("rows", list(_BAD_RAW.values()), ids=list(_BAD_RAW))
def test_raw_report_rows_refused(tmp_path, rows):
    path = tmp_path / "r.raw.csv"
    path.write_text("\n".join([ev.RAW_HEADER, *rows]) + "\n")
    with pytest.raises(DataFormatError, match="row"):
        ev.read_report_raw(path)


@pytest.mark.parametrize("row", list(_BAD_SUMMARY.values()), ids=list(_BAD_SUMMARY))
def test_summary_report_rows_refused(tmp_path, row):
    path = tmp_path / "r.csv"
    path.write_text("\n".join([ev.REPORT_HEADER, "kmc,locations,8,0.5,nan,1", row]) + "\n")
    with pytest.raises(DataFormatError, match="row 3"):
        ev.read_report(path)


def test_summary_report_with_two_sweep_vars_refused(tmp_path):
    path = tmp_path / "r.csv"
    rows = ["dbc2,locations,8,0.5,nan,1", "dbc2,features,0+1,0.5,nan,1"]
    path.write_text("\n".join([ev.REPORT_HEADER, *rows]) + "\n")
    with pytest.raises(DataFormatError, match="row 3: sweep_var"):
        ev.read_report(path)


# accuracies: any value in [0, 1], with both zeros and the subnormals
accuracies = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1.0 - 2**-53])


@st.composite
def reports(draw):
    """(keys, raw accuracies, EvalReport): rows alternate between two rules
    over grid values 0, 1, ..., each row's summary as ``_sweep`` computes it."""
    raws = draw(st.lists(st.lists(accuracies, min_size=1, max_size=4), min_size=1, max_size=6))
    sweep_var = draw(st.sampled_from(["locations", "features"]))
    keys = [("dbc1" if i % 2 else "kmc", str(i // 2)) for i in range(len(raws))]
    rows = []
    for (alg, value), raw in zip(keys, raws):
        a = np.asarray(raw)
        stderr = float(a.std(ddof=1) / np.sqrt(a.size)) if a.size > 1 else math.nan
        rows.append(ev.ReportRow(alg, sweep_var, value, float(a.mean()), stderr, a.size, tuple(raw)))
    return keys, raws, ev.EvalReport(sweep_var, tuple(rows))


@given(report=reports())
def test_raw_report_round_trip_exact(report):
    keys, raws, report = report
    with tempfile.TemporaryDirectory() as d:
        summary, raw_path = Path(d) / "r.csv", Path(d) / "r.raw.csv"
        ev.emit_report(report, summary, raw_path=raw_path)
        back = ev.read_report_raw(raw_path)
    want = {key: [x.hex() for x in raw] for key, raw in zip(keys, raws)}
    assert {key: [x.hex() for x in accs] for key, accs in back.items()} == want


@given(report=reports())
def test_summary_report_round_trip_exact(report):
    _, _, report = report
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "r.csv"
        ev.emit_report(report, path)
        back = ev.read_report(path)
    def fields(r):
        return (r.algorithm, r.sweep_var, r.sweep_value, r.mean_accuracy.hex(),
                r.std_error.hex(), r.iterations)

    assert [fields(r) for r in back] == [fields(r) for r in report.rows]
    # std_error is NaN exactly when a row has one iteration
    assert all(math.isnan(r.std_error) == (r.iterations == 1) for r in back)
