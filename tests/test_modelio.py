import copy
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rssdetect import modelio, neural
from rssdetect.benchmarks import DbcModel, KmcModel, decide_dbc, decide_kmc
from rssdetect.detector import DetectorModel, decide
from rssdetect.errors import DataFormatError


def test_detector_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = neural.init_params([9, 7, 6, 5, 1], seed=1)
    model = DetectorModel(
        params=params,
        feature_mean=rng.normal(size=3),
        feature_std=np.abs(rng.normal(size=3)) + 0.1,
        negative_slope=0.02,
    )
    path = tmp_path / "dnnc.model"
    modelio.save_model(model, path)
    back = modelio.load_model(path)
    assert isinstance(back, DetectorModel)
    assert back.negative_slope == 0.02
    assert np.array_equal(back.feature_mean, model.feature_mean)
    for a, b in zip(back.params.weights, model.params.weights):
        assert np.array_equal(a, b)
    f, fp = rng.normal(size=3), rng.normal(size=3)
    assert decide(back, f, fp).statistic == decide(model, f, fp).statistic


def test_float32_detector_file(tmp_path):
    # a float32 model is saved under its own tag with f32 weights, half the bytes
    rng = np.random.default_rng(0)
    params64 = neural.init_params([9, 7, 6, 5, 1], seed=1).astype(np.float32).astype(np.float64)
    mean, std = rng.normal(size=3), np.abs(rng.normal(size=3)) + 0.1
    model64 = DetectorModel(params64, mean, std, negative_slope=0.02)
    model32 = DetectorModel(params64.astype(np.float32), mean, std, negative_slope=0.02)
    path64, path32 = tmp_path / "dnnc64.model", tmp_path / "dnnc32.model"
    modelio.save_model(model64, path64)
    modelio.save_model(model32, path32)
    data64, data32 = path64.read_bytes(), path32.read_bytes()
    assert data64[8:12] == b"DNNC" and data32[8:12] == b"DN32"
    n_params = sum(w.size + b.size for w, b in zip(params64.weights, params64.biases))
    assert len(data64) - len(data32) == 4 * n_params
    # everything before the weights is the same bytes
    assert data32[12:_W0] == data64[12:_W0]
    back32, back64 = modelio.load_model(path32), modelio.load_model(path64)
    for a32, b32, a64 in zip(
        (*back32.params.weights, *back32.params.biases),
        (*model32.params.weights, *model32.params.biases),
        (*back64.params.weights, *back64.params.biases),
    ):
        assert a32.dtype == np.float32 and a64.dtype == np.float64
        assert a32.tobytes() == b32.tobytes()
        assert a32.astype(np.float64).tobytes() == a64.tobytes()
    f, fp = rng.normal(size=3), rng.normal(size=3)
    assert modelio.decide_any(back32, f, fp) == modelio.decide_any(model32, f, fp)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_float32_weight(tmp_path, bad):
    model = DetectorModel(
        neural.init_params([6, 4, 1], seed=2).astype(np.float32), np.zeros(2), np.ones(2)
    )
    path = tmp_path / "dnnc32.model"
    modelio.save_model(model, path)
    # 12-byte header, u32 layer count, u32 sizes[3], f64 slope, u32 M, f64 mean[2], f64 std[2]
    patch(path, 12 + 4 + 12 + 8 + 4 + 32 + 4 * 5, "<f", bad)
    with pytest.raises(DataFormatError, match="non-finite weights"):
        modelio.load_model(path)


@pytest.mark.parametrize("order", [1, 2])
def test_dbc_round_trip(tmp_path, order):
    model = DbcModel(norm_order=order, threshold=-3.25)
    path = tmp_path / "dbc.model"
    modelio.save_model(model, path)
    back = modelio.load_model(path)
    assert isinstance(back, DbcModel)
    assert back.norm_order == order and back.threshold == -3.25


def test_kmc_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    model = KmcModel(centroids=rng.normal(size=(5, 4)), threshold=1.75)
    path = tmp_path / "kmc.model"
    modelio.save_model(model, path)
    back = modelio.load_model(path)
    assert isinstance(back, KmcModel)
    assert np.array_equal(back.centroids, model.centroids)
    assert back.threshold == 1.75


def test_decide_any_dispatch(tmp_path):
    model = DbcModel(norm_order=2, threshold=1.0)
    d = modelio.decide_any(model, np.zeros(2), np.array([3.0, 4.0]))
    assert d.statistic == 4.0


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.model"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(DataFormatError, match="magic"):
        modelio.load_model(path)


def test_truncated_file(tmp_path):
    model = DbcModel(norm_order=1, threshold=2.0)
    path = tmp_path / "trunc.model"
    modelio.save_model(model, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(DataFormatError, match="truncated"):
        modelio.load_model(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "future.model"
    path.write_bytes(b"RSSM" + (99).to_bytes(4, "little") + b"DBC1" + b"\0" * 8)
    with pytest.raises(DataFormatError, match="version"):
        modelio.load_model(path)


# --- malformed files --------------------------------------------------------
# offsets into the file written for dnnc_file: 12-byte header, u32 layer
# count, u32 sizes[5], f64 slope, u32 M, f64 mean[3], f64 std[3], then W0
_SLOPE, _MEAN, _STD, _W0 = 36, 48, 72, 96
_B0 = _W0 + 8 * 7 * 9


def dnnc_file(tmp_path):
    rng = np.random.default_rng(0)
    model = DetectorModel(
        params=neural.init_params([9, 7, 6, 5, 1], seed=1),
        feature_mean=rng.normal(size=3),
        feature_std=np.abs(rng.normal(size=3)) + 0.1,
        negative_slope=0.02,
    )
    path = tmp_path / "dnnc.model"
    modelio.save_model(model, path)
    return path


def patch(path, offset: int, fmt: str, value) -> None:
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))


def test_dnnc_offsets_point_at_fields(tmp_path):
    path = dnnc_file(tmp_path)
    model = modelio.load_model(path)
    data = path.read_bytes()
    assert struct.unpack_from("<d", data, _SLOPE)[0] == 0.02
    assert struct.unpack_from("<d", data, _MEAN)[0] == model.feature_mean[0]
    assert struct.unpack_from("<d", data, _STD)[0] == model.feature_std[0]
    assert struct.unpack_from("<d", data, _W0)[0] == model.params.weights[0][0, 0]
    assert struct.unpack_from("<d", data, _B0)[0] == model.params.biases[0][0]


@pytest.mark.parametrize(
    "offset, what", [(_W0, "weights"), (_B0, "biases"), (_MEAN, "mean"), (_STD, "std"), (_SLOPE, "slope")]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_dnnc_field(tmp_path, offset, what, bad):
    path = dnnc_file(tmp_path)
    patch(path, offset, "<d", bad)
    with pytest.raises(DataFormatError, match=f"non-finite .*{what}"):
        modelio.load_model(path)


@pytest.mark.parametrize("std", [0.0, -1.0])
def test_non_positive_std(tmp_path, std):
    path = dnnc_file(tmp_path)
    patch(path, _STD + 8, "<d", std)
    with pytest.raises(DataFormatError, match="feature_std"):
        modelio.load_model(path)


@pytest.mark.parametrize("slope", [1.5, -0.25])
def test_slope_outside_unit_interval(tmp_path, slope):
    path = dnnc_file(tmp_path)
    patch(path, _SLOPE, "<d", slope)
    with pytest.raises(DataFormatError, match="slope"):
        modelio.load_model(path)


def test_layer_sizes_must_end_in_one_output(tmp_path):
    path = dnnc_file(tmp_path)
    patch(path, 12 + 4 + 4 * 4, "<I", 2)
    with pytest.raises(DataFormatError, match="one output"):
        modelio.load_model(path)


@pytest.mark.parametrize(
    "model",
    [DbcModel(norm_order=1, threshold=2.0), KmcModel(centroids=np.ones((2, 3)), threshold=0.5)],
)
def test_nan_threshold(tmp_path, model):
    path = tmp_path / "m.model"
    modelio.save_model(model, path)
    patch(path, len(path.read_bytes()) - 8, "<d", math.nan)
    with pytest.raises(DataFormatError, match="threshold"):
        modelio.load_model(path)


@pytest.mark.parametrize("threshold", [math.inf, -math.inf])
def test_infinite_threshold_round_trips(tmp_path, threshold):
    # tune_threshold returns these sentinels when one class fills every side
    path = tmp_path / "dbc.model"
    modelio.save_model(DbcModel(norm_order=2, threshold=threshold), path)
    assert modelio.load_model(path).threshold == threshold


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_centroid(tmp_path, bad):
    path = tmp_path / "kmc.model"
    modelio.save_model(KmcModel(centroids=np.ones((2, 3)), threshold=0.5), path)
    patch(path, 12 + 8 + 8 * 4, "<d", bad)  # centroid [1, 1]
    with pytest.raises(DataFormatError, match="non-finite centroids"):
        modelio.load_model(path)


@pytest.mark.parametrize(
    "model",
    [
        DbcModel(norm_order=1, threshold=2.0),
        KmcModel(centroids=np.ones((2, 3)), threshold=0.5),
        None,  # the DNNC file
    ],
)
def test_trailing_bytes(tmp_path, model):
    if model is None:
        path = dnnc_file(tmp_path)
    else:
        path = tmp_path / "m.model"
        modelio.save_model(model, path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(DataFormatError, match="1 trailing bytes"):
        modelio.load_model(path)


def test_kmc_file_without_centroids(tmp_path):
    # hand-built: kappa = 0, M = 3, no centroid values, threshold -0.5
    path = tmp_path / "kmc.model"
    path.write_bytes(b"RSSM" + struct.pack("<I", 1) + b"KMC\0" + struct.pack("<IId", 0, 3, -0.5))
    with pytest.raises(DataFormatError, match="kappa >= 1"):
        modelio.load_model(path)


@pytest.mark.parametrize(
    "centroids", [np.zeros((0, 3)), np.zeros((2, 0)), np.zeros(3), np.zeros((1, 2, 3))]
)
def test_kmc_model_needs_a_centroid_matrix(centroids):
    with pytest.raises(ValueError, match="kappa >= 1"):
        KmcModel(centroids=centroids, threshold=-0.5)


def test_dnnc_file_without_features(tmp_path):
    # hand-built: one layer of sizes [0, 1], slope 0.01, M = 0, bias 0.5
    path = tmp_path / "dnnc.model"
    payload = struct.pack("<III", 1, 0, 1) + struct.pack("<d", 0.01) + struct.pack("<I", 0)
    path.write_bytes(b"RSSM" + struct.pack("<I", 1) + b"DNNC" + payload + struct.pack("<d", 0.5))
    with pytest.raises(DataFormatError, match="at least one feature"):
        modelio.load_model(path)


@pytest.mark.parametrize(
    "model", [DbcModel(norm_order=1, threshold=-0.5), KmcModel(centroids=np.ones((2, 3)), threshold=-0.5)]
)
def test_no_decision_without_features(model):
    with pytest.raises(ValueError, match="at least one feature"):
        modelio.decide_any(model, np.zeros(0), np.zeros(0))


@pytest.mark.parametrize("shape", [(1,), (5,), (3, 1), (3, 5)])
def test_dnnc_rejects_wrong_feature_count(shape):
    # standardizing would broadcast a 1-feature input against 4 features
    model = DetectorModel(
        params=neural.init_params([12, 4, 1], seed=0),
        feature_mean=np.zeros(4),
        feature_std=np.ones(4),
    )
    f, fp = np.ones(shape), np.zeros(shape)
    with pytest.raises(ValueError, match=f"feature length {shape[-1]} does not match"):
        model.statistic_batch(f, fp)
    with pytest.raises(ValueError, match=f"feature length {shape[-1]} does not match"):
        modelio.decide_any(model, f, fp)


# one model of each rule over M = 4 features; DBC has no feature count to
# check.  The DNNC has float32 parameters, as a trained one has.
M = 4
RULES = {
    "dnnc": DetectorModel(
        params=neural.init_params([3 * M, 5, 1], seed=3).astype(np.float32),
        feature_mean=np.zeros(M),
        feature_std=np.ones(M),
    ),
    "dbc1": DbcModel(norm_order=1, threshold=0.5),
    "dbc2": DbcModel(norm_order=2, threshold=0.5),
    "kmc": KmcModel(centroids=np.arange(2.0 * M).reshape(2, M), threshold=0.5),
}


@st.composite
def refused_pair(draw, rule):
    """A pair of equal-shape inputs that break exactly one part of the input contract.

    For the DNNC that includes a finite entry whose standardized value
    does not fit in its float32 parameters.
    """
    breaks = ["rank", "dtype", "non-finite"]
    breaks += ["feature count"] if rule in ("dnnc", "kmc") else []
    breaks += ["float32 range"] if rule == "dnnc" else []
    broken = draw(st.sampled_from(breaks))
    m = draw(st.integers(1, 7).filter(lambda k: k != M)) if broken == "feature count" else M
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    finite = st.floats(-1e6, 1e6)
    f, fp = (draw(hnp.arrays(np.float64, (*batch, m), elements=finite)) for _ in range(2))
    if broken == "rank":
        if draw(st.booleans()):
            f, fp = f.reshape(-1)[0], fp.reshape(-1)[0]  # 0-d
        else:
            f, fp = f[None, None], fp[None, None]  # rank 3 or 4
    elif broken == "dtype":
        dtype = draw(st.sampled_from([np.complex128, object, str]))
        slots = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
        f, fp = (a.astype(dtype) if cast else a for a, cast in zip((f, fp), slots))
    elif broken == "non-finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        target = (f, fp)[draw(st.integers(0, 1))]
        target[tuple(draw(st.integers(0, n - 1)) for n in target.shape)] = bad
    elif broken == "float32 range":
        big = draw(st.floats(3.5e38, 1.7e308)) * draw(st.sampled_from([1.0, -1.0]))
        target = (f, fp)[draw(st.integers(0, 1))]
        target[tuple(draw(st.integers(0, n - 1)) for n in target.shape)] = big
    return f, fp


@pytest.mark.parametrize("rule", sorted(RULES))
@given(data=st.data())
def test_decide_any_refuses_input_outside_the_contract(rule, data):
    f, fp = data.draw(refused_pair(rule))
    with pytest.raises(ValueError):
        modelio.decide_any(RULES[rule], f, fp)


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("b", [1, 3])
def test_one_pair_decisions_refuse_batches(rule, b):
    # a batch scores with statistic_batch; a decision is one pair, even at B = 1
    model = RULES[rule]
    f, fp = np.zeros((b, M)), np.ones((b, M))
    own_decide = {"dbc1": decide_dbc, "dbc2": decide_dbc, "kmc": decide_kmc, "dnnc": decide}[rule]
    for decide_fn in (modelio.decide_any, decide, own_decide):
        with pytest.raises(ValueError, match=rf"batch of shape \({b}, {M}\)"):
            decide_fn(model, f, fp)
        with pytest.raises(ValueError, match="shape mismatch"):
            decide_fn(model, f[0], fp)
    assert model.statistic_batch(f, fp).shape == (b,)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_empty_batch_scores_to_an_empty_array(rule):
    model = RULES[rule]
    g = model.statistic_batch(np.zeros((0, M)), np.zeros((0, M)))
    assert isinstance(g, np.ndarray) and g.shape == (0,)
    # the model itself is sound: a valid pair decides
    f, fp = np.zeros(M), np.arange(1.0, M + 1)
    assert modelio.decide_any(model, f, fp).statistic == model.statistic_batch(f, fp)


# --- every model that constructs loads back ----------------------------------


def _dnnc(**changes) -> DetectorModel:
    fields = dict(
        params=neural.init_params([3 * M, 5, 1], seed=3),
        feature_mean=np.zeros(M),
        feature_std=np.ones(M),
    )
    return DetectorModel(**{**fields, **changes})


def _dnnc_with_weight(value) -> DetectorModel:
    params = neural.init_params([3 * M, 5, 1], seed=3)
    params.weights[0][1, 2] = value
    return _dnnc(params=params)


def _dnnc_with_layers(sizes, bias_sizes) -> DetectorModel:
    rng = np.random.default_rng(0)
    weights = [rng.normal(size=(o, i)) for i, o in sizes]
    return _dnnc(params=neural.MlpParams(weights, [np.zeros(o) for o in bias_sizes]))


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: _dnnc(params=neural.init_params([3 * M, 5, 2], seed=3)), "one output"),
        (lambda: _dnnc(negative_slope=2.0), "negative_slope"),
        (lambda: _dnnc_with_weight(math.inf), "non-finite weights"),
        (lambda: _dnnc(feature_mean=np.r_[np.zeros(M - 1), math.nan]), "non-finite feature mean"),
        (lambda: DbcModel(2, math.nan), "threshold is NaN"),
        (lambda: KmcModel(np.r_[[[0.0] * M], [[math.nan] * M]], 0.5), "non-finite centroids"),
        (lambda: KmcModel(np.ones((2, M)), math.nan), "threshold is NaN"),
        # layers that do not chain, and a bias of the wrong length
        (lambda: _dnnc_with_layers([(3 * M, 5), (7, 4), (4, 1)], [5, 4, 1]), "do not chain"),
        (lambda: _dnnc_with_layers([(3 * M, 5), (5, 1)], [3, 1]), "do not chain"),
    ],
)
def test_model_that_would_not_load_is_refused_at_construction(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@st.composite
def built_model(draw):
    """The outcome of constructing a model from drawn fields: a model, or
    the ``ValueError`` its class raised.  Most fields are valid; a drawn
    few hold a non-finite value, a slope outside [0, 1], a std <= 0, two
    network outputs, a bias of the wrong length or no centroid."""
    special = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.0, -1.0])
    scalar = st.floats(-1e300, 1e300)
    entry = st.floats(-1e4, 1e4, width=32)  # fits either dtype
    if draw(st.booleans()):
        scalar, entry = st.one_of(scalar, special), st.one_of(entry, special)

    def array(shape, dtype=np.float64):
        a = draw(hnp.arrays(dtype, shape, elements=st.floats(-1e4, 1e4, width=32)))
        if a.size and draw(st.booleans()):
            a.reshape(-1)[draw(st.integers(0, a.size - 1))] = draw(entry)
        return a

    kind = draw(st.sampled_from(["dnnc", "dbc", "kmc"]))
    try:
        if kind == "dbc":
            return DbcModel(draw(st.sampled_from([1, 2])), draw(scalar))
        if kind == "kmc":
            kappa, m = draw(st.integers(0, 3)), draw(st.integers(1, 3))
            return KmcModel(array((kappa, m)), draw(scalar))
        m = draw(st.integers(1, 3))
        sizes = [3 * m, *draw(st.lists(st.integers(1, 4), max_size=2)), draw(st.sampled_from([1, 1, 2]))]
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        params = neural.MlpParams(
            weights=[array((o, i), dtype) for i, o in zip(sizes[:-1], sizes[1:])],
            biases=[array((o + draw(st.sampled_from([0, 0, 0, 1])),), dtype) for o in sizes[1:]],
        )
        std = np.abs(array((m,))) + draw(st.sampled_from([0.0, 1e-8, 1.0]))
        return DetectorModel(params, array((m,)), std, negative_slope=draw(scalar))
    except ValueError as exc:
        return exc


def _model_bits(model) -> list:
    if isinstance(model, DetectorModel):
        arrays = (*model.params.weights, *model.params.biases, model.feature_mean, model.feature_std)
        scalars = (model.negative_slope,)
    elif isinstance(model, KmcModel):
        arrays, scalars = (model.centroids,), (model.threshold,)
    else:
        arrays, scalars = (), (model.norm_order, model.threshold)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays] + [np.float64(s).tobytes() for s in scalars]


@given(model=built_model())
def test_every_model_that_constructs_loads_back_bit_for_bit(tmp_path_factory, model):
    if isinstance(model, ValueError):
        return  # refused at construction, so never saved
    path = tmp_path_factory.mktemp("model") / "m.model"
    modelio.save_model(model, path)
    back = modelio.load_model(path)
    assert type(back) is type(model)
    assert _model_bits(back) == _model_bits(model)


def _array_holders():
    """One of every dataclass with array fields, built by the package."""
    from rssdetect import benchmarks, dataset, signal_model

    scenario = signal_model.generate_scenario(signal_model.ScenarioConfig(n_locations=4), seed=1)
    ms = dataset.MeasurementSet(
        values=np.random.default_rng(2).normal(size=(6, 3, 4)), location_ids=np.arange(6)
    )
    params = neural.init_params([12, 5, 1], seed=3)
    return [
        DetectorModel(params=params, feature_mean=np.zeros(4), feature_std=np.ones(4)),
        params,
        KmcModel(centroids=np.eye(3, 4), threshold=0.5),
        ms,
        benchmarks.lloyd_kmeans(ms.values.reshape(-1, 4), 3, seed=4),
        dataset.build_pair_set(ms, ms.location_ids, 2, seed=5),
        dataset.split_locations(ms, 6, 0.5, seed=6),
        scenario,
        signal_model.draw_sample_window(scenario, 0, 0, 8, seed=7),
    ]


@pytest.mark.parametrize("value", _array_holders(), ids=lambda v: type(v).__name__)
def test_array_dataclasses_compare_by_identity(value):
    # the generated __eq__ would compare numpy arrays and raise; identity answers
    twin = copy.deepcopy(value)
    assert value == value
    assert value != twin
    assert isinstance(hash(value), int) and hash(value) == hash(value)
