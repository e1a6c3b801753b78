"""The workspace training step against the plain np.where step it replaced.

The reference functions below are the network's forward, backward and
SGD step as they were written before the workspace: every layer builds
fresh arrays, and the leaky ReLU and its derivative use ``np.where``.
Like the kernels, they compute in the parameters' dtype.  The workspace
kernels must reproduce them bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rssdetect import dataset as ds
from rssdetect import detector as det
from rssdetect import neural
from rssdetect import signal_model as sm
from rssdetect.evaluation import default_scenario_config
from rssdetect.neural import MlpParams, TrainConfig

SLOPES = (0.0, 0.01, 0.5, 1.0)


# --- reference: the step before the workspace --------------------------------


def leaky_ref(z, slope):
    return np.where(z > 0, z, slope * z)


def leaky_grad_ref(z, slope):
    return np.where(z > 0, 1.0, slope).astype(z.dtype)


def forward_cached_ref(params, x, slope):
    a = np.asarray(x, dtype=params.weights[0].dtype)
    pre = []
    acts = [a]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w.T + b
        pre.append(z)
        a = leaky_ref(z, slope)
        acts.append(a)
    out = (a @ params.weights[-1].T + params.biases[-1])[:, 0]
    return out, (pre, acts)


def backward_from_cache_ref(params, cache, upstream, slope):
    pre, acts = cache
    n = params.n_layers
    g_w = [None] * n
    g_b = [None] * n
    delta = np.asarray(upstream, dtype=params.weights[0].dtype)[:, None]
    g_w[n - 1] = delta.T @ acts[-1]
    g_b[n - 1] = delta.sum(axis=0)
    for layer in range(n - 2, -1, -1):
        delta = (delta @ params.weights[layer + 1]) * leaky_grad_ref(pre[layer], slope)
        g_w[layer] = delta.T @ acts[layer]
        g_b[layer] = delta.sum(axis=0)
    return MlpParams(weights=g_w, biases=g_b)


def sgd_step_ref(params, grads, learning_rate, l1_lambda=0.0):
    for layer, (w, gw) in enumerate(zip(params.weights, grads.weights)):
        if l1_lambda > 0.0 and layer == 0:
            w -= learning_rate * (gw + l1_lambda * np.sign(w))
        else:
            w -= learning_rate * gw
    for b, gb in zip(params.biases, grads.biases):
        b -= learning_rate * gb
    return params


def loss_from_stacked_ref(params, stacked, labels_h1, slope):
    n = labels_h1.shape[0]
    out, cache = forward_cached_ref(params, stacked, slope)
    g = (out[:n] + out[n:]) / 2.0
    loss = float(np.mean(np.where(labels_h1, det.softplus(-g), det.softplus(g))))
    dg = (det.sigmoid(g) - labels_h1.astype(np.float64)) / n
    upstream = np.concatenate([dg, dg]) / 2.0
    return loss, backward_from_cache_ref(params, cache, upstream, slope)


def train_detector_ref(ms, split, k_train, k_val, cfg, seed, monkeypatch):
    """``det.train_detector`` as written before the workspace, training in float32."""
    s_train, s_val, s_init, s_shuffle = np.random.SeedSequence(seed).spawn(4)
    train_pairs = ds.build_pair_set(ms, split.train_ids, k_train, seed=s_train)
    val_pairs = ds.build_pair_set(ms, split.val_ids, k_val, seed=s_val)
    mean, std = det.freeze_standardization(train_pairs)
    sizes = [3 * ms.n_features, *cfg.hidden_sizes, 1]
    params = neural.init_params(sizes, seed=s_init, scale=cfg.init_scale)
    model = det.DetectorModel(params, mean, std, cfg.negative_slope)
    n_train = len(train_pairs)
    train_stack = det._stack_both_orders(model, train_pairs.first, train_pairs.second)
    train_stack = train_stack.astype(np.float32)
    val_stack = det._stack_both_orders(model, val_pairs.first, val_pairs.second)
    val_stack = val_stack.astype(np.float32)
    n_val = len(val_pairs)
    params = params.astype(np.float32)

    def batch_grad(p, idx):
        stacked = np.concatenate([train_stack[idx], train_stack[idx + n_train]], axis=0)
        return loss_from_stacked_ref(p, stacked, train_pairs.labels[idx], cfg.negative_slope)

    def val_acc(p):
        out = forward_cached_ref(p, val_stack, cfg.negative_slope)[0]
        g = (out[:n_val] + out[n_val:]) / 2.0
        return float(np.count_nonzero((g > 0.0) == val_pairs.labels) / n_val)

    monkeypatch.setattr(neural, "sgd_step", sgd_step_ref)
    shuffle_seed = int(s_shuffle.generate_state(1)[0])
    best, history = neural.train_loop(params, n_train, batch_grad, val_acc, cfg, shuffle_seed)
    return best, history


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def bundle_bits(g: MlpParams) -> list:
    return [bits(a) for a in (*g.weights, *g.biases)]


# --- kernels ----------------------------------------------------------------

# finite float64 values with both zeros, subnormals and magnitudes near the
# overflow threshold all likely
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.7e308, -1.7e308]),
)
any_float = st.one_of(finite, st.sampled_from([math.inf, -math.inf, math.nan]))


@settings(max_examples=300, deadline=None)
@given(z=hnp.arrays(np.float64, st.integers(1, 40), elements=finite), slope=st.sampled_from(SLOPES))
@example(z=np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]), slope=0.0)
def test_leaky_kernel_matches_where(z, slope):
    out = np.empty_like(z)
    neural._leaky_relu(z, slope, out)
    assert bits(out) == bits(leaky_ref(z, slope))


@settings(max_examples=300, deadline=None)
@given(
    zd=hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.just(2)), elements=any_float),
    slope=st.sampled_from(SLOPES),
)
@np.errstate(invalid="ignore")  # 0 * inf
def test_leaky_derivative_matches_where(zd, slope):
    z, d = zd[:, 0].copy(), zd[:, 1].copy()
    want = d * leaky_grad_ref(z, slope)
    factor = np.empty_like(z)
    neural._leaky_relu_backprop(d, z, slope, factor)
    assert bits(factor) == bits(leaky_grad_ref(z, slope))
    assert bits(d) == bits(want)


@pytest.mark.parametrize("slope", SLOPES)
@np.errstate(invalid="ignore")  # 0 * inf
def test_leaky_kernel_non_finite(slope):
    z = np.array([math.inf, -math.inf, math.nan])
    out = np.empty_like(z)
    neural._leaky_relu(z, slope, out)
    want = leaky_ref(z, slope)
    if slope == 0.0:
        # the one documented difference: 0 * inf is NaN, and max keeps NaN
        assert math.isnan(out[0]) and want[0] == math.inf
        out, want = out[1:], want[1:]
    np.testing.assert_array_equal(out, want)


# --- forward, backward, SGD -------------------------------------------------


def test_reused_workspace_matches_reference_on_short_batch():
    rng = np.random.default_rng(1)
    params = neural.init_params([6, 9, 7, 8, 1], seed=2)
    ws = neural.Workspace(params, 12)
    for rows in (12, 5, 12, 1):  # the short passes use the workspace's first rows
        x = rng.normal(size=(rows, 6))
        up = rng.normal(size=rows)
        out, cache = neural.forward_cached(params, x, 0.01, ws)
        want_out, want_cache = forward_cached_ref(params, x, 0.01)
        assert bits(out) == bits(want_out)
        got = neural.backward_from_cache(params, cache, up, 0.01)
        assert bundle_bits(got) == bundle_bits(backward_from_cache_ref(params, want_cache, up, 0.01))
        assert got.weights[0] is ws.grads.weights[0]
    assert bits(neural.forward(params, x)) == bits(want_out)


def test_workspace_too_small_rejected():
    params = neural.init_params([3, 4, 1], seed=0)
    with pytest.raises(ValueError, match="exceeds"):
        neural.forward_cached(params, np.zeros((3, 3)), 0.01, neural.Workspace(params, 2))


def test_caches_without_workspace_do_not_alias():
    params = neural.init_params([4, 5, 5, 1], seed=3)
    rng = np.random.default_rng(4)
    x1, x2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    out1, cache1 = neural.forward_cached(params, x1)
    snapshot = [bits(a) for a in (out1, *cache1[0], *cache1[1])]
    grads1 = neural.backward_from_cache(params, cache1, np.ones(3))
    _, cache2 = neural.forward_cached(params, x2)
    neural.backward_from_cache(params, cache2, np.ones(3))
    assert [bits(a) for a in (out1, *cache1[0], *cache1[1])] == snapshot
    again = neural.backward_from_cache(params, cache1, np.ones(3))
    assert bundle_bits(again) == bundle_bits(grads1)


@pytest.mark.parametrize("l1_lambda", [0.0, 0.3])
def test_sgd_step_matches_reference(l1_lambda):
    rng = np.random.default_rng(5)
    params = neural.init_params([4, 6, 1], seed=6)
    params.weights[0][0, :2] = 0.0  # sign(0) = 0
    grads = MlpParams(
        weights=[rng.normal(size=w.shape) for w in params.weights],
        biases=[rng.normal(size=b.shape) for b in params.biases],
    )
    ref_params = sgd_step_ref(params.copy(), grads, 0.15, l1_lambda)  # leaves grads as they are
    neural.sgd_step(params, grads, 0.15, l1_lambda)
    assert [bits(a) for a in (*params.weights, *params.biases)] == [
        bits(a) for a in (*ref_params.weights, *ref_params.biases)
    ]


@pytest.mark.parametrize("slope", [1.5, -0.1, math.nan])
def test_slope_outside_unit_interval_rejected(slope):
    with pytest.raises(ValueError, match="negative_slope"):
        TrainConfig(negative_slope=slope)
    params = neural.init_params([2, 3, 1], seed=0)
    with pytest.raises(ValueError, match="negative_slope"):
        neural.forward(params, np.zeros(2), negative_slope=slope)


# --- a whole fit --------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        TrainConfig(hidden_sizes=(8, 8, 8), max_epochs=3, patience=3, batch_size=7),
        TrainConfig(hidden_sizes=(6, 5), max_epochs=2, patience=9, batch_size=30, negative_slope=0.0),
        TrainConfig(hidden_sizes=(), max_epochs=2, patience=9, batch_size=16),
    ],
)
def test_train_detector_matches_reference_fit(cfg, monkeypatch):
    # 40 training pairs per class: 80 pairs, so batches of 7 and 30 leave a short last batch
    scenario = sm.generate_scenario(replace(default_scenario_config(), n_locations=14), seed=1)
    ms = sm.simulate_measurement_set(scenario, 8, 16, seed=2)
    split = ds.split_locations(ms, 10, 0.8, seed=3)
    model, history = det.train_detector(ms, split, 40, 10, cfg, seed=4)
    want_params, want_history = train_detector_ref(ms, split, 40, 10, cfg, 4, monkeypatch)
    assert {a.dtype for a in (*model.params.weights, *want_params.weights)} == {np.dtype(np.float32)}
    assert [bits(a) for a in (*model.params.weights, *model.params.biases)] == [
        bits(a) for a in (*want_params.weights, *want_params.biases)
    ]
    assert repr(history.train_loss) == repr(want_history.train_loss)
    assert repr(history.val_accuracy) == repr(want_history.val_accuracy)


# --- float32 parameters ---------------------------------------------------------


def close32(got, want) -> bool:
    """Agreement to float32 precision, relative to the float64 array's scale."""
    return np.abs(got - want).max() <= 1e-5 * max(1.0, np.abs(want).max())


def test_float32_params_run_in_float32():
    rng = np.random.default_rng(7)
    params64 = neural.init_params([6, 9, 7, 8, 1], seed=8)
    params32 = params64.astype(np.float32)
    x = rng.normal(size=(5, 6))  # float64 input: cast to the params' dtype
    up = rng.normal(size=5)
    out32, cache32 = neural.forward_cached(params32, x)
    grads32 = neural.backward_from_cache(params32, cache32, up)
    out64, cache64 = neural.forward_cached(params64, x)
    grads64 = neural.backward_from_cache(params64, cache64, up)

    ws = cache32[2]
    buffers = (*ws.pre, *ws.acts, *ws.delta, ws.out, ws.factor, *grads32.weights, *grads32.biases)
    assert {a.dtype for a in (out32, *buffers)} == {np.dtype(np.float32)}
    assert all(a.dtype == np.float64 for a in (out64, *grads64.weights, *grads64.biases))
    assert close32(out32, out64)
    for got, want in zip((*grads32.weights, *grads32.biases), (*grads64.weights, *grads64.biases)):
        assert close32(got, want)

    plain = neural.forward(params32, x)
    assert plain.dtype == np.float32
    assert plain.tobytes() == out32.tobytes()
    assert isinstance(neural.forward(params32, x[0]), float)

