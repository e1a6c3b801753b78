import math

import numpy as np
import pytest

from rssdetect import neural
from rssdetect.errors import NonFiniteLossError
from rssdetect.neural import MlpParams, TrainConfig


def forward_by_loops(params: MlpParams, x: np.ndarray, slope: float) -> float:
    """Independent oracle: neuron-by-neuron evaluation with plain python."""
    a = [float(v) for v in x]
    n = params.n_layers
    for layer in range(n):
        w, b = params.weights[layer], params.biases[layer]
        out = []
        for i in range(w.shape[0]):
            z = b[i] + sum(w[i, j] * a[j] for j in range(w.shape[1]))
            if layer < n - 1 and z <= 0:
                z *= slope
            out.append(z)
        a = out
    return a[0]


def gradients(params: MlpParams, x, upstream) -> MlpParams:
    """``forward_cached`` + ``backward_from_cache`` on a fresh workspace.

    A single input vector takes a scalar upstream; batch gradients are summed.
    """
    x = np.atleast_2d(x)
    _, cache = neural.forward_cached(params, x)
    return neural.backward_from_cache(params, cache, np.reshape(upstream, x.shape[0]))


class TestInit:
    def test_paper_architecture_shapes(self):
        params = neural.init_params([6, 512, 512, 512, 1], seed=0)
        shapes = [w.shape for w in params.weights]
        assert shapes == [(512, 6), (512, 512), (512, 512), (1, 512)]
        assert all(np.all(b == 0.0) for b in params.biases)

    def test_deterministic(self):
        a = neural.init_params([4, 8, 1], seed=3)
        b = neural.init_params([4, 8, 1], seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_fan_in_scaling(self):
        params = neural.init_params([100, 50, 1], seed=1)
        assert np.abs(params.weights[0]).max() <= 1.0 / math.sqrt(100)
        assert np.abs(params.weights[1]).max() <= 1.0 / math.sqrt(50)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            neural.init_params([5], seed=0)

    @pytest.mark.parametrize("sizes", [[0, 4, 1], [6, 0, 1], [6, 4, -2]])
    def test_non_positive_size_named(self, sizes):
        bad = min(sizes)
        with pytest.raises(ValueError, match=f"got {bad} in"):
            neural.init_params(sizes, seed=0)


@pytest.mark.parametrize("hidden", [(0,), (8, -2), (8, 0, 8)])
def test_train_config_rejects_non_positive_hidden_size(hidden):
    with pytest.raises(ValueError, match="hidden_sizes"):
        TrainConfig(hidden_sizes=hidden)


class TestForward:
    def test_zero_params_give_zero(self):
        params = neural.init_params([3, 4, 4, 4, 1], seed=0)
        for w in params.weights:
            w[:] = 0.0
        assert neural.forward(params, np.array([1.0, -2.0, 3.0])) == 0.0

    def test_positive_path_is_chained_affine(self):
        # all-positive weights and inputs keep every preactivation positive,
        # so leaky-ReLU is the identity
        rng = np.random.default_rng(4)
        params = MlpParams(
            weights=[
                rng.uniform(0.1, 1.0, size=(4, 3)),
                rng.uniform(0.1, 1.0, size=(3, 4)),
                rng.uniform(0.1, 1.0, size=(1, 3)),
            ],
            biases=[np.zeros(4), np.zeros(3), np.zeros(1)],
        )
        x = rng.uniform(0.1, 1.0, size=3)
        want = (params.weights[2] @ (params.weights[1] @ (params.weights[0] @ x)))[0]
        assert neural.forward(params, x) == pytest.approx(want, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        params = neural.init_params([5, 7, 6, 4, 1], seed=6)
        for _ in range(20):
            x = rng.normal(size=5)
            got = neural.forward(params, x, negative_slope=0.01)
            assert got == pytest.approx(forward_by_loops(params, x, 0.01), rel=1e-12, abs=1e-15)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        params = neural.init_params([4, 9, 9, 9, 1], seed=7)
        xs = rng.normal(size=(11, 4))
        batch = neural.forward(params, xs)
        singles = np.array([neural.forward(params, x) for x in xs])
        assert batch == pytest.approx(singles, rel=1e-12)

    def test_dimension_mismatch(self):
        params = neural.init_params([4, 3, 1], seed=0)
        with pytest.raises(ValueError, match="width"):
            neural.forward(params, np.zeros(5))

    def test_positive_branch_homogeneity(self):
        # with positive preactivations and zero final bias, doubling the last
        # layer weights doubles the output bit-exactly
        rng = np.random.default_rng(7)
        params = MlpParams(
            weights=[rng.uniform(0.1, 1.0, size=(5, 3)), rng.uniform(0.1, 1.0, size=(1, 5))],
            biases=[np.zeros(5), np.zeros(1)],
        )
        x = rng.uniform(0.1, 1.0, size=3)
        base = neural.forward(params, x)
        params.weights[-1] *= 2.0
        assert neural.forward(params, x) == 2.0 * base


class TestBackward:
    def test_finite_differences(self):
        rng = np.random.default_rng(8)
        params = neural.init_params([5, 7, 6, 4, 1], seed=9)
        x = rng.normal(size=5)
        upstream = 1.3
        grads = gradients(params, x, upstream)
        h = 1e-5
        checked = 0
        for _ in range(100):
            layer = int(rng.integers(0, 4))
            if rng.random() < 0.8:
                arr, garr = params.weights[layer], grads.weights[layer]
                idx = (int(rng.integers(arr.shape[0])), int(rng.integers(arr.shape[1])))
            else:
                arr, garr = params.biases[layer], grads.biases[layer]
                idx = (int(rng.integers(arr.shape[0])),)
            orig = arr[idx]
            arr[idx] = orig + h
            up = upstream * neural.forward(params, x)
            arr[idx] = orig - h
            down = upstream * neural.forward(params, x)
            arr[idx] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - garr[idx]) < 1e-4 * max(1.0, abs(fd))
            checked += 1
        assert checked == 100

    def test_zero_upstream_gives_zero_bundle(self):
        params = neural.init_params([3, 4, 1], seed=1)
        grads = gradients(params, np.ones(3), 0.0)
        assert all(np.all(g == 0) for g in grads.weights)
        assert all(np.all(g == 0) for g in grads.biases)

    def test_single_linear_layer_gradient_is_input(self):
        params = MlpParams(weights=[np.array([[0.5, -0.25, 2.0]])], biases=[np.zeros(1)])
        x = np.array([1.0, 2.0, 3.0])
        grads = gradients(params, x, 1.0)
        assert np.array_equal(grads.weights[0], x[None, :])

    def test_batch_sums_per_sample_gradients(self):
        rng = np.random.default_rng(9)
        params = neural.init_params([4, 6, 1], seed=2)
        xs = rng.normal(size=(5, 4))
        ups = rng.normal(size=5)
        batch = gradients(params, xs, ups)
        acc = [np.zeros_like(w) for w in params.weights]
        for x, u in zip(xs, ups):
            g = gradients(params, x, u)
            for a, gw in zip(acc, g.weights):
                a += gw
        for got, want in zip(batch.weights, acc):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestSgdStep:
    def _params(self):
        return MlpParams(
            weights=[np.array([[1.0, -2.0]]), np.array([[0.5]])],
            biases=[np.array([0.1]), np.array([-0.3])],
        )

    def test_plain_update_when_lambda_zero(self):
        params = self._params()
        grads = MlpParams(
            weights=[np.array([[0.2, 0.4]]), np.array([[-1.0]])],
            biases=[np.array([1.0]), np.array([2.0])],
        )
        neural.sgd_step(params, grads, learning_rate=0.1, l1_lambda=0.0)
        assert params.weights[0] == pytest.approx(np.array([[0.98, -2.04]]))
        assert params.weights[1] == pytest.approx(np.array([[0.6]]))
        assert params.biases[0] == pytest.approx(np.array([0.0]))

    def test_pure_penalty_step(self):
        params = self._params()
        zero = MlpParams(
            weights=[np.zeros((1, 2)), np.zeros((1, 1))],
            biases=[np.zeros(1), np.zeros(1)],
        )
        neural.sgd_step(params, zero, learning_rate=0.1, l1_lambda=0.5)
        # the first layer shrinks toward zero by lr*lambda*sign; rest untouched
        assert params.weights[0] == pytest.approx(np.array([[0.95, -1.95]]))
        assert params.weights[1] == pytest.approx(np.array([[0.5]]))
        assert params.biases[0] == pytest.approx(np.array([0.1]))

    def test_one_dimensional_quadratic(self):
        # loss (w - 3)^2 / 2, gradient w - 3, lr 0.1, start 0 -> w = 0.3
        params = MlpParams(weights=[np.array([[0.0]])], biases=[np.zeros(1)])
        grads = MlpParams(weights=[np.array([[0.0 - 3.0]])], biases=[np.zeros(1)])
        neural.sgd_step(params, grads, learning_rate=0.1)
        assert params.weights[0][0, 0] == pytest.approx(0.3)

    def test_sign_of_zero_is_zero(self):
        params = MlpParams(weights=[np.array([[0.0]])], biases=[np.zeros(1)])
        zero = MlpParams(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
        neural.sgd_step(params, zero, learning_rate=0.1, l1_lambda=10.0)
        assert params.weights[0][0, 0] == 0.0


def constant_grad_fn(value=0.5):
    def fn(params, idx):
        zeros = MlpParams(
            weights=[np.zeros_like(w) for w in params.weights],
            biases=[np.zeros_like(b) for b in params.biases],
        )
        return value, zeros

    return fn


class TestTrainLoop:
    def test_single_epoch(self):
        params = neural.init_params([2, 3, 1], seed=0)
        cfg = TrainConfig(max_epochs=1, patience=math.inf, batch_size=4, hidden_sizes=(3,))
        best, history = neural.train_loop(params, 8, constant_grad_fn(), lambda p: 0.75, cfg, seed=0)
        assert history.n_epochs == 1
        assert history.val_accuracy == [0.75]

    def test_decreasing_accuracy_stops_after_patience(self):
        params = neural.init_params([2, 3, 1], seed=0)
        seq = iter([0.9 - 0.01 * i for i in range(100)])
        cfg = TrainConfig(max_epochs=100, patience=7, batch_size=4, hidden_sizes=(3,))
        _, history = neural.train_loop(params, 8, constant_grad_fn(), lambda p: next(seq), cfg, seed=0)
        assert history.n_epochs == 7 + 1

    def test_best_snapshot_is_earliest_max(self):
        # the grad_fn nudges a weight every batch, so each epoch's params are
        # distinguishable; accuracy peaks at epoch 2 and ties at epoch 4
        params = MlpParams(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])

        def bump(p, idx):
            zeros = MlpParams(weights=[np.full((1, 1), -1.0)], biases=[np.zeros(1)])
            return 0.1, zeros  # sgd adds +lr per batch

        seq = iter([0.1, 0.8, 0.3, 0.8, 0.2, 0.1, 0.1, 0.1, 0.1])
        cfg = TrainConfig(
            max_epochs=9, patience=7, batch_size=8, learning_rate=1.0, l1_lambda=0.0,
            hidden_sizes=(),
        )
        best, history = neural.train_loop(params, 8, bump, lambda p: next(seq), cfg, seed=0)
        assert history.best_epoch() == 1  # 0-based epoch of the first 0.8
        assert best.weights[0][0, 0] == pytest.approx(2.0)  # two epochs of +1

    def test_returned_params_achieve_recorded_maximum(self):
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(64, 3))
        ys = np.sign(xs[:, 0] + 0.5 * xs[:, 1])
        params = neural.init_params([3, 8, 8, 8, 1], seed=4)

        def grad_fn(p, idx):
            out = neural.forward(p, xs[idx])
            margin = -ys[idx] * out
            loss = float(np.mean(np.logaddexp(0.0, margin)))
            dout = -ys[idx] / (1.0 + np.exp(-margin)) / idx.size
            return loss, gradients(p, xs[idx], dout)

        def val_fn(p):
            return float(np.mean(np.sign(neural.forward(p, xs)) == ys))

        cfg = TrainConfig(
            max_epochs=30, patience=30, batch_size=16, learning_rate=0.05, hidden_sizes=(8, 8, 8)
        )
        best, history = neural.train_loop(params, 64, grad_fn, val_fn, cfg, seed=0)
        assert val_fn(best) == max(history.val_accuracy)

    def test_separable_toy_reaches_perfect_validation(self):
        # two well-separated clusters labeled by cluster membership
        rng = np.random.default_rng(13)
        n = 128
        labels = rng.integers(0, 2, size=n) * 2 - 1
        xs = labels[:, None] * 3.0 + rng.normal(0, 0.4, size=(n, 2))
        params = neural.init_params([2, 16, 16, 16, 1], seed=5)

        def grad_fn(p, idx):
            out = neural.forward(p, xs[idx])
            margin = -labels[idx] * out
            loss = float(np.mean(np.logaddexp(0.0, margin)))
            dout = -labels[idx] / (1.0 + np.exp(-margin)) / idx.size
            return loss, gradients(p, xs[idx], dout)

        def val_fn(p):
            return float(np.mean(np.sign(neural.forward(p, xs)) == labels))

        cfg = TrainConfig(
            max_epochs=200, patience=200, batch_size=32, learning_rate=0.1, hidden_sizes=(16, 16, 16)
        )
        best, history = neural.train_loop(params, n, grad_fn, val_fn, cfg, seed=0)
        assert max(history.val_accuracy) == 1.0
        assert history.n_epochs <= 200

    def test_large_l1_drives_first_layer_to_zero(self):
        params = neural.init_params([4, 6, 1], seed=6)
        start = np.abs(params.weights[0]).max()
        cfg = TrainConfig(
            max_epochs=60,
            patience=math.inf,
            batch_size=8,
            learning_rate=0.01,
            l1_lambda=1.0,
            hidden_sizes=(6,),
        )
        best, _ = neural.train_loop(params, 8, constant_grad_fn(), lambda p: 0.5, cfg, seed=0)
        # weights oscillate within one penalty step of zero by the end
        assert np.abs(params.weights[0]).max() <= 0.011
        assert np.abs(params.weights[0]).max() < start

    def test_bit_identical_reruns(self):
        def run():
            params = neural.init_params([3, 5, 1], seed=7)
            rng = np.random.default_rng(55)
            xs = rng.normal(size=(32, 3))
            ys = np.sign(xs.sum(axis=1) + 0.1)

            def grad_fn(p, idx):
                out = neural.forward(p, xs[idx])
                margin = -ys[idx] * out
                loss = float(np.mean(np.logaddexp(0.0, margin)))
                dout = -ys[idx] / (1.0 + np.exp(-margin)) / idx.size
                return loss, gradients(p, xs[idx], dout)

            cfg = TrainConfig(max_epochs=10, patience=10, batch_size=8, hidden_sizes=(5,))
            def val_fn(p):
                return float(np.mean(np.sign(neural.forward(p, xs)) == ys))

            return neural.train_loop(params, 32, grad_fn, val_fn, cfg, seed=0)[1]

        h1, h2 = run(), run()
        assert h1.train_loss == h2.train_loss
        assert h1.val_accuracy == h2.val_accuracy

    def test_non_finite_loss_aborts_with_hint(self):
        params = neural.init_params([2, 3, 1], seed=8)
        cfg = TrainConfig(max_epochs=5, patience=5, batch_size=4, hidden_sizes=(3,))
        with pytest.raises(NonFiniteLossError, match="learning rate"):
            neural.train_loop(params, 8, constant_grad_fn(math.nan), lambda p: 0.5, cfg, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["weights", "biases"])
def test_non_finite_gradient_aborts(bad, kind):
    # the loss stays finite, so only the gradient check can catch it
    def nan_grad(params, idx):
        grads = MlpParams(
            weights=[np.zeros_like(w) for w in params.weights],
            biases=[np.zeros_like(b) for b in params.biases],
        )
        getattr(grads, kind)[0].flat[1] = bad
        return 0.5, grads

    params = neural.init_params([2, 3, 1], seed=8)
    cfg = TrainConfig(max_epochs=5, patience=5, batch_size=4, hidden_sizes=(3,))
    with pytest.raises(NonFiniteLossError, match="gradient"):
        neural.train_loop(params, 8, nan_grad, lambda p: 0.5, cfg, seed=0)


@pytest.mark.parametrize("dtype, big", [(np.float64, 1e308), (np.float32, 1e38)])
def test_overflowing_step_aborts_before_validation(dtype, big):
    # the gradient is finite, but learning_rate * gradient overflows in the step
    def huge_grad(params, idx):
        grads = MlpParams(
            weights=[np.zeros_like(w) for w in params.weights],
            biases=[np.zeros_like(b) for b in params.biases],
        )
        grads.weights[0][0, 0] = big
        return 0.5, grads

    validated = []

    def improving(p):
        validated.append(p.weights[0][0, 0])
        return 0.1 * len(validated)

    params = neural.init_params([2, 3, 1], seed=8).astype(dtype)
    cfg = TrainConfig(
        max_epochs=5, patience=5, batch_size=4, learning_rate=10.0, l1_lambda=0.0, hidden_sizes=(3,)
    )
    with pytest.raises(NonFiniteLossError, match="parameters"), np.errstate(over="ignore"):
        neural.train_loop(params, 8, huge_grad, improving, cfg, seed=0)
    assert validated == []
