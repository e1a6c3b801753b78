"""Minimal dense feed-forward network with hand-rolled backprop.

The architecture family is fixed: affine layers with leaky-ReLU
activations and a single linear output neuron.  Weight matrices are
(fan_out, fan_in); a batch of inputs is a (B, fan_in) array.  Gradients
are :class:`MlpParams` too, one array per parameter of its shape.

Every pass computes in the dtype of the parameters
(``params.weights[0].dtype``): inputs, upstream gradients, workspaces and
scratch arrays are all cast to it.  :func:`init_params` returns float64
parameters, and on them every pass runs in float64, which is what the
gradient checks use.  The detector trains on a float32 copy
(:meth:`MlpParams.astype`) and keeps the fitted float32 snapshot, so both
a fit and a trained model's decisions are float32 GEMMs.

Every pass writes into a :class:`Workspace`: preallocated pre-activation,
activation, delta, leaky-derivative and gradient buffers for up to a
fixed number of rows.  A training fit allocates one workspace for a full
minibatch and reuses it on every step, slicing its first rows for a
short last batch, so a step allocates no layer-sized temporaries (only
the l1 penalty's sign of the narrow first-layer weights).
:func:`forward_cached` without a workspace runs the same code on a fresh
one.  A forward pass alone (:func:`forward`) needs no cache and runs its
own loop on two fresh flat arrays, each layer writing a contiguous prefix
of them.  A workspace would cost more than the pass: it holds a gradient
of every parameter, so building one for a 2-row pass through the default
48-512-512-512-1 float32 network took about 230 us, more than twice the
95 us of the whole pass (2-core Xeon VM, numpy 2.4 with OpenBLAS).  It also
takes a stack of batches, (..., B, fan_in): ``np.matmul`` then makes one
GEMM call per batch, with the shape and strides of that batch passed
alone, so a batch's outputs do not depend on the stack around it.

Bit-exactness: the in-place kernels give the same bits as the plain
expressions ``a @ w.T + b``, ``np.where(z > 0, z, s * z)`` and
``delta * np.where(z > 0, 1.0, s)``.  Each GEMM keeps its operands,
transposes and row count (its last bits depend on the row count), the
bias is added after it, and the leaky ReLU is ``max(z, s * z)``.  That
identity needs 0 <= s <= 1, so the negative slope is restricted to that
range.  One input differs: at s = 0 a pre-activation of +inf becomes NaN
(0 * inf) instead of inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteLossError


@dataclass
class MlpParams:
    """Trainable weights and biases, one (W, b) per layer; also their gradients."""

    weights: list  # of (out, in) arrays, all of one float dtype
    biases: list  # of (out,) arrays of the same dtype

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpParams":
        return self.astype(self.weights[0].dtype)

    def astype(self, dtype) -> "MlpParams":
        """A copy with every array cast to ``dtype``."""
        return MlpParams(
            weights=[w.astype(dtype) for w in self.weights],
            biases=[b.astype(dtype) for b in self.biases],
        )


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for minibatch SGD with early stopping.

    ``l1_lambda`` penalizes the weights (never the biases) of the first
    trainable layer only, nudging the network to drop uninformative
    input features.  ``patience`` may be ``math.inf`` to disable early
    stopping.

    The defaults are calibrated for the shipped architecture on
    standardized features at the default campaign scale (2.5k training
    pairs): plain SGD at this width wants a large step size, and
    validation accuracy typically saturates within ~20 epochs.

    ``negative_slope`` must lie in [0, 1] (see the module docstring).
    A detector fit runs in float32, so there ``negative_slope``,
    ``l1_lambda`` and ``learning_rate`` act as their nearest float32
    values.

    The config holds no seed: :func:`train_loop` takes its shuffle seed
    as an argument, which ``detector.train_detector`` derives from its own.
    """

    learning_rate: float = 0.15
    batch_size: int = 128
    max_epochs: int = 25
    patience: float = 6
    l1_lambda: float = 1e-4
    negative_slope: float = 0.01
    hidden_sizes: tuple[int, ...] = (512, 512, 512)
    init_scale: float = 1.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.l1_lambda < 0:
            raise ValueError(f"l1_lambda must be >= 0, got {self.l1_lambda}")
        _check_slope(self.negative_slope)
        if any(size < 1 for size in self.hidden_sizes):
            raise ValueError(f"hidden_sizes entries must be >= 1, got {self.hidden_sizes}")
        if self.init_scale <= 0:
            raise ValueError(f"init_scale must be > 0, got {self.init_scale}")


@dataclass
class TrainHistory:
    """Per-epoch record: mean training loss and validation accuracy."""

    train_loss: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)

    def best_epoch(self) -> int:
        """Index of the maximum validation accuracy (earliest on ties)."""
        return int(np.argmax(self.val_accuracy))


def init_params(layer_sizes, seed: int, scale: float = 1.0) -> MlpParams:
    """Fan-in-scaled uniform init: W ~ U(-c, c) with c = scale/sqrt(fan_in).

    Biases start at zero.  Deterministic given seed.
    """
    sizes = list(layer_sizes)
    if len(sizes) < 2:
        raise ValueError("layer_sizes must name at least input and output widths")
    if min(sizes) < 1:
        raise ValueError(f"layer sizes must be >= 1, got {min(sizes)} in {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        c = scale / math.sqrt(fan_in)
        weights.append(rng.uniform(-c, c, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases)


def _check_slope(negative_slope: float) -> None:
    if not 0.0 <= negative_slope <= 1.0:
        raise ValueError(f"negative_slope must be in [0, 1], got {negative_slope}")


class Workspace:
    """Buffers for forward and backward passes over at most ``rows`` rows.

    Holds, per hidden layer, the pre-activations, activations and deltas;
    one leaky-derivative factor buffer; the (rows, 1) output; and one
    gradient of every parameter, all in the parameters' dtype.  Passes
    over fewer rows use row-slice views of these buffers.
    """

    def __init__(self, params: MlpParams, rows: int):
        hidden = params.layer_sizes[1:-1]
        dtype = params.weights[0].dtype
        self.rows = rows
        self.pre = [np.empty((rows, h), dtype) for h in hidden]
        self.acts = [np.empty((rows, h), dtype) for h in hidden]
        self.out = np.empty((rows, 1), dtype)
        self.delta = [np.empty((rows, h), dtype) for h in hidden]
        self.factor = np.empty(rows * max(hidden, default=0), dtype)
        self.grads = params.copy()  # overwritten by every backward pass


def _affine(a: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    # same bits as a @ w.T + b
    np.matmul(a, w.T, out=out)
    out += b
    return out


def _leaky_relu(z: np.ndarray, slope: float, out: np.ndarray) -> np.ndarray:
    # max(z, s*z) equals where(z > 0, z, s*z) bit for bit when 0 <= s <= 1
    np.multiply(z, slope, out=out)
    return np.maximum(z, out, out=out)


def _leaky_relu_backprop(delta: np.ndarray, z: np.ndarray, slope: float, factor: np.ndarray) -> None:
    """delta *= where(z > 0, 1.0, slope), in place; ``factor`` is scratch.

    The subgradient at exactly 0 takes the negative slope.
    """
    np.greater(z, 0.0, out=factor, casting="unsafe")
    np.maximum(factor, slope, out=factor)
    np.multiply(delta, factor, out=delta)


def forward(params: MlpParams, x: np.ndarray, negative_slope: float = 0.01):
    """Evaluate the network.

    A 1-D input of length fan_in yields a float; a (B, fan_in) batch
    yields a (B,) array, and a (..., B, fan_in) stack of batches a
    (..., B) array, one GEMM per batch (see the module docstring).
    Hidden layers are affine + leaky ReLU; the output layer is affine
    with a single linear neuron.  The pass runs in the parameters' dtype.
    """
    x = np.asarray(x, dtype=params.weights[0].dtype)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[-1] != params.weights[0].shape[1]:
        raise ValueError(
            f"input width {a.shape[-1]} does not match network input {params.weights[0].shape[1]}"
        )
    _check_slope(negative_slope)
    # every layer writes a contiguous prefix of one of two flat arrays (a
    # layer as wide as the last one reuses its views): its pre-activations
    # into z_flat, its activations into a_flat; the output gets its own
    # array, so a returned batch does not hold the scratch arrays
    lead = a.shape[:-1]
    rows = a.size // a.shape[-1]
    size = rows * max(w.shape[0] for w in params.weights)
    z_flat, a_flat = np.empty(size, a.dtype), np.empty(size, a.dtype)
    width = 0
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        if w.shape[0] != width:
            width = w.shape[0]
            z_buf = z_flat[: rows * width].reshape(*lead, width)
            a_buf = a_flat[: rows * width].reshape(*lead, width)
        a = _leaky_relu(_affine(a, w, b, z_buf), negative_slope, a_buf)
    out = _affine(a, params.weights[-1], params.biases[-1], np.empty((*lead, 1), a.dtype))[..., 0]
    return float(out[0]) if single else out


def forward_cached(
    params: MlpParams, x: np.ndarray, negative_slope: float = 0.01, workspace: Workspace | None = None
):
    """Batch forward that also returns the state the backward pass needs.

    Returns (outputs (B,), cache); feed the cache to
    :func:`backward_from_cache` to get gradients without recomputing the
    forward pass.  A pass that needs no gradients can use :func:`forward`.

    Without a ``workspace`` each call gets a fresh one.  With one, the
    outputs, the cache and the gradients later computed from it live in
    that workspace and hold until its next use.
    """
    a = np.asarray(x, dtype=params.weights[0].dtype)
    rows = a.shape[0]
    ws = Workspace(params, rows) if workspace is None else workspace
    _check_slope(negative_slope)
    if rows > ws.rows:
        raise ValueError(f"batch of {rows} rows exceeds the workspace's {ws.rows}")
    # every layer writes into the workspace's buffers, which then form the cache
    pre, acts = [], [a]
    for layer, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        pre.append(_affine(a, w, b, ws.pre[layer][:rows]))
        a = _leaky_relu(pre[-1], negative_slope, ws.acts[layer][:rows])
        acts.append(a)
    out = _affine(a, params.weights[-1], params.biases[-1], ws.out[:rows])[:, 0]
    return out, (pre, acts, ws)


def backward_from_cache(
    params: MlpParams, cache, upstream: np.ndarray, negative_slope: float = 0.01
) -> MlpParams:
    """Gradients of sum_i upstream_i * output_i given a forward cache.

    The returned gradients live in the cache's workspace.
    """
    _check_slope(negative_slope)
    pre, acts, ws = cache
    rows = acts[0].shape[0]
    n = params.n_layers
    g_w, g_b = ws.grads.weights, ws.grads.biases
    # output layer is linear
    delta = np.asarray(upstream, dtype=params.weights[0].dtype)[:, None]
    np.matmul(delta.T, acts[-1], out=g_w[n - 1])
    np.sum(delta, axis=0, out=g_b[n - 1])
    for layer in range(n - 2, -1, -1):
        d_buf = ws.delta[layer][:rows]
        if layer == n - 2:
            # (B, 1) @ (1, H) is a plain outer product
            np.multiply(delta, params.weights[layer + 1], out=d_buf)
        else:
            np.matmul(delta, params.weights[layer + 1], out=d_buf)
        delta = d_buf
        factor = ws.factor[: delta.size].reshape(delta.shape)
        _leaky_relu_backprop(delta, pre[layer], negative_slope, factor)
        np.matmul(delta.T, acts[layer], out=g_w[layer])
        np.sum(delta, axis=0, out=g_b[layer])
    return ws.grads


def sgd_step(
    params: MlpParams, grads: MlpParams, learning_rate: float, l1_lambda: float = 0.0
) -> MlpParams:
    """One SGD update, in place; returns the updated params.

    The l1 subgradient lambda*sign(w) (sign(0) = 0) applies to the
    weights of the first layer only; biases are never penalized.

    ``grads`` is used as scratch: on return each of its arrays holds the
    step that was subtracted from the matching parameter.
    """
    for layer, (w, gw) in enumerate(zip(params.weights, grads.weights)):
        if l1_lambda > 0.0 and layer == 0:
            gw += l1_lambda * np.sign(w)
        gw *= learning_rate
        w -= gw
    for b, gb in zip(params.biases, grads.biases):
        gb *= learning_rate
        b -= gb
    return params


def _all_finite(params: MlpParams) -> bool:
    # one sum per array: NaN and inf entries propagate into it (a finite
    # array whose sum overflows counts too; training has diverged then)
    return all(math.isfinite(a.sum()) for a in (*params.weights, *params.biases))


def train_loop(
    params: MlpParams,
    n_examples: int,
    batch_grad_fn,
    val_accuracy_fn,
    cfg: TrainConfig,
    seed,
) -> tuple[MlpParams, TrainHistory]:
    """Minibatch SGD with validation-accuracy early stopping.

    Each epoch shuffles the example indices with a generator seeded by
    ``seed`` (an int or SeedSequence), then walks consecutive
    minibatches through ``batch_grad_fn(params, indices) -> (loss,
    gradients)``, the gradients an :class:`MlpParams`, both averaged over
    the batch, then evaluates ``val_accuracy_fn(params)``.  The snapshot
    with the best validation accuracy is kept (strict improvement, so
    ties keep the earliest); training stops after ``patience`` epochs
    without improvement or at ``max_epochs``.  A non-finite loss or
    gradient, or parameters that are non-finite after an epoch's last
    step, raise ``NonFiniteLossError``, so no snapshot holds an
    overflowed weight.
    """

    def diverged(what: str) -> NonFiniteLossError:
        return NonFiniteLossError(f"{what}; try a smaller learning rate (currently {cfg.learning_rate})")

    rng = np.random.default_rng(seed)
    history = TrainHistory()
    best = params.copy()
    best_acc = -math.inf
    epochs_since_best = 0

    for _ in range(cfg.max_epochs):
        order = rng.permutation(n_examples)
        loss_sum = 0.0
        for start in range(0, n_examples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = batch_grad_fn(params, idx)
            if not math.isfinite(loss):
                raise diverged(f"training loss became {loss}")
            if not _all_finite(grads):
                raise diverged("training gradient became non-finite")
            sgd_step(params, grads, cfg.learning_rate, cfg.l1_lambda)
            loss_sum += loss * idx.size
        # a finite gradient times the learning rate can still overflow
        if not _all_finite(params):
            raise diverged("parameters became non-finite")
        history.train_loss.append(loss_sum / n_examples)

        acc = float(val_accuracy_fn(params))
        history.val_accuracy.append(acc)
        if acc > best_acc:
            best_acc = acc
            best = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                break
    return best, history
