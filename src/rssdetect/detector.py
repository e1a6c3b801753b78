"""Commutative neural detector for the same-location hypothesis test.

Given two RSS vector estimates f and f', the detector evaluates a scalar
statistic approximating the log posterior odds of H1 (different
locations) versus H0 (same location) and decides H1 iff the statistic
exceeds 0.  The network itself is asymmetric in its two inputs, so the
statistic is symmetrized by averaging the network over both argument
orders, which makes the decision exactly invariant to swapping f and f'.

A non-trainable first stage maps (f, f') to [f, f', f - f']; the
difference block gives the trainable layers a head start.  Features are
standardized with statistics frozen from the training pairs; that
transform is affine and invertible, so it changes nothing about the
hypothesis test, only the conditioning of SGD.

Evaluation (:func:`statistic_batch`, and through it :func:`decide`)
runs the network in its parameters' dtype: float32 for a trained model,
which keeps its fit's float32 snapshot, float64 for one built on
:func:`neural.init_params`.  Standardization and ordering stay float64,
and a standardized input that does not fit in the parameters' dtype
raises ``ValueError``.  B pairs are one (B, 2, M) array, standardized
once; each pair's two rows are then put in canonical order, the
lexicographically smaller vector ``lo`` first (signed zeros are
normalized, so equal vectors are equal bytes).  ``fixed_first_layer``
of that array and of its row-swapped view gives each pair's rows
``[lo, hi, lo - hi]`` and ``[hi, lo, hi - lo]`` as one (B, 2, 3M) stack,
and :func:`neural.forward` runs it as one 2-row GEMM per layer and
pair.  A GEMM's last bits may depend on a row's position and on the row
count, but (f, f') and (f', f) stack the same bytes, and each pair's
GEMMs have the shape and strides of the pair scored alone, so the
statistic is exactly commutative and bit-equal however the pair is
batched.  (One GEMM over 1024 rows is about twice as
fast on a large batch but, in float32, changes most pairs' last bits.)
A lone (M,) pair takes the same steps in scratch arrays that each thread
keeps per network shape and dtype: one (2, M) float64 array, filled,
standardized and ordered in place (by comparing its two rows as Python
lists), its two (2, 3M) network input rows, and per layer one 2-D GEMM
of the shape the pair's GEMM has in a batch, into a buffer of its own.
Its statistic therefore costs its GEMMs plus about 30 small numpy calls.
A batch allocates its arrays per call.  Threads share only the model;
no thread reads another's scratch.
``BLOCK_PAIRS`` only bounds memory: a pass takes at most that many pairs,
about 2 * 2 * BLOCK_PAIRS * width floats of activations (4 MB at 512
pairs and width 512 in float32).  Training keeps its own [forward-order;
swapped-order] stack, so fits and their histories do not depend on this
ordering.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import neural
from .dataset import MeasurementSet, LocationSplit, PairSet, build_pair_set
from .neural import MlpParams, TrainConfig, TrainHistory

# Standardization clamp for features that are constant over the training
# pairs; keeps std strictly positive.
STD_EPSILON = 1e-8

# Pairs per forward pass in statistic_batch, a bound on its memory only.
BLOCK_PAIRS = 512


class Hypothesis(enum.Enum):
    H0 = "H0"  # same location
    H1 = "H1"  # different locations


@dataclass(frozen=True)
class Decision:
    """Threshold-0 decision on any rule's statistic; an exact tie goes to H0."""

    statistic: float

    @property
    def hypothesis(self) -> Hypothesis:
        return Hypothesis.H1 if self.statistic > 0.0 else Hypothesis.H0

    @property
    def posterior(self) -> float:
        """P[H1 | f, f'] under the sigmoid link."""
        return sigmoid(self.statistic)


@dataclass(frozen=True)
class DetectorModel:
    """Trained detector: network weights plus frozen feature statistics.

    The weights and biases are all float32, as :func:`train_detector`
    returns them, or all float64; the network runs in that dtype.
    """

    params: MlpParams
    feature_mean: np.ndarray  # (M,)
    feature_std: np.ndarray  # (M,), entries >= STD_EPSILON
    negative_slope: float = 0.01

    def __post_init__(self):
        # decisions run in the parameters' dtype, which must be one float width
        dtypes = {a.dtype for a in (*self.params.weights, *self.params.biases)}
        if dtypes not in ({np.dtype(np.float32)}, {np.dtype(np.float64)}):
            got = sorted(map(str, dtypes))
            raise ValueError(f"detector parameters must be all float32 or all float64, got {got}")
        sizes = self.params.layer_sizes
        shapes = [a.shape for a in (*self.params.weights, *self.params.biases)]
        if shapes != [(o, i) for i, o in zip(sizes, sizes[1:])] + [(o,) for o in sizes[1:]]:
            raise ValueError(f"parameter shapes {shapes} do not chain layer sizes {sizes}")
        if sizes[-1] != 1:
            raise ValueError(f"layer sizes {sizes} do not end in one output")
        for what, arrays in (
            ("weights", self.params.weights),
            ("biases", self.params.biases),
            ("feature mean", [self.feature_mean]),
            ("feature std", [self.feature_std]),
            ("leaky slope", [self.negative_slope]),
        ):
            if not all(np.isfinite(a).all() for a in arrays):
                raise ValueError(f"non-finite {what}")
        neural._check_slope(self.negative_slope)
        m = self.feature_mean.shape[0]
        if m < 1:
            raise ValueError("the model needs at least one feature")
        if self.feature_std.shape != (m,):
            raise ValueError("feature_mean and feature_std must have equal length")
        if np.any(self.feature_std <= 0):
            raise ValueError("feature_std entries must be > 0")
        if self.params.weights[0].shape[1] != 3 * m:
            raise ValueError(
                f"network input width {self.params.weights[0].shape[1]} "
                f"must be 3*M = {3 * m}"
            )

    @property
    def n_features(self) -> int:
        return self.feature_mean.shape[0]

    def statistic_batch(self, f, f_prime):
        """The symmetrized statistic; see :func:`statistic_batch`."""
        return statistic_batch(self, f, f_prime)


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


def softplus(x):
    """log(1 + exp(x)) without overflow; equals -log(sigmoid(-x))."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return float(out) if out.ndim == 0 else out


def fixed_first_layer(f: np.ndarray, f_prime: np.ndarray) -> np.ndarray:
    """Non-trainable input stage: (f, f') -> [f, f', f - f'].

    Equivalent to multiplying the M x 2 matrix [f, f'] by the constant
    2 x 3 matrix [[1, 0, 1], [0, 1, -1]] and flattening column-wise.
    Accepts single vectors or (B, M) batches.
    """
    f = np.asarray(f, dtype=np.float64)
    f_prime = np.asarray(f_prime, dtype=np.float64)
    if f.shape != f_prime.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {f_prime.shape}")
    return np.concatenate([f, f_prime, f - f_prime], axis=-1)


def _standardize(model: DetectorModel, f: np.ndarray) -> np.ndarray:
    return (f - model.feature_mean) / model.feature_std


def checked_pair(f, f_prime, n_features=None) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as float64, after checking that they are one pair input.

    Takes two (M,) vectors or two (B, M) batches of one shape, M >= 1 (and
    M = ``n_features`` when given), of a real dtype (bool, integer or
    float) and with finite entries; anything else raises ``ValueError``.
    A (0, M) batch passes, and every rule scores it to an empty array.
    Every statistic of every decision rule calls this once, so no NaN,
    inf, complex or mis-shaped input yields a statistic or a decision.
    """
    f, f_prime = np.asarray(f), np.asarray(f_prime)
    if f.shape != f_prime.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {f_prime.shape}")
    if f.ndim not in (1, 2):
        raise ValueError(f"expected (M,) vectors or (B, M) batches, got shape {f.shape}")
    if f.dtype.kind not in "biuf" or f_prime.dtype.kind not in "biuf":
        raise ValueError(f"feature vectors must be real numbers, got {f.dtype} and {f_prime.dtype}")
    if f.shape[-1] == 0:
        raise ValueError(f"feature vectors need at least one feature, got shape {f.shape}")
    if n_features is not None and f.shape[-1] != n_features:
        raise ValueError(f"feature length {f.shape[-1]} does not match the model's {n_features}")
    f, f_prime = f.astype(np.float64, copy=False), f_prime.astype(np.float64, copy=False)
    if not (np.isfinite(f).all() and np.isfinite(f_prime).all()):
        raise ValueError("feature vectors must be finite")
    return f, f_prime


def statistic_batch(model: DetectorModel, f: np.ndarray, f_prime: np.ndarray):
    """Symmetrized statistic for (B, M) batches of pairs, or a float for one pair.

    Each canonically ordered pair is its own 2-row pass over both
    argument orders, in the parameters' dtype, and the two outputs are
    averaged in float64 (see the module docstring).  A lone (M,) pair of
    a real dtype takes the same steps in this thread's scratch
    (:func:`_statistic_one`); any other input goes through
    :func:`checked_pair` first.  Raises ``ValueError`` on any input
    :func:`checked_pair` refuses, with M the model's feature count, on a
    standardized input that does not fit in the parameters' dtype, and on
    a non-finite statistic (for example from overflowed weights); none of
    these emits a numpy warning.
    """
    f, f_prime = np.asarray(f), np.asarray(f_prime)
    if (
        f.shape == f_prime.shape == model.feature_mean.shape
        and f.dtype.kind in "biuf"
        and f_prime.dtype.kind in "biuf"
    ):
        return _statistic_one(model, f, f_prime)
    f, f_prime = checked_pair(f, f_prime, model.n_features)
    dtype = model.params.weights[0].dtype
    with np.errstate(over="ignore", invalid="ignore"):
        # + 0.0 turns -0.0 into +0.0, so vectors that compare equal are equal bytes
        z = _standardize(model, np.stack([f, f_prime], axis=-2).reshape(-1, 2, f.shape[-1])) + 0.0
        # equal rows keep their order: argmax of all-False is 0
        first_diff = (z[:, 0] != z[:, 1]).argmax(axis=1)
        pairs = np.arange(z.shape[0])
        swap = z[pairs, 0, first_diff] > z[pairs, 1, first_diff]
        z[swap] = z[swap, ::-1]
        rows = fixed_first_layer(z, z[:, ::-1])
        if not np.abs(rows).max(initial=0.0) <= np.finfo(dtype).max:
            raise ValueError(f"standardized feature vectors do not fit in {dtype}")
        rows = rows.astype(dtype)
        g = np.empty(rows.shape[0])
        for start in range(0, rows.shape[0], BLOCK_PAIRS):
            block = rows[start : start + BLOCK_PAIRS]
            out = neural.forward(model.params, block, model.negative_slope).astype(np.float64)
            g[start : start + block.shape[0]] = (out[:, 0] + out[:, 1]) / 2.0
    if not np.isfinite(g).all():
        raise ValueError("detector statistic is not finite")
    return g


class _LoneScratch(threading.local):
    """Each thread's lone-pair buffers, one :class:`_LoneBuffers` per network shape and dtype.

    About 27 kB per shape at the default width; a thread's entries go with it.
    """

    def __init__(self):
        self.by_shape = {}


_LONE_SCRATCH = _LoneScratch()


class _LoneBuffers:
    """Scratch of one lone pair through one network shape, with fixed views into it.

    ``rows`` is the (2, 3M) float64 input, row r the three M-blocks
    ``head[r]``, ``tail[r]`` and ``diff[r]``.  ``pair`` (the two heads of
    row 0) holds the standardized (f, f') and then (lo, hi); ``mirror``
    (the heads of row 1) holds (hi, lo).  ``x`` is ``rows`` in the
    parameters' dtype (``rows`` itself for float64); each hidden layer
    has a pre-activation and an activation buffer, and the output layer
    one (2, 1) buffer.
    """

    def __init__(self, params: MlpParams):
        dtype = params.weights[0].dtype
        m = params.weights[0].shape[1] // 3
        blocks = np.empty((2, 3, m))
        self.rows = blocks.reshape(2, 3 * m)
        self.head, self.tail, self.diff = blocks[:, 0], blocks[:, 1], blocks[:, 2]
        self.pair, self.mirror = blocks[0, :2], blocks[1, :2]
        self.pair_swapped, self.mirror_swapped = self.pair[::-1], self.mirror[::-1]
        self.magnitude = np.empty_like(self.rows)
        self.limit = float(np.finfo(dtype).max)
        self.x = self.rows if dtype == np.float64 else np.empty(self.rows.shape, dtype)
        self.hidden = [(np.empty((2, w.shape[0]), dtype), np.empty((2, w.shape[0]), dtype))
                       for w in params.weights[:-1]]
        self.out = np.empty((2, 1), dtype)
        self.outputs = self.out.reshape(2)


def _lone_buffers(params: MlpParams) -> _LoneBuffers:
    # the dtype, the input width 3M and every layer's width
    key = (params.weights[0].dtype, params.weights[0].shape[1], *map(len, params.biases))
    buffers = _LONE_SCRATCH.by_shape.get(key)
    if buffers is None:
        buffers = _LONE_SCRATCH.by_shape[key] = _LoneBuffers(params)
    return buffers


def _lone_input(model: DetectorModel, f, f_prime, buffers: _LoneBuffers) -> np.ndarray:
    """The network input rows of one (M,) pair of a real dtype, in ``buffers.x``.

    Refuses what :func:`statistic_batch` refuses, with its messages.  Runs
    inside the ``np.errstate`` of :func:`_statistic_one`.
    """
    pair = buffers.pair
    pair[0] = f
    pair[1] = f_prime
    pair -= model.feature_mean
    pair /= model.feature_std
    # + 0.0 turns -0.0 into +0.0, so vectors that compare equal are equal bytes
    pair += 0.0
    # Python orders lists lexicographically: the first unequal entries
    # decide, and equal vectors keep their order
    first, second = pair.tolist()
    if first > second:
        np.copyto(buffers.mirror, pair)
        np.copyto(pair, buffers.mirror_swapped)
    else:
        np.copyto(buffers.mirror, buffers.pair_swapped)
    np.subtract(buffers.head, buffers.tail, out=buffers.diff)
    # a non-finite input entry stays non-finite in the rows, so this one
    # bound refuses it too; the inputs are looked at again only for the message
    if not np.maximum.reduce(np.abs(buffers.rows, out=buffers.magnitude), axis=None) <= buffers.limit:
        if not (np.isfinite(f).all() and np.isfinite(f_prime).all()):
            raise ValueError("feature vectors must be finite")
        raise ValueError(f"standardized feature vectors do not fit in {buffers.x.dtype}")
    if buffers.x is not buffers.rows:
        np.copyto(buffers.x, buffers.rows, casting="unsafe")
    return buffers.x


def _lone_network(params: MlpParams, slope: float, x: np.ndarray, buffers: _LoneBuffers) -> np.ndarray:
    """The network's two outputs on the lone input rows ``x``, a (2,) view into ``buffers``.

    Each layer is one 2-D GEMM into its own buffer, then the bias add and
    the leaky ReLU in place: the bits of :func:`neural.forward` on the
    (1, 2, 3M) stack, whose one GEMM per layer has this shape.
    """
    a = x
    # zip stops at the last hidden layer
    for w, b, (z, act) in zip(params.weights, params.biases, buffers.hidden):
        a = neural._leaky_relu(neural._affine(a, w, b, z), slope, act)
    neural._affine(a, params.weights[-1], params.biases[-1], buffers.out)
    return buffers.outputs


@np.errstate(over="ignore", invalid="ignore")
def _statistic_one(model: DetectorModel, f, f_prime) -> float:
    """:func:`statistic_batch` of one (M,) pair of a real dtype, in this thread's scratch."""
    params = model.params
    buffers = _lone_buffers(params)
    x = _lone_input(model, f, f_prime, buffers)
    first, second = _lone_network(params, model.negative_slope, x, buffers).tolist()
    g = (first + second) / 2.0
    if not math.isfinite(g):
        raise ValueError("detector statistic is not finite")
    return g


def decide(model, f, f_prime) -> Decision:
    """Threshold-0 decision of any rule's model on one pair; an exact tie goes to H0.

    ``f`` and ``f_prime`` must be (M,) vectors.  Input the model's
    ``statistic_batch`` refuses raises its ``ValueError``; a batch it
    accepts, even of one pair, raises ``ValueError`` naming the shape
    (score batches with ``statistic_batch``).
    """
    g = model.statistic_batch(f, f_prime)
    if np.ndim(f) != 1:
        raise ValueError(
            f"a decision takes one pair of (M,) vectors, got a batch of shape {np.shape(f)}"
        )
    return Decision(float(g))


def pair_loss(model: DetectorModel, pair_set: PairSet) -> float:
    """Negative log-likelihood of the pair labels, averaged over pairs.

    SAME pairs contribute -log(1 - sigma(g)), DIFF pairs -log(sigma(g)),
    both computed in the log domain.
    """
    if len(pair_set) == 0:
        raise ValueError("pair set is empty")
    g = statistic_batch(model, pair_set.first, pair_set.second)
    y = pair_set.labels  # True for DIFF
    losses = np.where(y, softplus(-g), softplus(g))
    return float(np.mean(losses))


def _loss_from_stacked(
    params: MlpParams,
    stacked: np.ndarray,
    labels_h1: np.ndarray,
    slope: float,
    workspace: neural.Workspace | None = None,
) -> tuple[float, MlpParams]:
    """Loss/gradient given the pre-built [forward-order; swapped-order] batch.

    The symmetrized statistic routes the per-pair upstream gradient
    through both argument orders with weight 1/2 each; stacking the two
    orders into one batch keeps it a single forward and backward pass.
    The gradients live in ``workspace`` when one is given.
    """
    n = labels_h1.shape[0]
    out, cache = neural.forward_cached(params, stacked, slope, workspace)
    g = (out[:n] + out[n:]) / 2.0
    loss = float(np.mean(np.where(labels_h1, softplus(-g), softplus(g))))
    dg = (sigmoid(g) - labels_h1.astype(np.float64)) / n
    upstream = np.concatenate([dg, dg]) / 2.0
    grads = neural.backward_from_cache(params, cache, upstream, slope)
    return loss, grads


def _stack_both_orders(model: DetectorModel, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Standardized rows [f, f', f - f'] of every pair, then [f', f, f' - f] of every pair."""
    zf, zp = _standardize(model, first), _standardize(model, second)
    return np.concatenate([fixed_first_layer(zf, zp), fixed_first_layer(zp, zf)], axis=0)


def pair_loss_grad(model: DetectorModel, pair_set: PairSet) -> tuple[float, MlpParams]:
    """Loss and gradient over a whole pair set, as one [forward; swapped] batch."""
    stacked = _stack_both_orders(model, pair_set.first, pair_set.second)
    return _loss_from_stacked(model.params, stacked, pair_set.labels, model.negative_slope)


def freeze_standardization(pair_set: PairSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean/std over all vectors of a pair set (both slots).

    Uses the population std (ddof=0); degenerate features are clamped to
    STD_EPSILON.
    """
    stacked = np.concatenate([pair_set.first, pair_set.second], axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_EPSILON)
    return mean, std


def train_detector(
    ms: MeasurementSet,
    split: LocationSplit,
    k_train: int,
    k_val: int,
    cfg: TrainConfig,
    seed: int,
) -> tuple[DetectorModel, TrainHistory]:
    """Build pairs, freeze standardization, and fit the network.

    Training pairs come from the split's train locations, validation
    pairs from its validation locations.  Early stopping tracks the
    fraction of validation pairs whose decision matches the label.  Four
    independent substreams are derived from ``seed``: train pairs,
    validation pairs, weight init, and epoch shuffling.

    The standardization and the initial weights are computed in float64;
    the network then trains on float32 copies of the weights and of the
    standardized train and validation stacks.  The returned model holds
    the best float32 snapshot as it is, so it decides in float32.
    """
    ss = np.random.SeedSequence(seed)
    s_train, s_val, s_init, s_shuffle = ss.spawn(4)

    train_pairs = build_pair_set(ms, split.train_ids, k_train, seed=s_train)
    val_pairs = build_pair_set(ms, split.val_ids, k_val, seed=s_val)

    mean, std = freeze_standardization(train_pairs)
    m = ms.n_features
    sizes = [3 * m, *cfg.hidden_sizes, 1]
    params = neural.init_params(sizes, seed=s_init, scale=cfg.init_scale)
    model = DetectorModel(
        params=params, feature_mean=mean, feature_std=std, negative_slope=cfg.negative_slope
    )

    # the standardized fixed-layer inputs never change during training, so
    # build them once: rows [0, 2K) are (f, f'), rows [2K, 4K) the swap
    n_train = len(train_pairs)
    train_stack = _stack_both_orders(model, train_pairs.first, train_pairs.second)
    train_stack = train_stack.astype(np.float32)
    labels = train_pairs.labels
    val_stack = _stack_both_orders(model, val_pairs.first, val_pairs.second)
    val_stack = val_stack.astype(np.float32)
    val_labels = val_pairs.labels
    n_val = len(val_pairs)
    params = params.astype(np.float32)

    # one workspace serves every step; a short last batch uses its first rows
    rows = 2 * min(cfg.batch_size, n_train)
    workspace = neural.Workspace(params, rows)
    stacked_buf = np.empty((rows, train_stack.shape[1]), np.float32)

    def batch_grad(p: MlpParams, idx: np.ndarray):
        k = idx.size
        stacked = stacked_buf[: 2 * k]
        np.take(train_stack, idx, axis=0, out=stacked[:k])
        np.take(train_stack, idx + n_train, axis=0, out=stacked[k:])
        return _loss_from_stacked(p, stacked, labels[idx], cfg.negative_slope, workspace)

    def val_acc(p: MlpParams) -> float:
        out = neural.forward(p, val_stack, cfg.negative_slope)
        g = (out[:n_val] + out[n_val:]) / 2.0
        return float(np.count_nonzero((g > 0.0) == val_labels) / n_val)

    shuffle_seed = int(s_shuffle.generate_state(1)[0])
    best, history = neural.train_loop(params, n_train, batch_grad, val_acc, cfg, shuffle_seed)
    return replace(model, params=best), history
