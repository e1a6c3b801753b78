import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rssdetect import detector as det
from rssdetect import modelio, neural
from rssdetect.benchmarks import DbcModel
from rssdetect.dataset import MeasurementSet, PairSet, split_locations
from rssdetect.neural import MlpParams, TrainConfig


def make_model(m=4, hidden=(8, 8, 8), seed=0, zero=False) -> det.DetectorModel:
    params = neural.init_params([3 * m, *hidden, 1], seed=seed)
    if zero:
        for w in params.weights:
            w[:] = 0.0
    rng = np.random.default_rng(seed + 1)
    return det.DetectorModel(
        params=params,
        feature_mean=rng.normal(size=m),
        feature_std=np.abs(rng.normal(size=m)) + 0.5,
    )


def make_pair_set(k=10, m=4, seed=0, gap=0.0) -> PairSet:
    """Synthetic pairs; with gap > 0 the DIFF pairs are shifted far apart."""
    rng = np.random.default_rng(seed)
    first = rng.normal(size=(2 * k, m))
    second = first + rng.normal(0, 0.1, size=(2 * k, m))
    second[k:] += gap + rng.normal(0, 0.1, size=(k, m))
    return PairSet(
        first=first,
        second=second,
        location_a=np.r_[np.arange(k), np.arange(k)],
        location_b=np.r_[np.arange(k), np.arange(k) + 1000],
        estimate_a=np.zeros(2 * k, dtype=np.int64),
        estimate_b=np.ones(2 * k, dtype=np.int64),
        k_per_class=k,
    )


class TestFixedFirstLayer:
    def test_hand_example(self):
        out = det.fixed_first_layer(np.array([1.0, 2.0]), np.array([3.0, 5.0]))
        assert np.array_equal(out, np.array([1.0, 2.0, 3.0, 5.0, -2.0, -3.0]))

    def test_equal_inputs_zero_difference_block(self):
        f = np.array([4.0, -1.0, 0.5])
        out = det.fixed_first_layer(f, f)
        assert np.all(out[6:] == 0.0)

    def test_matches_matrix_multiply_oracle(self):
        rng = np.random.default_rng(3)
        mix = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
        for _ in range(50):
            m = int(rng.integers(1, 7))
            f, fp = rng.normal(size=m), rng.normal(size=m)
            want = (np.stack([f, fp], axis=1) @ mix).T.reshape(-1)  # column-wise flatten
            assert det.fixed_first_layer(f, fp) == pytest.approx(want, abs=0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            det.fixed_first_layer(np.zeros(3), np.zeros(4))


class TestStatistic:
    def test_swap_symmetry_is_exact(self):
        rng = np.random.default_rng(4)
        model = make_model(m=5, seed=9)
        f = rng.normal(size=(1000, 5))
        fp = rng.normal(size=(1000, 5))
        g1 = det.statistic_batch(model, f, fp)
        g2 = det.statistic_batch(model, fp, f)
        assert np.array_equal(g1, g2)  # floating addition commutes

    def test_zero_params_zero_statistic(self):
        model = make_model(zero=True)
        d = det.decide(model, np.zeros(4), np.ones(4))
        assert d.statistic == 0.0
        assert d.posterior == 0.5
        assert d.hypothesis is det.Hypothesis.H0

    def test_stagewise_oracle(self):
        # independently compose standardize -> fixed layer -> network
        from test_neural import forward_by_loops

        model = make_model(m=3, hidden=(6, 5, 4), seed=12)
        rng = np.random.default_rng(13)
        for _ in range(10):
            f, fp = rng.normal(size=3), rng.normal(size=3)
            zf = (f - model.feature_mean) / model.feature_std
            zp = (fp - model.feature_mean) / model.feature_std
            fwd = forward_by_loops(model.params, np.r_[zf, zp, zf - zp], model.negative_slope)
            rev = forward_by_loops(model.params, np.r_[zp, zf, zp - zf], model.negative_slope)
            want = (fwd + rev) / 2
            assert det.statistic_batch(model, f, fp) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_non_finite_input_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="finite"):
            det.statistic_batch(model, np.array([np.nan, 0, 0, 0]), np.zeros(4))


# wide enough that a plain [forward; swapped] stack gets row-position-dependent
# bits from the BLAS, which the swap tests below must not see
STACK_MODEL = make_model(m=6, hidden=(96, 80, 64), seed=31)
# zero mean and unit std keep a -0.0 input a -0.0 standardized value
PLAIN_MODEL = det.DetectorModel(
    params=neural.init_params([3 * 6, 96, 80, 64, 1], seed=32),
    feature_mean=np.zeros(6),
    feature_std=np.ones(6),
)
B = det.BLOCK_PAIRS


def as_float32(model: det.DetectorModel) -> det.DetectorModel:
    """The model with float32 parameters, as ``train_detector`` returns one."""
    return det.DetectorModel(
        model.params.astype(np.float32), model.feature_mean, model.feature_std, model.negative_slope
    )


STACK_MODEL32 = as_float32(STACK_MODEL)
PLAIN_MODEL32 = as_float32(PLAIN_MODEL)
features = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
)


def reference_blocks(model: det.DetectorModel, f, f_prime) -> list:
    """The network inputs of ``statistic_batch`` as built before one (B, 2, M) array.

    f and f' are standardized apart, two ``np.where`` calls order each
    pair into ``lo`` and ``hi``, and two ``fixed_first_layer`` calls are
    stacked; then the stack is cast and cut into blocks of ``BLOCK_PAIRS``.
    """
    f, f_prime = det.checked_pair(f, f_prime, model.n_features)
    zf = (np.atleast_2d(f) - model.feature_mean) / model.feature_std + 0.0
    zp = (np.atleast_2d(f_prime) - model.feature_mean) / model.feature_std + 0.0
    first_diff = (zf != zp).argmax(axis=1)
    rows = np.arange(zf.shape[0])
    swap = (zf[rows, first_diff] > zp[rows, first_diff])[:, None]
    lo, hi = np.where(swap, zp, zf), np.where(swap, zf, zp)
    stack = np.stack([det.fixed_first_layer(lo, hi), det.fixed_first_layer(hi, lo)], axis=1)
    stack = stack.astype(model.params.weights[0].dtype)
    return [stack[i : i + det.BLOCK_PAIRS] for i in range(0, len(stack), det.BLOCK_PAIRS)]


def reference_inputs(model: det.DetectorModel, f, f_prime) -> list:
    """:func:`reference_blocks`, with a lone (M,) pair's one block as its (2, 3M) rows."""
    blocks = reference_blocks(model, f, f_prime)
    return [blocks[0][0]] if np.ndim(f) == 1 else blocks


@pytest.fixture
def network_inputs(monkeypatch):
    """Every network input ``detector._network_input`` builds, in call order:
    a lone pair's (2, 3M) rows and each block's (pairs, 2, 3M) stack."""
    seen = []
    network_input = det._network_input

    def spy(*args):
        x = network_input(*args)
        seen.append(x.copy())
        return x

    monkeypatch.setattr(det, "_network_input", spy)
    return seen


class TestStackedEvaluation:
    """One 2-row pass per canonically ordered pair, stacked, in blocks."""

    @pytest.mark.parametrize("n", [*range(1, 34), B - 1, B, B + 1, 2 * B + 3])
    def test_batch_swap_is_bit_exact(self, n):
        rng = np.random.default_rng(n)
        f, fp = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
        fp[::3] = f[::3]  # identical pairs
        fp[1::3, :-1] = f[1::3, :-1]  # pairs that differ only in the last coordinate
        swap = rng.random(n) < 0.5
        mixed_f = np.where(swap[:, None], fp, f)
        mixed_fp = np.where(swap[:, None], f, fp)
        for model in (STACK_MODEL, STACK_MODEL32):
            g = det.statistic_batch(model, f, fp)
            assert g.tobytes() == det.statistic_batch(model, fp, f).tobytes()
            # swapping only some of the pairs changes no bit either
            assert g.tobytes() == det.statistic_batch(model, mixed_f, mixed_fp).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, B - 1, B, B + 1, 2 * B + 1, 2 * B + 3])
    def test_batch_rows_match_single_pairs(self, n):
        # every pair of the batch, at every position, has its lone statistic's bits
        rng = np.random.default_rng(100 + n)
        f, fp = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
        for model in (STACK_MODEL, STACK_MODEL32):
            g = det.statistic_batch(model, f, fp)
            alone = np.array([det.statistic_batch(model, f[i], fp[i]) for i in range(n)])
            assert g.tobytes() == alone.tobytes()
            # the same pairs in another order are the same statistics, reordered
            order = rng.permutation(n)
            assert det.statistic_batch(model, f[order], fp[order]).tobytes() == g[order].tobytes()

    @given(
        f=hnp.arrays(np.float64, 6, elements=features),
        fp=hnp.arrays(np.float64, 6, elements=features),
        same=st.sampled_from(["none", "all", "all_but_last"]),
    )
    def test_single_pair_swap_is_bit_exact(self, f, fp, same):
        if same == "all":
            fp = f.copy()
        elif same == "all_but_last":
            fp = np.r_[f[:-1], fp[-1]]
        for model in (STACK_MODEL, PLAIN_MODEL, STACK_MODEL32, PLAIN_MODEL32):
            g = det.statistic_batch(model, f, fp)
            assert np.float64(g).tobytes() == np.float64(det.statistic_batch(model, fp, f)).tobytes()

    def test_both_orders_stack_the_same_bytes(self, network_inputs):
        rng = np.random.default_rng(7)
        f, fp = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        # equal values whose zeros differ in sign count as one vector
        f[0] = [0.0, -0.0, 1.0, 0.0, -0.0, 2.0]
        fp[0] = [-0.0, 0.0, 1.0, -0.0, 0.0, 2.0]
        for model in (PLAIN_MODEL, PLAIN_MODEL32):
            det.statistic_batch(model, f, fp)
            det.statistic_batch(model, fp, f)
        for first, second in (network_inputs[:2], network_inputs[2:]):
            assert first.tobytes() == second.tobytes()
        # the network input is cast to the parameters' dtype last
        assert [x.dtype for x in network_inputs] == [np.float64] * 2 + [np.float32] * 2

    def test_one_forward_per_block(self, network_inputs):
        # a lone pair is one (2, 3M) input; each forward takes a (pairs, 2, 3M)
        # stack of at most B pairs
        det.statistic_batch(STACK_MODEL, np.zeros(6), np.ones(6))
        det.statistic_batch(STACK_MODEL, np.zeros((2 * B + 3, 6)), np.ones((2 * B + 3, 6)))
        assert [x.shape for x in network_inputs] == [(2, 18), (B, 2, 18), (B, 2, 18), (3, 2, 18)]

    @pytest.mark.parametrize("n", [0, 1, 2, 7, B + 1])
    def test_forward_inputs_match_the_two_array_reference(self, network_inputs, n):
        rng = np.random.default_rng(200 + n)
        f, fp = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
        fp[::4] = f[::4]  # equal vectors
        fp[1::4, :3] = f[1::4, :3]  # ties in the three leading features
        fp[2::4, :-1] = f[2::4, :-1]  # a tie in all but the last feature
        f[3::4, :2], fp[3::4, :2] = 0.0, -0.0  # equal but for the sign of zero
        for model in (PLAIN_MODEL, PLAIN_MODEL32, STACK_MODEL, STACK_MODEL32):
            for a, b in ((f, fp), (fp, f)) + (((f[0], fp[0]), (fp[0], f[0])) if n else ()):
                network_inputs.clear()
                det.statistic_batch(model, a, b)
                want = reference_inputs(model, a, b)
                assert [(x.dtype, x.shape, x.tobytes()) for x in network_inputs] == [
                    (x.dtype, x.shape, x.tobytes()) for x in want
                ]

    def test_higher_rank_input_rejected(self):
        with pytest.raises(ValueError, match="batches"):
            det.statistic_batch(STACK_MODEL, np.zeros((2, 3, 6)), np.zeros((2, 3, 6)))


def _outcome(fn):
    """("ok", the statistic's float64 bytes) or ("error", the ValueError message)."""
    try:
        return "ok", np.float64(fn()).tobytes()
    except ValueError as exc:
        return "error", str(exc)


def _inf_bias_model() -> det.DetectorModel:
    # an overflowed output bias, set after the constructor's checks
    model = as_float32(make_model(m=6, seed=33))
    model.params.biases[-1][0] = math.inf
    return model


LONE_MODELS = (STACK_MODEL, PLAIN_MODEL, STACK_MODEL32, PLAIN_MODEL32, _inf_bias_model())
edge_features = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 3e38, -3e38]),
)
# every input dtype a pair may come in; the lone path fills its float64
# scratch from each of them, where the batch path casts with astype
real_vectors = st.one_of(
    hnp.arrays(np.bool_, 6),
    hnp.arrays(np.int8, 6),
    hnp.arrays(np.int64, 6),
    hnp.arrays(np.uint64, 6, elements=st.integers(2**53, 2**64 - 1)),
    hnp.arrays(np.float16, 6),
    hnp.arrays(np.float32, 6),
    hnp.arrays(np.dtype(">f8"), 6),
    st.lists(st.one_of(st.floats(), st.integers()), min_size=6, max_size=6),
)


class TestLonePair:
    """A lone (M,) pair's own path against the one-row batch, and under threads."""

    @pytest.mark.filterwarnings("error")
    @given(
        f=hnp.arrays(np.float64, 6, elements=edge_features),
        fp=hnp.arrays(np.float64, 6, elements=edge_features),
        same=st.sampled_from(["none", "all", "all_but_last"]),
    )
    # both vectors fit in float32 but their difference does not
    @example(f=np.full(6, 3e38), fp=np.full(6, -3e38), same="none")
    # a float64 model scores 1e300, a float32 one refuses it
    @example(f=np.r_[1e300, np.zeros(5)], fp=np.zeros(6), same="none")
    @example(f=np.r_[np.nan, np.zeros(5)], fp=np.zeros(6), same="none")
    # the difference overflows float64 itself: no warning may escape
    @example(f=np.full(6, 1.7e308), fp=np.full(6, -1.7e308), same="none")
    @example(f=np.r_[0.0, -0.0, 1.0, np.zeros(3)], fp=np.r_[-0.0, 0.0, 1.0, np.zeros(3)], same="none")
    def test_same_bits_or_same_error_as_a_one_row_batch(self, f, fp, same):
        if same == "all":
            fp = f.copy()
        elif same == "all_but_last":
            fp = np.r_[f[:-1], fp[-1]]
        for model in LONE_MODELS:
            for a, b in ((f, fp), (fp, f)):
                lone = _outcome(lambda: det.statistic_batch(model, a, b))
                batch = _outcome(lambda: det.statistic_batch(model, a[None], b[None])[0])
                assert lone == batch

    @pytest.mark.filterwarnings("error")
    @given(f=real_vectors, fp=real_vectors)
    def test_every_input_dtype_has_the_one_row_batch_outcome(self, f, fp):
        for model in LONE_MODELS:
            for a, b in ((f, fp), (fp, f)):
                lone = _outcome(lambda: det.statistic_batch(model, a, b))
                batch = _outcome(
                    lambda: det.statistic_batch(model, np.asarray(a)[None], np.asarray(b)[None])[0]
                )
                assert lone == batch

    def test_network_input_of_every_tie_pattern_is_the_reference(self, network_inputs):
        rng = np.random.default_rng(300)
        f, fp = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        fp[0] = f[0]  # equal vectors
        fp[1, :3] = f[1, :3]  # ties in the three leading features
        fp[2, :-1] = f[2, :-1]  # a tie in all but the last feature
        f[3, :2], fp[3, :2] = 0.0, -0.0  # equal but for the sign of zero
        for model in (PLAIN_MODEL, PLAIN_MODEL32, STACK_MODEL, STACK_MODEL32):
            for a, b in [p for i in range(4) for p in ((f[i], fp[i]), (fp[i], f[i]))]:
                network_inputs.clear()
                det.statistic_batch(model, a, b)
                assert [(x.dtype, x.shape, x.tobytes()) for x in network_inputs] == [
                    (x.dtype, x.shape, x.tobytes()) for x in reference_inputs(model, a, b)
                ]

    def test_threads_sharing_a_model_match_a_serial_run(self):
        # four threads interleave lone-pair decisions and batch statistics on
        # one float32 model; the barrier starts them together
        model = as_float32(make_model(m=16, hidden=(256, 256, 256), seed=34))
        rng = np.random.default_rng(35)
        f, fp = rng.normal(size=(48, 16)), rng.normal(size=(48, 16))
        barrier = threading.Barrier(4, timeout=60)

        def run(t, wait=False):
            if wait:
                barrier.wait()
            got = []
            for i in range(40):
                j = (i + 10 * t) % 40
                got.append(np.float64(det.decide(model, f[j], fp[j]).statistic).tobytes())
                got.append(det.statistic_batch(model, f[j : j + 8], fp[j : j + 8]).tobytes())
            return got

        serial = [run(t) for t in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda t: run(t, wait=True), range(4)))
        assert threaded == serial

    def test_threads_mixing_lone_pairs_and_batches_on_two_shapes_match_a_serial_run(self):
        # lone decisions and batches of 1, 3 and B + 1 pairs, on two models of
        # different shapes, interleaved on four threads
        models = (as_float32(make_model(m=16, hidden=(64, 64, 64), seed=40)), make_model(m=6, seed=41))
        rng = np.random.default_rng(42)
        pairs = [(rng.normal(size=(B + 12, m)), rng.normal(size=(B + 12, m))) for m in (16, 6)]
        barrier = threading.Barrier(4, timeout=60)

        def run(t, wait=False):
            if wait:
                barrier.wait()
            got = []
            for i in range(12):
                j = (i + 3 * t) % 12
                for model, (f, fp) in zip(models, pairs):
                    got.append(np.float64(det.decide(model, f[j], fp[j]).statistic).tobytes())
                    n = (1, 3, B + 1)[(i + t) % 3]
                    got.append(det.statistic_batch(model, f[j : j + n], fp[j : j + n]).tobytes())
            return got

        serial = [run(t) for t in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda t: run(t, wait=True), range(4), timeout=120))
        assert threaded == serial

    def test_threads_on_models_of_two_shapes_match_the_batch_path(self):
        # every thread keeps its own scratch per network shape and dtype: four
        # threads interleave lone decisions on a wide float32 model and on
        # narrow ones that share its dtype, their shape or their input width,
        # switching threads often; the batch path, which uses no scratch,
        # gives the bits every decision must have
        narrow = make_model(m=6, hidden=(8, 8), seed=37)
        models = (
            as_float32(make_model(m=16, hidden=(256, 256, 256), seed=36)),
            narrow,
            as_float32(narrow),
            make_model(m=6, hidden=(8, 8, 4), seed=38),
        )
        rng = np.random.default_rng(39)
        pairs = [(rng.normal(size=(40, m)), rng.normal(size=(40, m))) for m in (16, 6, 6, 6)]
        want = [det.statistic_batch(model, f, fp) for model, (f, fp) in zip(models, pairs)]
        barrier = threading.Barrier(4, timeout=60)

        def run(t):
            barrier.wait()
            got = []
            for i in range(40):
                j = (i + 10 * t) % 40
                for model, (f, fp) in zip(models, pairs):
                    got.append(det.decide(model, f[j], fp[j]).statistic)
            return np.array(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for t, got in enumerate(threaded):
            order = (np.arange(40) + 10 * t) % 40
            assert got.tobytes() == np.stack([g[order] for g in want], axis=1).tobytes()

class TestSigmoid:
    @given(
        x=st.one_of(
            st.floats(),
            st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 700.0, -700.0, 710.0, -745.0]),
        )
    )
    def test_scalar_path_matches_array_path(self, x):
        scalar = det.sigmoid(x)
        assert isinstance(scalar, float)
        assert np.float64(scalar).tobytes() == det.sigmoid(np.array([x]))[0].tobytes()


class TestDecide:
    def test_tie_goes_to_h0(self):
        model = make_model(zero=True)
        assert det.decide(model, np.ones(4), np.zeros(4)).hypothesis is det.Hypothesis.H0

    def test_large_statistic_saturates_posterior(self):
        model = make_model(zero=True)
        model.params.biases[-1][0] = 40.0
        d = det.decide(model, np.ones(4), np.zeros(4))
        assert d.hypothesis is det.Hypothesis.H1
        assert d.posterior == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_posterior_threshold(self):
        model = make_model(m=3, seed=21)
        rng = np.random.default_rng(22)
        f = rng.normal(size=(10_000, 3))
        fp = rng.normal(size=(10_000, 3))
        g = det.statistic_batch(model, f, fp)
        assert np.array_equal(g > 0.0, det.sigmoid(g) > 0.5)

    def test_swap_symmetry_of_decisions(self):
        model = make_model(m=4, seed=23)
        rng = np.random.default_rng(24)
        for _ in range(200):
            f, fp = rng.normal(size=4), rng.normal(size=4)
            assert det.decide(model, f, fp).hypothesis == det.decide(model, fp, f).hypothesis

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_input_fails_closed(self, bad, slot):
        pair = [np.zeros(4), np.zeros(4)]
        pair[slot][0] = bad
        with pytest.raises(ValueError, match="finite"):
            det.decide(make_model(), *pair)

    @pytest.mark.parametrize("g", [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf])
    def test_decision_follows_statistic(self, g):
        d = det.Decision(g)
        assert (d.hypothesis is det.Hypothesis.H1) == (g > 0.0)
        assert np.float64(d.posterior).tobytes() == np.float64(det.sigmoid(g)).tobytes()
        assert np.float64(d.posterior).tobytes() == det.sigmoid(np.array([g]))[0].tobytes()
        # the same boundary through decide_any: a DBC margin of 0 - threshold
        got = modelio.decide_any(DbcModel(norm_order=1, threshold=-g), np.zeros(2), np.zeros(2))
        assert got.statistic == g and got.hypothesis is d.hypothesis


class TestStatisticBatchFailsClosed:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_input(self, bad, slot):
        pairs = [np.zeros((5, 4)), np.zeros((5, 4))]
        pairs[slot][3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            det.statistic_batch(make_model(), *pairs)

    def test_non_finite_statistic(self):
        # an overflowed output bias turns every statistic into inf
        model = make_model()
        model.params.biases[-1][0] = math.inf
        with pytest.raises(ValueError, match="not finite"):
            det.statistic_batch(model, np.zeros((3, 4)), np.ones((3, 4)))
        with pytest.raises(ValueError, match="not finite"):
            det.decide(model, np.zeros(4), np.ones(4))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            det.statistic_batch(make_model(), np.zeros((3, 4)), np.zeros((2, 4)))


class TestPairLoss:
    def test_zero_params_give_log_two(self):
        model = make_model(zero=True)
        pairs = make_pair_set(k=17, seed=3)
        assert abs(det.pair_loss(model, pairs) - math.log(2.0)) < 1e-12

    def test_single_same_pair_at_minus_ten(self):
        # zero weights with output bias -10 force g = -10 everywhere
        model = make_model(zero=True)
        model.params.biases[-1][0] = -10.0
        pairs = make_pair_set(k=1, seed=4)
        same_only = PairSet(
            first=pairs.first[:1].repeat(2, axis=0),
            second=pairs.second[:1].repeat(2, axis=0),
            location_a=np.array([0, 0]),
            location_b=np.array([0, 1]),
            estimate_a=np.array([0, 0]),
            estimate_b=np.array([1, 1]),
            k_per_class=1,
        )
        # SAME term: -log(1 - sigmoid(-10)) = log(1 + exp(-10))
        want_same = math.log1p(math.exp(-10.0))
        want_diff = math.log1p(math.exp(10.0))
        got = det.pair_loss(model, same_only)
        assert got == pytest.approx((want_same + want_diff) / 2, rel=1e-12)
        assert want_same == pytest.approx(4.54e-5, rel=1e-2)

    def test_matches_naive_formula(self):
        model = make_model(m=4, seed=31)
        pairs = make_pair_set(k=25, m=4, seed=32)
        g = det.statistic_batch(model, pairs.first, pairs.second)
        naive = 0.0
        for gi, is_diff in zip(g, pairs.labels):
            s = 1.0 / (1.0 + math.exp(-gi))
            naive += -math.log(s) if is_diff else -math.log(1.0 - s)
        naive /= len(pairs)
        assert det.pair_loss(model, pairs) == pytest.approx(naive, abs=1e-10)

    def test_gradient_check(self):
        rng = np.random.default_rng(33)
        model = make_model(m=3, hidden=(6, 5, 4), seed=34)
        pairs = make_pair_set(k=8, m=3, seed=35)
        _, grads = det.pair_loss_grad(model, pairs)
        h = 1e-5
        for _ in range(30):
            layer = int(rng.integers(0, 4))
            w = model.params.weights[layer]
            i, j = int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1]))
            orig = w[i, j]
            w[i, j] = orig + h
            up = det.pair_loss(model, pairs)
            w[i, j] = orig - h
            down = det.pair_loss(model, pairs)
            w[i, j] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - grads.weights[layer][i, j]) < 1e-4 * max(1.0, abs(fd))


class TestStandardization:
    def test_training_features_are_standardized(self):
        pairs = make_pair_set(k=200, m=5, seed=41, gap=3.0)
        mean, std = det.freeze_standardization(pairs)
        stacked = np.concatenate([pairs.first, pairs.second], axis=0)
        z = (stacked - mean) / std
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-9

    def test_degenerate_feature_clamped(self):
        pairs = make_pair_set(k=10, m=3, seed=42)
        pairs.first[:, 1] = -50.0
        pairs.second[:, 1] = -50.0
        mean, std = det.freeze_standardization(pairs)
        assert std[1] == det.STD_EPSILON


def make_separable_corpus(l=14, e=6, m=4, seed=0) -> MeasurementSet:
    """Location signatures far apart relative to estimate noise: linearly
    separable in [f, f', f - f'] space."""
    rng = np.random.default_rng(seed)
    signatures = rng.normal(0.0, 20.0, size=(l, 1, m))
    noise = rng.normal(0.0, 0.05, size=(l, e, m))
    return MeasurementSet(values=signatures + noise, location_ids=np.arange(l))


def test_mixed_dtype_params_rejected():
    # a model decides in one float width: float32 or float64 throughout
    model = make_model()
    for base, odd in ((np.float64, np.float32), (np.float32, np.float64)):
        for part in ("weights", "biases"):
            params = model.params.astype(base)
            arrays = getattr(params, part)
            arrays[-1] = arrays[-1].astype(odd)
            with pytest.raises(ValueError, match="all float32 or all float64"):
                det.DetectorModel(params, model.feature_mean, model.feature_std)
    with pytest.raises(ValueError, match="all float32 or all float64"):
        det.DetectorModel(model.params.astype(np.float16), model.feature_mean, model.feature_std)


def test_standardized_input_outside_float32_refused():
    # finite, but 1e300 standardizes to a value no float32 holds; float64 scores it
    big = np.array([1e300, 0.0, 0.0, 0.0])
    model64 = make_model()
    model32 = as_float32(model64)
    assert math.isfinite(det.statistic_batch(model64, big, np.zeros(4)))
    for f, fp in ((big, np.zeros(4)), (np.zeros((3, 4)), np.stack([np.zeros(4), big, big]))):
        with pytest.raises(ValueError, match="do not fit in float32"):
            det.statistic_batch(model32, f, fp)
        with pytest.raises(ValueError, match="do not fit in float32"):
            det.statistic_batch(model32, fp, f)
    # the difference block overflows although both vectors fit
    with pytest.raises(ValueError, match="do not fit in float32"):
        det.statistic_batch(as_float32(PLAIN_MODEL), np.full(6, 3e38), np.full(6, -3e38))
    # and in float64 the same holds at float64's range, without a warning
    with pytest.raises(ValueError, match="do not fit in float64"):
        det.statistic_batch(PLAIN_MODEL, np.full(6, 1e308), np.full(6, -1e308))


class TestTrainDetector:
    def test_separable_corpus_reaches_perfect_validation(self):
        ms = make_separable_corpus()
        split = split_locations(ms, 12, 0.8, seed=1)
        cfg = TrainConfig(
            hidden_sizes=(16, 16, 16), max_epochs=60, patience=60, batch_size=64,
            learning_rate=0.1,
        )
        model, history = det.train_detector(ms, split, 400, 100, cfg, seed=2)
        assert max(history.val_accuracy) == 1.0

    def test_deterministic(self):
        ms = make_separable_corpus(seed=3)
        split = split_locations(ms, 10, 0.8, seed=4)
        cfg = TrainConfig(hidden_sizes=(8, 8, 8), max_epochs=5, patience=5, batch_size=32)
        m1, h1 = det.train_detector(ms, split, 100, 40, cfg, seed=5)
        m2, h2 = det.train_detector(ms, split, 100, 40, cfg, seed=5)
        assert h1.val_accuracy == h2.val_accuracy
        for a, b in zip(m1.params.weights, m2.params.weights):
            assert np.array_equal(a, b)

    def test_campaign_configuration_builds(self):
        ms = make_separable_corpus(l=52, e=4, m=6, seed=6)
        split = split_locations(ms, 45, 0.8, seed=7)
        cfg = TrainConfig(hidden_sizes=(8, 8, 8), max_epochs=2, patience=2)
        model, history = det.train_detector(ms, split, 1250, 150, cfg, seed=8)
        assert model.n_features == 6
        assert history.n_epochs >= 1

    def test_fitted_params_are_float32_and_round_trip(self, tmp_path):
        # the fit runs in float32 and the model keeps its snapshot as it is
        ms = make_separable_corpus(seed=3)
        split = split_locations(ms, 10, 0.8, seed=4)
        cfg = TrainConfig(hidden_sizes=(8, 8, 8), max_epochs=3, patience=3, batch_size=32)
        model, _ = det.train_detector(ms, split, 100, 40, cfg, seed=5)
        arrays = (*model.params.weights, *model.params.biases)
        assert all(a.dtype == np.float32 for a in arrays)
        assert model.feature_mean.dtype == model.feature_std.dtype == np.float64
        path = tmp_path / "dnnc.bin"
        modelio.save_model(model, path)
        loaded = modelio.load_model(path)
        assert [(a.dtype, a.tobytes()) for a in (*loaded.params.weights, *loaded.params.biases)] == [
            (a.dtype, a.tobytes()) for a in arrays
        ]
        f, fp = ms.values[0, 0], ms.values[1, 0]
        assert modelio.decide_any(loaded, f, fp) == det.decide(model, f, fp)
