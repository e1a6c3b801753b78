"""The batched PCG64 state derivation against numpy's own SeedSequence and PCG64.

uint32 or uint64 overflow in a numpy scalar only warns, so every test
here turns warnings into errors: a wrapped word would otherwise pass
unnoticed.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rssdetect.seeding import _pcg64_set_seed, pcg64_random, pcg64_words

pytestmark = pytest.mark.filterwarnings("error")

ENTROPY = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**128 - 1]), st.integers(0, 2**256 - 1)
)
# spawn-key words of any size in the shared prefix; tails must fit one word
PREFIX = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96)), max_size=3)
TAIL_WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))
TAILS = st.integers(0, 3).flatmap(
    lambda k: st.lists(st.lists(TAIL_WORD, min_size=k, max_size=k), min_size=1, max_size=4)
)


def _states(words) -> list[dict]:
    """PCG64 ``state`` dicts of (B, 4) ``(state_hi, state_lo, inc_hi, inc_lo)`` words."""
    return [{"state": (a << 64) | b, "inc": (c << 64) | d} for a, b, c, d in words.tolist()]


def _numpy_bit_generator(entropy, spawn_key, pool_size=4) -> np.random.PCG64:
    ss = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
    return np.random.PCG64(ss)


@given(entropy=ENTROPY, prefix=PREFIX, tails=TAILS, pool_size=st.sampled_from([4, 5, 8, 9]))
@example(entropy=0, prefix=[], tails=[[]], pool_size=4)
@example(entropy=2**32 - 1, prefix=[2**32], tails=[[0], [2**32 - 1]], pool_size=4)
@example(entropy=2**128 - 1, prefix=[], tails=[[7, 0], [7, 16]], pool_size=4)
@example(entropy=2**32, prefix=[5], tails=[[3]], pool_size=5)
def test_matches_numpy_seed_sequence(entropy, prefix, tails, pool_size):
    tails = np.array(tails, dtype=np.int64).reshape(len(tails), -1)
    parent = np.random.SeedSequence(entropy, spawn_key=prefix, pool_size=pool_size)
    got = pcg64_words(parent, tails)
    assert got.shape == (len(tails), 4) and got.dtype == np.uint64
    for tail, state in zip(tails.tolist(), _states(got)):
        want = _numpy_bit_generator(entropy, tuple(prefix) + tuple(tail), pool_size)
        assert want.state["state"] == state
        derived = np.random.PCG64(0)
        derived.state = dict(want.state, state=state)
        a, b = np.random.Generator(derived), np.random.Generator(want)
        assert a.uniform() == b.uniform()
        assert a.standard_normal(32).tobytes() == b.standard_normal(32).tobytes()


# numpy's spawn counts children in uint32 and never returns once the count
# would reach 2**32, so the reference stops one child short of it
@given(first=st.integers(0, 2**32 - 18), entropy=ENTROPY)
@example(first=2**32 - 18, entropy=0)
def test_child_offsets_match_spawn(first, entropy):
    # children first .. first+16 of a parent, as spawn numbers them
    parent = np.random.SeedSequence(entropy, spawn_key=(3,), n_children_spawned=first)
    got = pcg64_words(parent, (first + np.arange(17))[:, None])
    want = [np.random.PCG64(child).state["state"] for child in parent.spawn(17)]
    assert _states(got) == want


def test_entropy_sequences_and_uint32_arrays():
    for entropy in ([1, 2**40, 3], (5,), np.array([3, 4], dtype=np.uint32), list(range(12))):
        [state] = _states(pcg64_words(np.random.SeedSequence(entropy, spawn_key=(1, 2)), [[9]]))
        assert _numpy_bit_generator(entropy, (1, 2, 9)).state["state"] == state


@pytest.mark.parametrize(
    "tails",
    [[[2**32]], [[-1]], [[0, 2**63]], [[0.5]], [0, 1], [[[0]]]],
    ids=["word-overflow", "negative", "wide", "float", "1-d", "3-d"],
)
def test_tail_outside_one_word_raises(tails):
    with pytest.raises(ValueError):
        pcg64_words(np.random.SeedSequence(1), np.array(tails))


def test_empty_batch():
    words = pcg64_words(np.random.SeedSequence(3), np.empty((0, 2), dtype=np.int64))
    assert words.shape == (0, 4) and words.dtype == np.uint64
    stepped, values = pcg64_random(words)
    assert stepped.shape == (0, 4) and values.shape == (0,)


# 128-bit words as (hi, lo) halves; the edge halves make carries cross
# from the low word into the high one in the additions and products
HALF = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)
)
WORD128 = st.tuples(HALF, HALF).map(lambda hl: (hl[0] << 64) | hl[1])
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


class _FixedSeed(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 a chosen 128-bit seed and stream, as generate_state(4, uint64) words."""

    def __init__(self, seed: int, seq: int):
        self.words = [seed >> 64, seed & (2**64 - 1), seq >> 64, seq & (2**64 - 1)]

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.uint64)
        return np.array(self.words, dtype=np.uint64)


def _halves(values) -> list[np.ndarray]:
    return [np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & (2**64 - 1) for v in values], dtype=np.uint64)]


@given(st.lists(st.tuples(WORD128, WORD128), min_size=1, max_size=4))
@example([(0, 0), (2**128 - 1, 2**128 - 1), (2**64 - 1, 2**63), (2**64, 2**64 - 1)])
def test_set_seed_matches_pcg64(seeds):
    seed_hi, seed_lo = _halves([seed for seed, _ in seeds])
    seq_hi, seq_lo = _halves([seq for _, seq in seeds])
    got = _states(_pcg64_set_seed(seed_hi, seed_lo, seq_hi, seq_lo))
    assert got == [np.random.PCG64(_FixedSeed(seed, seq)).state["state"] for seed, seq in seeds]


def _before(stepped: int, inc: int) -> int:
    """The state whose LCG step gives ``stepped``."""
    return (stepped - inc) * pow(PCG_MULT, -1, 2**128) % 2**128


# a stepped state whose top 6 bits are zero makes the XSL-RR rotation 0
ROT0 = st.integers(0, 2**122 - 1)
ODD = WORD128.map(lambda inc: inc | 1)


@given(
    st.lists(
        st.one_of(
            st.tuples(WORD128, ODD),
            st.tuples(ROT0, ODD).map(lambda s: (_before(*s), s[1])),
        ),
        min_size=1,
        max_size=4,
    )
)
@example([(_before(0, 1), 1), (_before(2**122 - 1, 2**128 - 1), 2**128 - 1), (2**128 - 1, 1)])
@example([(_before(2**122, 3), 3), (_before(2**64 - 1, 2**64 + 1), 2**64 + 1), (0, 2**64 - 1)])
def test_random_step_matches_generator(states):
    words = np.stack([*_halves([s for s, _ in states]), *_halves([i for _, i in states])], axis=1)
    stepped, values = pcg64_random(words)
    assert values.dtype == np.float64
    for (state, inc), after, value in zip(states, _states(stepped), values.tolist()):
        bit_generator = np.random.PCG64(0)
        bit_generator.state = dict(bit_generator.state, state={"state": state, "inc": inc})
        want = np.random.Generator(bit_generator).random()
        assert value == want
        assert after == bit_generator.state["state"]
