"""The batched PCG64 state derivation against numpy's own SeedSequence.

uint32 overflow in a numpy scalar only warns, so every test here turns
warnings into errors: a wrapped word would otherwise pass unnoticed.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rssdetect.seeding import pcg64_states

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
    got = pcg64_states(parent, tails)
    assert len(got) == len(tails)
    for tail, (state, inc) in zip(tails.tolist(), got):
        want = _numpy_bit_generator(entropy, tuple(prefix) + tuple(tail), pool_size)
        assert want.state["state"] == {"state": state, "inc": inc}
        derived = np.random.PCG64(0)
        derived.state = dict(want.state, state={"state": state, "inc": inc})
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
    got = pcg64_states(parent, (first + np.arange(17))[:, None])
    want = [np.random.PCG64(child).state["state"] for child in parent.spawn(17)]
    assert [{"state": s, "inc": i} for s, i in got] == want


def test_entropy_sequences_and_uint32_arrays():
    for entropy in ([1, 2**40, 3], (5,), np.array([3, 4], dtype=np.uint32), list(range(12))):
        [(state, inc)] = pcg64_states(np.random.SeedSequence(entropy, spawn_key=(1, 2)), [[9]])
        want = _numpy_bit_generator(entropy, (1, 2, 9)).state["state"]
        assert want == {"state": state, "inc": inc}


@pytest.mark.parametrize(
    "tails",
    [[[2**32]], [[-1]], [[0, 2**63]], [[0.5]], [0, 1], [[[0]]]],
    ids=["word-overflow", "negative", "wide", "float", "1-d", "3-d"],
)
def test_tail_outside_one_word_raises(tails):
    with pytest.raises(ValueError):
        pcg64_states(np.random.SeedSequence(1), np.array(tails))
