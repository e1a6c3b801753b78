"""Deterministic seed derivation.

Every randomized operation takes a seed and builds its own PCG64
generator, so runs are reproducible and safely parallelizable.  Nested
streams are derived with ``numpy.random.SeedSequence`` spawn keys: the
mixing function H(master, *path) is SeedSequence(master, spawn_key=path),
whose output streams are independent and collision-free for distinct
paths.

Where thousands of sibling streams are needed (one per synthesized
sample window), :func:`pcg64_states` computes the PCG64 state that
``PCG64(SeedSequence(entropy, spawn_key=key + tail))`` would start from,
for a whole batch of key tails at once, without building a SeedSequence
or a generator per stream.  It reproduces numpy's algorithms word for
word; both are pinned by numpy's stream-compatibility policy (NEP 19).
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | np.random.SeedSequence"

_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
# SeedSequence hash and mix constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Wrap an int seed; pass SeedSequence instances through unchanged."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def derive_seed(master_seed: int, *path: int) -> int:
    """Mix a master seed with an integer path into a 128-bit child seed.

    Distinct paths give independent streams; the same (master, path)
    always gives the same child.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return int.from_bytes(ss.generate_state(4, np.uint32).tobytes(), "little")


def _uint32_words(value) -> list[int]:
    """SeedSequence's coercion of entropy or a spawn key to uint32 words,
    least significant first, each integer taking as many words as it needs."""
    if isinstance(value, np.ndarray) and value.dtype == np.uint32:
        return value.tolist()
    if isinstance(value, (int, np.integer)):
        n = int(value)
        words = [n & _MASK32]
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
        return words
    return [w for v in value for w in _uint32_words(v)]


def pcg64_states(parent: np.random.SeedSequence, tails) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of a batch of descendants of ``parent``.

    Row i of ``tails`` (shape (B, k), k >= 0) extends the parent's spawn
    key: entry i is the ``state`` of ``np.random.PCG64(SeedSequence(
    parent.entropy, spawn_key=parent.spawn_key + tuple(tails[i]),
    pool_size=parent.pool_size))``.  Entropy assembly, mixing and
    ``generate_state`` run as uint32 array operations over the batch;
    only the final 128-bit LCG steps of PCG64's seeding run per child.
    Every tail entry must fit one uint32 word; anything else raises
    ``ValueError``.
    """
    tails = np.asarray(tails)
    if tails.ndim != 2:
        raise ValueError(f"tails must have shape (B, k), got {tails.shape}")
    if tails.size and not (
        np.issubdtype(tails.dtype, np.integer) and tails.min() >= 0 and tails.max() <= _MASK32
    ):
        raise ValueError("spawn-key tails must be integers in [0, 2**32)")
    pool_size = parent.pool_size
    batch, width = tails.shape
    run, key = _uint32_words(parent.entropy), _uint32_words(parent.spawn_key)
    if (key or width) and len(run) < pool_size:
        run += [0] * (pool_size - len(run))
    shared = run + key

    def mul(x, c):
        return (x * c) & _MASK32

    def hash_consts(start, mult, n):
        consts = [start]
        for _ in range(n):
            consts.append(mul(consts[-1], mult))
        return consts

    # every hashmix call takes the next pair of this sequence
    consts = hash_consts(_INIT_A, _MULT_A, pool_size * (max(len(shared), pool_size) + width))
    used = 0

    def hashmix(value):
        nonlocal used
        value = mul(value ^ consts[used], consts[used + 1])
        used += 1
        return value ^ (value >> 16)

    def mix(x, y):
        out = (mul(x, _MIX_MULT_L) - mul(y, _MIX_MULT_R)) & _MASK32
        return out ^ (out >> 16)

    # mix_entropy over the words shared by the batch, in Python ints
    pool = [hashmix(shared[i] if i < len(shared) else 0) for i in range(pool_size)]
    for i_src in range(pool_size):
        for i_dst in range(pool_size):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in shared[pool_size:]:
        pool = [mix(p, hashmix(word)) for p in pool]

    # then each tail word as a uint32 array over the batch.  The shared
    # words already fill the pool, so a tail word only mixes its hash into
    # each pool word, and all pool words are updated at once.
    pool = np.array(pool, dtype=np.uint32)[:, None]
    consts = np.array(consts, dtype=np.uint32)[:, None]
    for word in tails.T.astype(np.uint32):
        hashed = (word ^ consts[used : used + pool_size]) * consts[used + 1 : used + pool_size + 1]
        hashed ^= hashed >> 16
        used += pool_size
        pool = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
        pool ^= pool >> 16

    # generate_state(4, np.uint64): eight words cycled from the pool
    consts = np.array(hash_consts(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]
    words = (pool[np.arange(8) % pool_size] ^ consts[:-1]) * consts[1:]
    words ^= words >> 16
    words = np.broadcast_to(words.astype(np.uint64), (8, batch))
    seed_hi, seed_lo, seq_hi, seq_lo = (words[0::2] | (words[1::2] << np.uint64(32))).tolist()

    # PCG64 set_seed: inc = 2*seq + 1; two LCG steps from 0, adding the seed after the first
    out = []
    for s_hi, s_lo, q_hi, q_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
        state = ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        out.append((state, inc))
    return out
