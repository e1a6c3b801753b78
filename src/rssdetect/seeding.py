"""Deterministic seed derivation.

Every randomized operation takes a seed and builds its own PCG64
generator, so runs are reproducible and safely parallelizable.  Nested
streams are derived with ``numpy.random.SeedSequence`` spawn keys: the
mixing function H(master, *path) is SeedSequence(master, spawn_key=path),
whose output streams are independent and collision-free for distinct
paths.

Where thousands of sibling streams are needed (one per synthesized
sample window), :func:`pcg64_words` computes the PCG64 state that
``PCG64(SeedSequence(entropy, spawn_key=key + tail))`` would start from,
for a whole batch of key tails at once, without building a SeedSequence
or a generator per stream, and :func:`pcg64_random` takes the first
``Generator.random()`` draw of every stream of a batch.  Both reproduce
numpy's algorithms word for word (SeedSequence's hash and mix, PCG64's
seeding, LCG step and XSL-RR output); these are pinned by numpy's
stream-compatibility policy (NEP 19).  The derivation changes no stream:
the seed tree is numpy's own.

The 128-bit PCG64 arithmetic runs on (hi, lo) pairs of uint64 arrays,
with 32-bit limbs for the full 64 x 64-bit products.  Every operation
keeps an array operand: uint64 arrays wrap silently, as the arithmetic
needs, but an overflowing operation between numpy *scalars* warns.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | np.random.SeedSequence"

_MASK32 = 0xFFFF_FFFF
# SeedSequence hash and mix constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
# PCG64's 128-bit LCG multiplier, high and low word
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)


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


def _wide_mul(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit products ``(hi, lo)`` of uint64 words ``a`` and a 64-bit constant.

    Each factor is split into 32-bit limbs, so no partial product or
    partial sum leaves 64 bits.
    """
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    lo = (mid << _SHIFT32) | (p00 & _LOW32)
    hi = p11 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` mod 2**128 on (hi, lo) uint64 word arrays."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_step(s_hi, s_lo, i_hi, i_lo) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step ``state * mult + inc`` mod 2**128 on (hi, lo) word arrays."""
    hi, lo = _wide_mul(s_lo, _PCG_MULT_LO)
    hi = hi + s_hi * np.uint64(_PCG_MULT_LO) + s_lo * np.uint64(_PCG_MULT_HI)
    return _add128(hi, lo, i_hi, i_lo)


def pcg64_words(parent: np.random.SeedSequence, tails) -> np.ndarray:
    """PCG64 states of a batch of descendants of ``parent``, as uint64 words.

    Row i of ``tails`` (shape (B, k), k >= 0) extends the parent's spawn
    key.  Row i of the (B, 4) result is ``(state_hi, state_lo, inc_hi,
    inc_lo)`` of ``np.random.PCG64(SeedSequence(parent.entropy,
    spawn_key=parent.spawn_key + tuple(tails[i]),
    pool_size=parent.pool_size))``: its ``state`` is ``state_hi * 2**64 +
    state_lo`` and its ``inc`` likewise.  Entropy assembly, mixing,
    ``generate_state`` and PCG64's seeding all run as uint32 or uint64
    array operations over the batch, with no per-child step.  Every tail
    entry must fit one uint32 word; anything else raises ``ValueError``.
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
    return _pcg64_set_seed(*(words[0::2] | (words[1::2] << _SHIFT32)))


def _pcg64_set_seed(seed_hi, seed_lo, seq_hi, seq_lo) -> np.ndarray:
    """PCG64's seeding from 128-bit ``seed`` and ``seq`` (hi, lo) word arrays:
    ``inc = 2*seq + 1``, then two LCG steps from 0, adding the seed after
    the first.  Returns (B, 4) words as :func:`pcg64_words` does."""
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    state = _lcg_step(*_add128(seed_hi, seed_lo, inc_hi, inc_lo), inc_hi, inc_lo)
    return np.stack([*state, inc_hi, inc_lo], axis=1)


def pcg64_random(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One ``Generator.random()`` draw from each row of (B, 4) PCG64 words.

    Returns the words after the draw's LCG step and the draws:
    ``(xsl_rr(stepped state) >> 11) * 2**-53``, the double numpy's PCG64
    makes from its next 64-bit output.
    """
    hi, lo = _lcg_step(*words.T)
    out = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (out >> rot) | (out << ((np.uint64(64) - rot) & np.uint64(63)))
    values = (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    return np.stack([hi, lo, words[:, 2], words[:, 3]], axis=1), values
