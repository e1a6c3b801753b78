"""Deterministic seed derivation.

Every randomized operation takes a seed and builds its own PCG64
generator, so runs are reproducible and safely parallelizable.  A seed,
an int or a ``SeedSequence``, goes straight to ``np.random.default_rng``,
which seeds both the same way: ``default_rng(s)`` and
``default_rng(SeedSequence(s))`` draw the same stream.  Nested
streams are derived with ``numpy.random.SeedSequence`` spawn keys: the
mixing function H(master, *path) is SeedSequence(master, spawn_key=path),
whose output streams are independent and collision-free for distinct
paths.  Synthesis takes one such child per transmitter location from
numpy's own ``SeedSequence.spawn`` (see :mod:`rssdetect.signal_model`).
"""

from __future__ import annotations

import numpy as np


def derive_seed(master_seed: int, *path: int) -> int:
    """Mix a master seed with an integer path into a 128-bit child seed.

    Distinct paths give independent streams; the same (master, path)
    always gives the same child.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return int.from_bytes(ss.generate_state(4, np.uint32).tobytes(), "little")
