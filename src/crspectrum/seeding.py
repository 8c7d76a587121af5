"""Deterministic seed derivation for independent random streams.

Every stochastic component of the simulator draws from its own
``numpy.random.Generator`` whose seed is derived from the master seed and a
small integer path (purpose code, channel index, repetition index, ...).
Derivation goes through splitmix64, so adding channels, methods, or
repetitions never perturbs the streams of the ones already there.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One splitmix64 step; the fixed 64-bit mixing function used everywhere."""
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(master: int, *path: int) -> int:
    """Derive a 64-bit sub-seed from ``master`` and an integer path.

    Components are folded in one at a time, so streams keyed by a shorter
    prefix are unaffected by anything appended after it.
    """
    s = master & _MASK
    for component in path:
        s = _splitmix64(s ^ ((component * _GOLDEN) & _MASK))
    return s


def make_rng(master: int, *path: int) -> np.random.Generator:
    """PCG64 generator for the stream identified by (master, *path)."""
    return np.random.default_rng(derive_seed(master, *path))
