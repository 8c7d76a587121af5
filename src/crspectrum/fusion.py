"""Cooperative spectrum prediction: fusing per-user local predictions.

N secondary users each report a binary prediction for the slot; the reports
are packed into one table index and a two-action Q-table learns which fused
call (idle/busy) pays off against the realized state. Hard M-out-of-N voting
and probability-ratio soft combining serve as baselines.

State packing and both baselines work along the last axis: a 1-d vector
gives one int, a 2-d array one int64 result per row.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .seeding import make_rng

# codes index tables of 2^n rows (fusion's and the agents'): keep n tabulable
MAX_STATE_BITS = 20


def _bit_array(bits) -> np.ndarray:
    """bits as int64, checked as given to be a nonempty 1-d or 2-d array of 0/1."""
    bits = np.asarray(bits)
    if bits.ndim not in (1, 2) or bits.size == 0:
        raise ValueError("need a nonempty 1-d or 2-d bit array")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    return bits.astype(np.int64, copy=False)


def encode_state(bits):
    """Pack 0/1 bits along the last axis, bit i weighted 2^i."""
    bits = _bit_array(bits)
    n_bits = bits.shape[-1]
    if n_bits > MAX_STATE_BITS:
        raise ValueError(f"at most {MAX_STATE_BITS} bits, got {n_bits}")
    codes = bits @ (1 << np.arange(n_bits, dtype=np.int64))
    return int(codes) if bits.ndim == 1 else codes


def decode_state(code: int, n_bits: int) -> np.ndarray:
    """Inverse of encode_state for a known bit count."""
    if not 0 <= code < (1 << n_bits):
        raise ValueError(f"code {code} out of range for {n_bits} bits")
    return (code >> np.arange(n_bits, dtype=np.int64)) & 1


def train_fusion(
    local_bits: np.ndarray,
    actual: Sequence[int],
    seed: int,
    gamma: float = 0.5,
    r_p: float = 1.0,
    r_n: float = -1.0,
    epsilon: float = 0.1,
) -> np.ndarray:
    """Run the fusion learner over a full trace of local predictions.

    local_bits is T x N; the result is the 2^N x 2 array of state-action
    values over packed prediction vectors. Each step acts epsilon-greedily
    on the pre-update table (uniform with probability epsilon, else greedy
    with ties toward idle) and moves Q(state, action) toward r_p for a call
    that matches the realized state (r_n otherwise) plus gamma times the
    best next value. Exploration decays linearly from epsilon to zero over
    the first half of the run; the learning rate for each (state, action) is
    1/visit-count, which settles the greedy policy on the empirically best
    action per state.
    """
    local_bits = np.asarray(local_bits)
    actual = np.asarray(actual, dtype=np.int64).tolist()
    if local_bits.ndim != 2 or local_bits.shape[0] != len(actual):
        raise ValueError("local_bits must be T x N aligned with actual")
    T, n_users = local_bits.shape
    if T < 2:
        raise ValueError("need at least 2 slots to train")
    if not 1 <= n_users <= MAX_STATE_BITS:
        raise ValueError(f"n_users must be in [1, {MAX_STATE_BITS}], got {n_users}")
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if not (math.isfinite(r_p) and math.isfinite(r_n)):
        raise ValueError(f"r_p and r_n must be finite, got {r_p} and {r_n}")
    # flat lists indexed 2 * state + action: numpy scalar access costs more
    q = [0.0] * (2 << n_users)
    visits = [0] * (2 << n_users)
    rng = make_rng(seed)
    base = (2 * encode_state(local_bits)).tolist()  # each slot's (state, idle)
    half = (T - 1) / 2.0
    for t in range(T - 1):
        s = base[t]
        eps_t = epsilon * (1.0 - t / half) if t < half else 0.0
        if eps_t > 0 and rng.random() < eps_t:
            action = int(rng.integers(0, 2))
        else:
            action = 1 if q[s + 1] > q[s] else 0
        i = s + action
        visits[i] += 1
        a, b = q[base[t + 1]], q[base[t + 1] + 1]
        target = (r_p if action == actual[t] else r_n) + gamma * (b if b > a else a)
        q[i] += (1.0 / visits[i]) * (target - q[i])
    return np.array(q).reshape(-1, 2)


def m_out_of_n(preds, m: int):
    """Hard vote: busy when at least m of the N users predict busy."""
    bits = _bit_array(preds)
    n = bits.shape[-1]
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    fused = (bits.sum(axis=-1) >= m).astype(np.int64)
    return int(fused) if bits.ndim == 1 else fused


def soft_fuse(p0, p1):
    """Probability-ratio combining: idle when sum (p0-p1)/(p0+p1) >= 0."""
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    if p0.shape != p1.shape or p0.ndim not in (1, 2) or p0.size == 0:
        raise ValueError("p0 and p1 must be equal-shape nonempty 1-d or 2-d arrays")
    # a NaN score would read busy, so reject what could make one
    if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(p1))):
        raise ValueError("p0 and p1 must be finite")
    denom = p0 + p1
    if np.any(denom <= 0):
        raise ValueError("each p0_i + p1_i must be positive")
    fused = np.where(np.sum((p0 - p1) / denom, axis=-1) >= 0, 0, 1)
    return int(fused) if p0.ndim == 1 else fused


def noisy_local_predictions(
    true_states: Sequence[int], error_rates: Sequence[float], seed: int
) -> np.ndarray:
    """Simulate N users whose predictions flip the truth independently.

    Entry (t, i) equals the true state at slot t flipped with probability
    error_rates[i].
    """
    states = np.asarray(true_states, dtype=np.int64)
    rates = np.asarray(error_rates, dtype=np.float64)
    if np.any(rates < 0) or np.any(rates > 1):
        raise ValueError("error rates must lie in [0, 1]")
    rng = make_rng(seed)
    flips = rng.random((len(states), len(rates))) < rates[None, :]
    return np.where(flips, 1 - states[:, None], states[:, None]).astype(np.int64)
