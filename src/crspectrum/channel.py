"""Primary-user channel occupancy traces and secondary-user geometry.

Each licensed channel alternates between idle (0) and busy (1) periods:
idle gaps are geometric with mean ``mean_interarrival`` slots (the discrete
analogue of Poisson arrivals) and busy holding times are geometric with mean
``mean_holding`` slots, P(X=k) = (1-p)^(k-1) p with p = 1/mean. Traces are a
pure function of (params, n_slots, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed, make_rng


@dataclass(frozen=True)
class ChannelParams:
    """Occupancy process parameters for one primary-user channel.

    Means are in slots. Both must be >= 1 so the geometric laws are well
    defined; ``always_idle`` channels skip the check and never turn busy.
    """

    mean_interarrival: float  # mean idle gap between busy periods
    mean_holding: float       # mean busy period length
    always_idle: bool = False

    def __post_init__(self):
        if self.always_idle:
            return
        if not (self.mean_interarrival >= 1.0) or not math.isfinite(self.mean_interarrival):
            raise ValueError(
                f"mean_interarrival must be >= 1 slot, got {self.mean_interarrival}"
            )
        if not (self.mean_holding >= 1.0) or not math.isfinite(self.mean_holding):
            raise ValueError(f"mean_holding must be >= 1 slot, got {self.mean_holding}")

    @classmethod
    def idle(cls) -> "ChannelParams":
        """A channel that is never occupied."""
        return cls(mean_interarrival=1.0, mean_holding=1.0, always_idle=True)


def generate_trace(params: ChannelParams, n_slots: int, seed: int) -> np.ndarray:
    """One alternating occupancy trace: uint8 per slot, 0 idle, 1 busy.

    The channel starts idle; the first busy period begins after a geometric
    gap. Identical (params, n_slots, seed) give bit-identical traces.
    """
    if n_slots < 0:
        raise ValueError(f"n_slots must be >= 0, got {n_slots}")
    states = np.zeros(n_slots, dtype=np.uint8)
    if params.always_idle or n_slots == 0:
        return states

    rng = make_rng(seed)
    p_arrival = 1.0 / params.mean_interarrival
    p_depart = 1.0 / params.mean_holding
    t = 0
    while t < n_slots:
        gap = int(rng.geometric(p_arrival))
        t += gap
        if t >= n_slots:
            break
        hold = int(rng.geometric(p_depart))
        states[t:t + hold] = 1
        t += hold
    return states


def generate_multi(params_list, n_slots: int, seed: int) -> np.ndarray:
    """Generate independent traces, one row per parameter set (M x T).

    Channel i uses sub-seed derive_seed(seed, i), so extending the list never
    changes the traces of earlier channels.
    """
    params_list = list(params_list)
    if not params_list:
        raise ValueError("params_list must be nonempty")
    return np.stack([
        generate_trace(params, n_slots, derive_seed(seed, i))
        for i, params in enumerate(params_list)
    ])


def place_users(n: int, arena_side: float, seed: int) -> np.ndarray:
    """Drop n users uniformly over the [0, arena_side]^2 square: n x 2 (x, y)."""
    if arena_side <= 0:
        raise ValueError(f"arena_side must be positive, got {arena_side}")
    return make_rng(seed).uniform(0.0, arena_side, size=(n, 2))


def links(coords, radius: float) -> tuple[list, list]:
    """(partners, weights) of users at coords, one distance per user pair.

    partners[u] lists, in increasing index order, the other users within
    radius of u (boundary inclusive). weights[u][v] = e^(-distance) is the
    discount of v's ratings for u, so weights[u][u] = 1.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    points = np.asarray(coords, dtype=float).tolist()
    partners = [[] for _ in points]
    weights = [[1.0] * len(points) for _ in points]
    for u, (xu, yu) in enumerate(points):
        for v, (xv, yv) in enumerate(points[:u]):
            d = math.hypot(xu - xv, yu - yv)
            if d <= radius:
                partners[u].append(v)
                partners[v].append(u)
            weights[u][v] = weights[v][u] = math.exp(-d)
    return partners, weights
