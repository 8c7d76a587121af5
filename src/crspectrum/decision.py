"""Spectrum decision agents over the packed channel-occupancy state.

The sensed per-channel states of one slot pack into an M-bit integer
(``fusion.encode_state``); a shared Q-table maps that state to a channel
choice among the idle candidates. (The engine's ``mdp``,
``harness._argmax_reward``, is greedy on each (state, channel)'s mean
reward; ``value_iteration`` serves acceptance criterion 7 only.) Rewards
combine the collision outcome with bits A, the chosen channel's predicted
next state, and B, whether it was on the recommendation list. Random
access and the central node's random-priority arbitration live here too.
Their channel and user lists are the slot engine's: distinct indices in
increasing order, and a chooser's channel list is never empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion import MAX_STATE_BITS


# (A, B) -> no-collision reward; a collision negates it
_REWARD_TABLE = {
    (0, 1): 300.0,
    (0, 0): 200.0,
    (1, 1): 200.0,
    (1, 0): 100.0,
}


def reward(collision: bool, a: int, b: int) -> float:
    """Composite reward of one resolved access.

    a is the predicted next state of the chosen channel, b is 1 if the
    channel was on the recommendation list.
    """
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("A and B must be 0 or 1")
    base = _REWARD_TABLE[(a, b)]
    return -base if collision else base


@dataclass
class DecisionQTable:
    """Shared state-action values: packed sensed state x channel."""

    values: np.ndarray  # 2^M x M
    alpha: float = 0.5
    gamma: float = 0.5


def new_decision_table(
    m_channels: int, alpha: float = 0.5, gamma: float = 0.5
) -> DecisionQTable:
    if not 1 <= m_channels <= MAX_STATE_BITS:
        raise ValueError(
            f"m_channels must be in [1, {MAX_STATE_BITS}], got {m_channels}"
        )
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    return DecisionQTable(
        values=np.zeros((1 << m_channels, m_channels)), alpha=alpha, gamma=gamma
    )


def select_action(
    table: DecisionQTable,
    state: int,
    cands: list,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy channel choice among cands, a nonempty increasing list.

    Exploration draws as ``random_access`` does; greedy ties resolve to the
    lowest channel index.
    """
    n_states, n_actions = table.values.shape
    if not 0 <= state < n_states:
        raise ValueError(f"state {state} out of range")
    if min(cands) < 0 or max(cands) >= n_actions:
        raise ValueError("candidate channel out of range")
    if epsilon > 0 and rng.random() < epsilon:
        return random_access(cands, rng)
    row = table.values[state].tolist()
    best, best_q = cands[0], row[cands[0]]
    for a in cands[1:]:
        if row[a] > best_q:
            best, best_q = a, row[a]
    return best


def q_update(table: DecisionQTable, s: int, a: int, r: float, s_next: int) -> None:
    """Standard one-step update toward r + gamma * best next value."""
    n_states, n_actions = table.values.shape
    if not 0 <= s < n_states or not 0 <= s_next < n_states:
        raise ValueError("state out of range")
    if not 0 <= a < n_actions:
        raise ValueError(f"action {a} out of range")
    target = r + table.gamma * max(table.values[s_next].tolist())
    table.values[s, a] += table.alpha * (target - table.values[s, a])


def value_iteration(transition, reward, gamma: float, tol: float = 1e-6):
    """Iterate Bellman backups to the optimal value function and policy.

    Stops when the max-norm change drops below tol; greedy ties resolve to
    the lowest action index. transition is shared (S x S) or per-action
    (S x A x S); reward is per-state (S) or per-(s,a) (S x A).
    """
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    R = np.asarray(reward, dtype=np.float64)
    if R.ndim == 1:
        R = R[:, None]
    P = np.asarray(transition, dtype=np.float64)
    S, A = R.shape
    V = np.zeros(S)
    for _ in range(1_000_000):
        if P.ndim == 2:
            future = (P @ V)[:, None]  # same continuation for every action
        else:
            future = P @ V  # S x A
        Q = R + gamma * future
        V_new = Q.max(axis=1)
        delta = float(np.max(np.abs(V_new - V)))
        V = V_new
        if delta < tol:
            break
    else:
        raise RuntimeError("value iteration failed to converge")
    return V, np.argmax(Q, axis=1)


def arbitrate(requests: list, rng: np.random.Generator) -> list:
    """Random priority order over this slot's requesting users.

    requests is an increasing list of users, possibly empty; the caller
    leaves out users who already hold a channel. Earlier positions pick
    channels first. A shuffled copy is returned and requests is left as it is.
    """
    order = list(requests)
    rng.shuffle(order)  # permutation(n)'s draws (numpy 2.4); none under 2 users
    return order


def random_access(cands: list, rng: np.random.Generator) -> int:
    """Uniform channel choice among cands, a nonempty increasing list."""
    if len(cands) == 1:
        return cands[0]  # integers(0, 1) draws nothing
    return cands[int(rng.integers(0, len(cands)))]
