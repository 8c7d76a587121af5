"""Next-slot channel-state predictors and their evaluation metrics.

Three single-user predictors over binary occupancy traces: a random-feature
network solved in closed form (random input weights, sine hidden layer,
least-squares output weights), a sigmoid network trained by gradient
backpropagation, and a two-state Markov baseline decoded with Viterbi.
All training is deterministic given (data, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .seeding import make_rng

# singular values below this fraction of the largest are treated as zero
# when solving for output weights
_RCOND = 1e-10


def make_training_set(states, window: int):
    """Slice a 0/1 state trace into (inputs, targets) float64 arrays.

    Row i of the S x window inputs is n consecutive states and targets[i]
    the state after them. A trace of length T yields S = T - window samples;
    the trace must be longer than the window.
    """
    states = np.asarray(states)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(states) <= window:
        raise ValueError(
            f"trace length {len(states)} too short for window {window}"
        )
    sw = np.lib.stride_tricks.sliding_window_view(states, window)
    inputs = sw[:-1].astype(np.float64)
    targets = states[window:].astype(np.float64)
    return inputs, targets


def _distinct_rows(a: np.ndarray):
    """np.unique(a, axis=0, return_inverse=True, return_counts=True) by one lexsort.

    A group holding both -0.0 and 0.0 keeps its first row, where np.unique keeps
    either; make_training_set never gives -0.0.
    """
    order = np.lexsort(a.T[::-1])
    ranked = a[order]
    starts = np.append(True, np.any(ranked[1:] != ranked[:-1], axis=1))
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ranked[starts], inverse, np.diff(np.append(np.flatnonzero(starts), len(a)))


def _whole_numbers(values) -> np.ndarray:
    """values as int64, refusing any that the cast would silently truncate."""
    a = np.asarray(values)
    ints = a.astype(np.int64, copy=False)
    if a.dtype.kind not in "biu" and np.any(ints != a):
        raise ValueError("expected whole numbers, got a fractional or non-finite value")
    return ints


def _pinv_solve(H: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of H beta = T.

    Uses an SVD-backed solver rather than forming (H^T H)^-1 H^T, which is
    unstable when H is ill conditioned.
    """
    H = np.asarray(H, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(T))):
        raise ValueError("non-finite entries in least-squares system")
    beta, *_ = np.linalg.lstsq(H, T, rcond=_RCOND)
    return beta


def _check_samples(inputs, targets) -> None:
    """Require S x n inputs with S >= 1 and one target per input row."""
    shape = np.shape(inputs)
    if len(shape) != 2 or shape[0] < 1:
        raise ValueError(f"inputs must be a nonempty S x n array, got shape {shape}")
    if np.shape(targets) != shape[:1]:
        raise ValueError(f"need one target per input row, got {np.shape(targets)}")


@dataclass
class ElmModel:
    """Random sine-feature network with least-squares output weights."""

    input_weights: np.ndarray   # L x n, drawn uniform [-1, 1]
    biases: np.ndarray          # length L, drawn uniform [-1, 1]
    output_weights: np.ndarray  # length L, least-squares fit


def elm_train(inputs, targets, hidden_count: int, seed: int) -> ElmModel:
    """Fit output weights in closed form over random sine features.

    inputs is S x n and targets has length S, as make_training_set gives.
    """
    if hidden_count < 1:
        raise ValueError(f"hidden_count must be >= 1, got {hidden_count}")
    _check_samples(inputs, targets)
    rng = make_rng(seed)
    W = rng.uniform(-1.0, 1.0, size=(hidden_count, np.shape(inputs)[1]))
    b = rng.uniform(-1.0, 1.0, size=hidden_count)
    H = inputs @ W.T
    H += b
    np.sin(H, out=H)
    beta = _pinv_solve(H, targets)
    return ElmModel(input_weights=W, biases=b, output_weights=beta)


def elm_predict_many(model: ElmModel, windows: np.ndarray) -> np.ndarray:
    """Raw outputs for a batch of windows, one row each."""
    X = np.asarray(windows, dtype=np.float64)
    n = model.input_weights.shape[1]
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"expected S x {n} windows, got {X.shape}")
    H = X @ model.input_weights.T
    H += model.biases
    np.sin(H, out=H)
    return H @ model.output_weights


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never
    # overflows; exp(-|z|) is exactly the exponent of either branch.
    # Overwrites z: every caller passes a fresh temporary.
    pos = z >= 0
    e = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    out = np.where(pos, 1.0, e)
    e += 1.0
    out /= e
    return out


@dataclass
class BpModel:
    """Single-hidden-layer sigmoid network trained by backpropagation."""

    w_hidden: np.ndarray  # L x n
    b_hidden: np.ndarray  # length L
    w_out: np.ndarray     # length L
    b_out: float
    epochs_run: int = 0


def _bp_forward(w1, b1, w2, b2, X):
    h = _sigmoid(X @ w1.T + b1)
    y = _sigmoid(h @ w2 + b2)
    return h, y


def bp_loss(model: BpModel, X: np.ndarray, T: np.ndarray) -> float:
    """Mean squared error of the network output over a batch."""
    _, y = _bp_forward(model.w_hidden, model.b_hidden, model.w_out, model.b_out, X)
    return float(np.mean((y - T) ** 2))


def _bp_backward(h, y, w2, X, T, weights):
    # analytic gradients of sum_i weights_i (y_i - T_i)^2 from the forward pass
    # (h, y); validated against central finite differences in the test suite
    g_out = 2.0 * weights * (y - T) * y * (1.0 - y)  # S
    gw2 = h.T @ g_out                                 # L
    gb2 = float(np.sum(g_out))
    g_hidden = np.outer(g_out, w2) * h * (1.0 - h)    # S x L
    gw1 = g_hidden.T @ X                              # L x n
    gb1 = g_hidden.sum(axis=0)                        # L
    return gw1, gb1, gw2, gb2


def bp_gradients(model: BpModel, X: np.ndarray, T: np.ndarray):
    """Gradients of bp_loss with respect to (w_hidden, b_hidden, w_out, b_out)."""
    h, y = _bp_forward(model.w_hidden, model.b_hidden, model.w_out, model.b_out, X)
    return _bp_backward(h, y, model.w_out, X, T, np.full(len(X), 1.0 / len(X)))


def bp_train(
    inputs,
    targets,
    hidden_count: int = 50,
    learning_rate: float = 0.2,
    max_epochs: int = 200,
    goal_mse: float = 1e-4,
    seed: int = 0,
) -> BpModel:
    """Full-batch gradient descent on squared error.

    inputs is S x n and targets has length S, as make_training_set gives.
    Weights start uniform in [-0.5, 0.5]; training stops at max_epochs or as
    soon as the epoch's training MSE reaches goal_mse. Sums run over the
    distinct (window, target) rows, each weighted by its share of samples.
    """
    if hidden_count < 1:
        raise ValueError(f"hidden_count must be >= 1, got {hidden_count}")
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")
    _check_samples(inputs, targets)
    samples = np.column_stack([inputs, targets])
    if not np.all(np.isfinite(samples)):
        raise ValueError("non-finite entries in training set")
    rng = make_rng(seed)
    S, n = np.shape(inputs)
    w1 = rng.uniform(-0.5, 0.5, size=(hidden_count, n))
    b1 = rng.uniform(-0.5, 0.5, size=hidden_count)
    w2 = rng.uniform(-0.5, 0.5, size=hidden_count)
    b2 = float(rng.uniform(-0.5, 0.5))
    rows, _, counts = _distinct_rows(samples)
    X, T, weights = rows[:, :-1], rows[:, -1], counts / S
    # one forward pass per epoch: the pass after each update gives both the
    # stop check and the next epoch's gradients
    h, y = _bp_forward(w1, b1, w2, b2, X)
    for epochs_run in range(1, max_epochs + 1):
        gw1, gb1, gw2, gb2 = _bp_backward(h, y, w2, X, T, weights)
        w1 -= learning_rate * gw1
        b1 -= learning_rate * gb1
        w2 -= learning_rate * gw2
        b2 -= learning_rate * gb2
        h, y = _bp_forward(w1, b1, w2, b2, X)
        if float(np.dot(weights, (y - T) ** 2)) <= goal_mse:
            break
    return BpModel(
        w_hidden=w1, b_hidden=b1, w_out=w2, b_out=b2, epochs_run=epochs_run
    )


def bp_predict_many(model: BpModel, windows: np.ndarray) -> np.ndarray:
    """Raw sigmoid outputs for a batch of windows, one row each."""
    X = np.asarray(windows, dtype=np.float64)
    n = model.w_hidden.shape[1]
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"expected S x {n} windows, got {X.shape}")
    _, y = _bp_forward(model.w_hidden, model.b_hidden, model.w_out, model.b_out, X)
    return y


@dataclass
class HmmModel:
    """Two-state Markov chain with near-identity emissions."""

    pi: np.ndarray  # initial state probabilities
    A: np.ndarray   # state transition matrix, rows sum to 1
    B: np.ndarray   # emission matrix, rows sum to 1


_SMOOTH = 1e-6  # Laplace smoothing so unobserved rows stay stochastic
_HMM_STATES = 2  # idle and busy


def hmm_fit(states) -> HmmModel:
    """Estimate chain parameters by counting observed state transitions.

    Sensed states play both roles: hidden state and observation. Emissions
    are near-identity, so decoding tracks the observations and the model's
    information lives in the transition matrix.
    """
    states = _whole_numbers(states)
    if len(states) < 2:
        raise ValueError(f"need at least 2 slots to fit, got {len(states)}")
    if states.min() < 0 or states.max() >= _HMM_STATES:
        raise ValueError("trace contains states outside the model space")
    counts = np.full((_HMM_STATES, _HMM_STATES), _SMOOTH)
    np.add.at(counts, (states[:-1], states[1:]), 1.0)
    A = counts / counts.sum(axis=1, keepdims=True)
    occ = np.bincount(states, minlength=_HMM_STATES).astype(np.float64) + _SMOOTH
    pi = occ / occ.sum()
    B = np.eye(_HMM_STATES) + _SMOOTH
    B = B / B.sum(axis=1, keepdims=True)
    return HmmModel(pi=pi, A=A, B=B)


def hmm_predict(model: HmmModel, observations):
    """Most likely next state after Viterbi-decoding each row of S x n windows.

    Returns one int64 per row. The log-domain delta recursion runs over the
    distinct windows at once, each decoded once; the decoded final state's
    transition row gives the prediction, first maximum on ties.
    """
    windows = _whole_numbers(observations)
    if windows.ndim != 2 or windows.size == 0:
        raise ValueError("observations must be a nonempty S x n array")
    if windows.min() < 0 or windows.max() >= model.B.shape[1]:
        raise ValueError("observation outside the model's observation space")
    with np.errstate(divide="ignore"):
        log_pi, log_A = np.log(model.pi), np.log(model.A)
        log_B_obs = np.log(model.B).T  # row o: log P(o | state)
    rows, inverse, _ = _distinct_rows(windows)
    delta = log_pi + log_B_obs[rows[:, 0]]
    for t in range(1, rows.shape[1]):
        delta = (delta[:, :, None] + log_A).max(axis=1) + log_B_obs[rows[:, t]]
    return np.argmax(model.A, axis=1)[np.argmax(delta, axis=1)][inverse]


def eval_prediction(
    predicted: Sequence[int],
    actual: Sequence[int],
    raw: Optional[Sequence[float]] = None,
) -> dict:
    """Score thresholded predictions against the realized states.

    Returns p_d, p_fa, accuracy, mse, tp, tn, fp, fn in that order; a rate
    whose denominator is empty is None, never zero, and mse is None unless
    raw predictions are given.
    """
    pred = _whole_numbers(predicted)
    act = _whole_numbers(actual)
    if pred.shape != act.shape or pred.ndim != 1 or len(pred) == 0:
        raise ValueError("predicted and actual must be equal-length nonempty vectors")
    tp = int(np.sum((pred == 1) & (act == 1)))
    tn = int(np.sum((pred == 0) & (act == 0)))
    n_busy = int(np.sum(act == 1))
    n_idle = int(np.sum(act == 0))
    mse = None
    if raw is not None:
        raw_arr = np.asarray(raw, dtype=np.float64)
        if raw_arr.shape != act.shape:
            raise ValueError("raw predictions must match actual in length")
        mse = float(np.mean((raw_arr - act) ** 2))
    return {
        "p_d": tp / n_busy if n_busy > 0 else None,
        "p_fa": 1.0 - tn / n_idle if n_idle > 0 else None,
        "accuracy": (tp + tn) / len(act),
        "mse": mse,
        "tp": tp,
        "tn": tn,
        "fp": n_idle - tn,
        "fn": n_busy - tp,
    }


def transition_error_fraction(predicted, actual) -> Optional[float]:
    """Fraction of prediction errors within one slot of a state transition.

    A transition is the boundary pair (t-1, t) where actual changes value;
    an error at slot e counts as near if its distance to either end of some
    boundary is at most 1. None when there are no errors.
    """
    pred = _whole_numbers(predicted)
    act = _whole_numbers(actual)
    errors = np.flatnonzero(pred != act)
    if len(errors) == 0:
        return None
    # slots t with act[t] != act[t-1], then a sentinel beyond every error's reach
    change = np.append(np.flatnonzero(np.diff(act) != 0) + 1, len(act) + 3)
    # error e is near when the first change t >= e - 1 has t <= e + 2
    first = change[np.searchsorted(change, errors - 1)]
    return float(np.mean(first <= errors + 2))

