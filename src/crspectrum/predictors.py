"""Next-slot channel-state predictors and their evaluation metrics.

Three single-user predictors over binary occupancy traces: a random-feature
network solved in closed form (random input weights, sine hidden layer,
least-squares output weights), a sigmoid network trained by gradient
backpropagation, and a two-state Markov baseline decoded with Viterbi.
All training is deterministic given (data, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import add
from typing import Optional, Sequence

import numpy as np

from .seeding import make_rng

# singular values below this fraction of the largest are treated as zero
# when solving for output weights
_RCOND = 1e-10


@dataclass
class TrainingSet:
    """Sliding-window samples: inputs[i] is n consecutive states, targets[i] the next."""

    inputs: np.ndarray   # S x n float64, entries 0/1
    targets: np.ndarray  # length S float64, entries 0/1

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def window(self) -> int:
        return self.inputs.shape[1]


def _states_of(trace) -> np.ndarray:
    states = getattr(trace, "states", trace)
    return np.asarray(states)


def make_training_set(trace, window: int) -> TrainingSet:
    """Slice a trace into (n-slot history, next slot) samples.

    A trace of length T yields T - window samples; the trace must be longer
    than the window.
    """
    states = _states_of(trace)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(states) <= window:
        raise ValueError(
            f"trace length {len(states)} too short for window {window}"
        )
    sw = np.lib.stride_tricks.sliding_window_view(states, window)
    inputs = sw[:-1].astype(np.float64)
    targets = states[window:].astype(np.float64)
    return TrainingSet(inputs=inputs, targets=targets)


def pinv_solve(H: np.ndarray, T: np.ndarray) -> np.ndarray:
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


@dataclass
class ElmModel:
    """Random sine-feature network with least-squares output weights."""

    input_dim: int
    hidden_count: int
    input_weights: np.ndarray   # L x n, drawn uniform [-1, 1]
    biases: np.ndarray          # length L, drawn uniform [-1, 1]
    output_weights: np.ndarray  # length L, least-squares fit
    seed: int
    activation: str = "sine"


def elm_train(data: TrainingSet, hidden_count: int, seed: int) -> ElmModel:
    """Fit output weights in closed form over random sine features."""
    if hidden_count < 1:
        raise ValueError(f"hidden_count must be >= 1, got {hidden_count}")
    if data.n_samples < 1:
        raise ValueError("training set is empty")
    rng = make_rng(seed)
    n = data.window
    W = rng.uniform(-1.0, 1.0, size=(hidden_count, n))
    b = rng.uniform(-1.0, 1.0, size=hidden_count)
    H = np.sin(data.inputs @ W.T + b)
    beta = pinv_solve(H, data.targets)
    return ElmModel(
        input_dim=n,
        hidden_count=hidden_count,
        input_weights=W,
        biases=b,
        output_weights=beta,
        seed=seed,
    )


def elm_predict(model: ElmModel, window: Sequence[int]) -> float:
    """Raw (unthresholded) output for one history window."""
    x = np.asarray(window, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise ValueError(
            f"window shape {x.shape} does not match input_dim {model.input_dim}"
        )
    h = np.sin(model.input_weights @ x + model.biases)
    return float(h @ model.output_weights)


def elm_predict_many(model: ElmModel, windows: np.ndarray) -> np.ndarray:
    """Raw outputs for a batch of windows, one row each."""
    X = np.asarray(windows, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"expected S x {model.input_dim} windows, got {X.shape}")
    H = np.sin(X @ model.input_weights.T + model.biases)
    return H @ model.output_weights


def threshold(raw: float, lam: float = 0.5) -> int:
    """Binarize a raw prediction; a value exactly at the threshold reads busy."""
    return 1 if raw >= lam else 0


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

    input_dim: int
    hidden_count: int
    w_hidden: np.ndarray  # L x n
    b_hidden: np.ndarray  # length L
    w_out: np.ndarray     # length L
    b_out: float
    learning_rate: float
    max_epochs: int
    goal_mse: float
    seed: int
    epochs_run: int = 0


def _bp_forward(w1, b1, w2, b2, X):
    h = _sigmoid(X @ w1.T + b1)
    y = _sigmoid(h @ w2 + b2)
    return h, y


def bp_loss(model: BpModel, X: np.ndarray, T: np.ndarray) -> float:
    """Mean squared error of the network output over a batch."""
    _, y = _bp_forward(model.w_hidden, model.b_hidden, model.w_out, model.b_out, X)
    return float(np.mean((y - T) ** 2))


def _bp_backward(h, y, w2, X, T):
    # analytic gradients of mean squared error from the forward pass (h, y);
    # validated against central finite differences in the test suite
    S = X.shape[0]
    g_out = (2.0 / S) * (y - T) * y * (1.0 - y)      # S
    gw2 = h.T @ g_out                                 # L
    gb2 = float(np.sum(g_out))
    g_hidden = np.outer(g_out, w2) * h * (1.0 - h)    # S x L
    gw1 = g_hidden.T @ X                              # L x n
    gb1 = g_hidden.sum(axis=0)                        # L
    return gw1, gb1, gw2, gb2


def bp_gradients(model: BpModel, X: np.ndarray, T: np.ndarray):
    """Gradients of bp_loss with respect to (w_hidden, b_hidden, w_out, b_out)."""
    h, y = _bp_forward(model.w_hidden, model.b_hidden, model.w_out, model.b_out, X)
    return _bp_backward(h, y, model.w_out, X, T)


def bp_train(
    data: TrainingSet,
    hidden_count: int = 50,
    learning_rate: float = 0.2,
    max_epochs: int = 200,
    goal_mse: float = 1e-4,
    seed: int = 0,
) -> BpModel:
    """Full-batch gradient descent on squared error.

    Weights start uniform in [-0.5, 0.5]; training stops at max_epochs or as
    soon as the epoch's training MSE reaches goal_mse.
    """
    if hidden_count < 1:
        raise ValueError(f"hidden_count must be >= 1, got {hidden_count}")
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")
    if data.n_samples < 1:
        raise ValueError("training set is empty")
    rng = make_rng(seed)
    n = data.window
    w1 = rng.uniform(-0.5, 0.5, size=(hidden_count, n))
    b1 = rng.uniform(-0.5, 0.5, size=hidden_count)
    w2 = rng.uniform(-0.5, 0.5, size=hidden_count)
    b2 = float(rng.uniform(-0.5, 0.5))
    X, T = data.inputs, data.targets
    epochs_run = 0
    # one forward pass per epoch: the pass after each update gives both the
    # stop check and the next epoch's gradients
    h, y = _bp_forward(w1, b1, w2, b2, X)
    for _ in range(max_epochs):
        gw1, gb1, gw2, gb2 = _bp_backward(h, y, w2, X, T)
        del h, y  # free the old activations before the next pass allocates
        w1 -= learning_rate * gw1
        b1 -= learning_rate * gb1
        w2 -= learning_rate * gw2
        b2 -= learning_rate * gb2
        epochs_run += 1
        h, y = _bp_forward(w1, b1, w2, b2, X)
        if float(np.mean((y - T) ** 2)) <= goal_mse:
            break
    return BpModel(
        input_dim=n,
        hidden_count=hidden_count,
        w_hidden=w1,
        b_hidden=b1,
        w_out=w2,
        b_out=b2,
        learning_rate=learning_rate,
        max_epochs=max_epochs,
        goal_mse=goal_mse,
        seed=seed,
        epochs_run=epochs_run,
    )


def bp_predict(model: BpModel, window: Sequence[int]) -> float:
    """Raw sigmoid output for one history window."""
    x = np.asarray(window, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise ValueError(
            f"window shape {x.shape} does not match input_dim {model.input_dim}"
        )
    _, y = _bp_forward(
        model.w_hidden, model.b_hidden, model.w_out, model.b_out, x[None, :]
    )
    return float(y[0])


def bp_predict_many(model: BpModel, windows: np.ndarray) -> np.ndarray:
    X = np.asarray(windows, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"expected S x {model.input_dim} windows, got {X.shape}")
    _, y = _bp_forward(model.w_hidden, model.b_hidden, model.w_out, model.b_out, X)
    return y


@dataclass
class HmmModel:
    """Two-state Markov chain with near-identity emissions."""

    pi: np.ndarray  # initial state probabilities
    A: np.ndarray   # state transition matrix, rows sum to 1
    B: np.ndarray   # emission matrix, rows sum to 1

    @property
    def n_states(self) -> int:
        return len(self.pi)


_SMOOTH = 1e-6  # Laplace smoothing so unobserved rows stay stochastic


def hmm_fit(trace, n_states: int = 2) -> HmmModel:
    """Estimate chain parameters by counting observed state transitions.

    Sensed states play both roles: hidden state and observation. Emissions
    are near-identity, so decoding tracks the observations and the model's
    information lives in the transition matrix.
    """
    states = _states_of(trace).astype(np.int64)
    if len(states) < 2:
        raise ValueError(f"need at least 2 slots to fit, got {len(states)}")
    if states.min() < 0 or states.max() >= n_states:
        raise ValueError("trace contains states outside the model space")
    counts = np.full((n_states, n_states), _SMOOTH)
    np.add.at(counts, (states[:-1], states[1:]), 1.0)
    A = counts / counts.sum(axis=1, keepdims=True)
    occ = np.bincount(states, minlength=n_states).astype(np.float64) + _SMOOTH
    pi = occ / occ.sum()
    B = np.eye(n_states) + _SMOOTH
    B = B / B.sum(axis=1, keepdims=True)
    return HmmModel(pi=pi, A=A, B=B)


def hmm_predict(model: HmmModel, observations: Sequence[int]) -> int:
    """Most likely next state after Viterbi-decoding the observation sequence.

    The delta recursion runs in log domain; the decoded final state's
    transition row gives the prediction.
    """
    obs = np.asarray(observations, dtype=np.int64).tolist()
    if len(obs) == 0:
        raise ValueError("observations must be nonempty")
    n_obs = model.B.shape[1]
    if min(obs) < 0 or max(obs) >= n_obs:
        raise ValueError("observation outside the model's observation space")
    # plain floats: for a handful of states, list arithmetic beats numpy's
    # per-call overhead. The adds are the array recursion's, and
    # max(..., key=) keeps the first maximum, as argmax does.
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi).tolist()
        log_A_cols = np.log(model.A).T.tolist()
        log_B_obs = np.log(model.B).T.tolist()
    delta = list(map(add, log_pi, log_B_obs[obs[0]]))
    for o in obs[1:]:
        delta = [
            max(map(add, delta, col)) + b for col, b in zip(log_A_cols, log_B_obs[o])
        ]
    q_last = max(range(len(delta)), key=delta.__getitem__)
    row = model.A[q_last].tolist()
    return max(range(len(row)), key=row.__getitem__)


@dataclass
class PredictionMetrics:
    """Detection/false-alarm rates plus timing comparison against a baseline.

    Metrics whose denominator is empty are None, never zero.
    """

    p_d: Optional[float]
    p_fa: Optional[float]
    accuracy: float
    mse: Optional[float]
    train_time: Optional[float]
    i_speed: Optional[float]  # percent speedup of this model over the baseline
    d_time: Optional[float]   # train-time ratio, this model / baseline


def eval_prediction(
    predicted: Sequence[int],
    actual: Sequence[int],
    train_times: Optional[tuple] = None,
    raw: Optional[Sequence[float]] = None,
) -> PredictionMetrics:
    """Score thresholded predictions against the realized states.

    train_times, when given, is (this model's seconds, baseline seconds);
    raw, when given, feeds the MSE term.
    """
    pred = np.asarray(predicted, dtype=np.int64)
    act = np.asarray(actual, dtype=np.int64)
    if pred.shape != act.shape or pred.ndim != 1 or len(pred) == 0:
        raise ValueError("predicted and actual must be equal-length nonempty vectors")
    tp = int(np.sum((pred == 1) & (act == 1)))
    tn = int(np.sum((pred == 0) & (act == 0)))
    n_busy = int(np.sum(act == 1))
    n_idle = int(np.sum(act == 0))
    p_d = tp / n_busy if n_busy > 0 else None
    p_fa = 1.0 - tn / n_idle if n_idle > 0 else None
    accuracy = (tp + tn) / len(act)
    mse = None
    if raw is not None:
        raw_arr = np.asarray(raw, dtype=np.float64)
        if raw_arr.shape != act.shape:
            raise ValueError("raw predictions must match actual in length")
        mse = float(np.mean((raw_arr - act) ** 2))
    train_time = i_speed = d_time = None
    if train_times is not None:
        t_model, t_base = train_times
        train_time = float(t_model)
        if t_base is not None and t_base > 0:
            i_speed = (t_base - t_model) / t_base * 100.0
            d_time = t_model / t_base
    return PredictionMetrics(
        p_d=p_d,
        p_fa=p_fa,
        accuracy=accuracy,
        mse=mse,
        train_time=train_time,
        i_speed=i_speed,
        d_time=d_time,
    )


def transition_error_fraction(predicted, actual) -> Optional[float]:
    """Fraction of prediction errors within one slot of a state transition.

    A transition is the boundary pair (t-1, t) where actual changes value;
    an error at slot e counts as near if its distance to either end of some
    boundary is at most 1. None when there are no errors.
    """
    pred = np.asarray(predicted, dtype=np.int64)
    act = np.asarray(actual, dtype=np.int64)
    errors = np.flatnonzero(pred != act)
    if len(errors) == 0:
        return None
    change = np.flatnonzero(np.diff(act) != 0) + 1  # slots t with act[t] != act[t-1]
    if len(change) == 0:
        return 0.0
    near = np.zeros(len(act), dtype=bool)
    for t in change:
        near[max(0, t - 2):min(len(act), t + 2)] = True
    return float(np.mean(near[errors]))


def model_to_json(model) -> str:
    """Serialize a trained model to a canonical JSON document."""
    if isinstance(model, ElmModel):
        doc = {
            "kind": "elm",
            "input_dim": model.input_dim,
            "hidden_count": model.hidden_count,
            "input_weights": model.input_weights.ravel().tolist(),
            "biases": model.biases.tolist(),
            "output_weights": model.output_weights.tolist(),
            "seed": model.seed,
            "activation": model.activation,
        }
    elif isinstance(model, BpModel):
        doc = {
            "kind": "bp",
            "input_dim": model.input_dim,
            "hidden_count": model.hidden_count,
            "w_hidden": model.w_hidden.ravel().tolist(),
            "b_hidden": model.b_hidden.tolist(),
            "w_out": model.w_out.tolist(),
            "b_out": model.b_out,
            "learning_rate": model.learning_rate,
            "max_epochs": model.max_epochs,
            "goal_mse": model.goal_mse,
            "seed": model.seed,
            "epochs_run": model.epochs_run,
        }
    elif isinstance(model, HmmModel):
        doc = {
            "kind": "hmm",
            "n_states": model.n_states,
            "pi": model.pi.tolist(),
            "A": model.A.ravel().tolist(),
            "B": model.B.ravel().tolist(),
        }
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str):
    """Inverse of model_to_json; predictions survive the round trip."""
    doc = json.loads(text)
    kind = doc.get("kind")
    if kind == "elm":
        L, n = doc["hidden_count"], doc["input_dim"]
        return ElmModel(
            input_dim=n,
            hidden_count=L,
            input_weights=np.array(doc["input_weights"]).reshape(L, n),
            biases=np.array(doc["biases"]),
            output_weights=np.array(doc["output_weights"]),
            seed=doc["seed"],
            activation=doc["activation"],
        )
    if kind == "bp":
        L, n = doc["hidden_count"], doc["input_dim"]
        return BpModel(
            input_dim=n,
            hidden_count=L,
            w_hidden=np.array(doc["w_hidden"]).reshape(L, n),
            b_hidden=np.array(doc["b_hidden"]),
            w_out=np.array(doc["w_out"]),
            b_out=doc["b_out"],
            learning_rate=doc["learning_rate"],
            max_epochs=doc["max_epochs"],
            goal_mse=doc["goal_mse"],
            seed=doc["seed"],
            epochs_run=doc["epochs_run"],
        )
    if kind == "hmm":
        k = doc["n_states"]
        return HmmModel(
            pi=np.array(doc["pi"]),
            A=np.array(doc["A"]).reshape(k, k),
            B=np.array(doc["B"]).reshape(k, -1),
        )
    raise ValueError(f"unknown model kind {kind!r}")
