"""Walk through single-channel occupancy prediction.

Generates one ON/OFF channel trace, trains the three predictors on the
first half, and scores them on the second half: detection rate, false
alarms, accuracy, and how long each took to train. Ends with an input
window sweep and writes the resulting chart next to this script.

Run: python3 demos/predict_occupancy.py
"""

import os
import time

import numpy as np

from crspectrum.channel import ChannelParams, generate_trace
from crspectrum.predictors import (
    bp_predict_many,
    bp_train,
    elm_predict_many,
    elm_train,
    eval_prediction,
    hmm_fit,
    hmm_predict,
    make_training_set,
    transition_error_fraction,
)
from crspectrum.svg import line_chart

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
SEED = 42


def main():
    params = ChannelParams(mean_interarrival=10.0, mean_holding=10.0)
    states = generate_trace(params, 10000, seed=SEED)
    print(f"trace: {len(states)} slots, busy fraction {states.mean():.3f}")

    half = len(states) // 2
    window = 10
    train = make_training_set(states[:half], window)
    test = make_training_set(states[half - window:], window)
    actual = test.targets.astype(np.int64)
    print(f"training on {train.n_samples} windows, testing on {len(actual)}\n")

    t0 = time.perf_counter()
    elm = elm_train(train, hidden_count=30, seed=SEED)
    t_elm = time.perf_counter() - t0
    t0 = time.perf_counter()
    bp = bp_train(train, hidden_count=50, learning_rate=0.2,
                  max_epochs=200, goal_mse=1e-4, seed=SEED)
    t_bp = time.perf_counter() - t0
    t0 = time.perf_counter()
    hmm = hmm_fit(states[:half])
    t_hmm = time.perf_counter() - t0

    preds = {
        "elm": ((elm_predict_many(elm, test.inputs) >= 0.5).astype(np.int64), t_elm),
        "bp": ((bp_predict_many(bp, test.inputs) >= 0.5).astype(np.int64), t_bp),
        "hmm": (hmm_predict(hmm, test.inputs), t_hmm),
    }
    print(f"{'model':6s} {'P_D':>6s} {'P_FA':>6s} {'acc':>6s} {'train':>9s} {'errors near flip':>17s}")
    for name, (pred, t_train) in preds.items():
        m = eval_prediction(pred, actual)
        near = transition_error_fraction(pred, actual)
        near_s = f"{near:.2f}" if near is not None else "n/a"
        print(
            f"{name:6s} {m['p_d']:6.3f} {m['p_fa']:6.3f} {m['accuracy']:6.3f} "
            f"{t_train * 1000:8.1f}ms {near_s:>17s}"
        )
    print(
        f"\nleast-squares training is {t_bp / t_elm:.0f}x faster than "
        f"{bp.epochs_run} epochs of gradient descent here"
    )

    windows = [2, 4, 6, 8, 10, 12, 14]
    mses = []
    for w in windows:
        tr = make_training_set(states[:half], w)
        te = make_training_set(states[half - w:], w)
        model = elm_train(tr, hidden_count=30, seed=SEED + w)
        mses.append(float(np.mean((elm_predict_many(model, te.inputs) - te.targets) ** 2)))
    best = windows[int(np.argmin(mses))]
    print(f"window sweep: test mse minimal at {best} input slots")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "prediction_window_sweep.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line_chart(
            title="test mse vs input window",
            x_label="input window (slots)",
            y_label="test mse",
            x_values=windows,
            series={"elm": mses},
        ))
    print(f"chart written to {path}")


if __name__ == "__main__":
    main()
