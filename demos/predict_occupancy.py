"""Walk through single-channel occupancy prediction.

Runs the prediction scenario: one ON/OFF channel trace, the three
predictors trained on its first half and scored on the second half
(detection rate, false alarms, accuracy, and how long each took to
train), then an input window sweep, whose chart is written next to this
script.

Run: python3 demos/predict_occupancy.py
"""

import os

# one BLAS thread before numpy loads: with several, the first ELM fits can
# take 20-40x longer and the printed ELM-versus-BP ratio measures threading
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from crspectrum.config import default_config
from crspectrum.harness import emit_outputs, run_scenario

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
SEED = 42


def main():
    cfg = default_config("prediction")
    cfg.seed = SEED
    summary = run_scenario(cfg)
    print(
        f"trace: {cfg.n_slots} slots, trained on the first half with "
        f"{cfg.window}-slot windows, scored on the rest\n"
    )
    print(f"{'model':6s} {'P_D':>6s} {'P_FA':>6s} {'acc':>6s} {'train':>9s} {'errors near flip':>17s}")
    for row in summary.rows:
        name, near = row["method"], row["errors_near_transition"]
        t_train = summary.timings[f"{name}_train_s_rep{row['seed']}"]
        near_s = f"{near:.2f}" if near is not None else "n/a"
        print(
            f"{name:6s} {row['p_d']:6.3f} {row['p_fa']:6.3f} {row['accuracy']:6.3f} "
            f"{t_train * 1000:8.1f}ms {near_s:>17s}"
        )
    t_elm, t_bp = (summary.timings[f"{m}_train_s_rep0"] for m in ("elm", "bp"))
    print(
        f"\nleast-squares training is {t_bp / t_elm:.0f}x faster than "
        f"up to {cfg.bp_epochs} epochs of gradient descent here"
    )

    sweep = summary.series["mse_vs_window"]
    mses = sweep["lines"]["elm"]
    best = sweep["x"][mses.index(min(mses))]
    print(f"window sweep: test mse minimal at {best} input slots")
    for path in emit_outputs(summary, ["svg"], OUT_DIR):
        print(f"chart written to {path}")


if __name__ == "__main__":
    main()
