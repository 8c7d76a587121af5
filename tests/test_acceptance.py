"""Acceptance gate: twelve numbered behavioural criteria, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line for every criterion alongside the measured numbers. Each criterion
is a single test so the suite reports them independently.
"""

import time
from dataclasses import replace

import numpy as np

from crspectrum.channel import ChannelParams, generate_trace
from crspectrum.config import default_config
from crspectrum.decision import value_iteration
from crspectrum.fusion import decode_state, encode_state
from crspectrum.harness import (
    run_scenario,
    summary_to_csv,
    summary_to_json,
)
from crspectrum.predictors import (
    bp_gradients,
    bp_loss,
    bp_predict_many,
    bp_train,
    elm_predict_many,
    elm_train,
    make_training_set,
    transition_error_fraction,
)
from crspectrum.seeding import make_rng


def report(number: int, label: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d} {label}: {detail}"
    print(line)
    assert ok, line


def spearman_rho(x, y) -> float:
    """Rank correlation with average ranks across exact ties."""

    def ranks(values):
        v = np.asarray(values, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1, dtype=np.float64)
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx ** 2).sum() * (ry ** 2).sum()))
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


def _fmt(values) -> str:
    return "[" + " ".join(f"{v:+.4f}" for v in values) + "]"


def test_criterion_01_elm_exact_fit():
    # as many hidden units as samples: least squares interpolates exactly
    rng = make_rng(101)
    X, T = rng.random((40, 8)), rng.random(40)
    t0 = time.perf_counter()
    model = elm_train(X, T, hidden_count=40, seed=7)
    elapsed = time.perf_counter() - t0
    mse = float(np.mean((elm_predict_many(model, X) - T) ** 2))
    ok = mse < 1e-10 and elapsed < 1.0
    report(1, "elm exact fit", ok, f"train mse={mse:.2e} time={elapsed:.3f}s")


def test_criterion_02_elm_faster_than_bp():
    params = ChannelParams(mean_interarrival=10.0, mean_holding=10.0)
    states = generate_trace(params, 5000, seed=202)
    X, T = make_training_set(states, window=10)  # 4990 samples
    t0 = time.perf_counter()
    elm_train(X, T, hidden_count=30, seed=1)
    t_elm = time.perf_counter() - t0
    t0 = time.perf_counter()
    bp_train(X, T, hidden_count=50, learning_rate=0.2, max_epochs=200,
             goal_mse=1e-4, seed=1)
    t_bp = time.perf_counter() - t0
    ok = t_elm <= t_bp / 5 and (t_elm + t_bp) < 60.0
    report(
        2, "elm vs bp training speed", ok,
        f"n={len(X)} elm={t_elm:.3f}s bp={t_bp:.3f}s ratio={t_bp / t_elm:.1f}x",
    )


def test_criterion_03_prediction_quality():
    accs_elm, accs_bp, near = [], [], []
    params = ChannelParams(mean_interarrival=10.0, mean_holding=10.0)
    for rep in range(10):
        states = generate_trace(params, 10000, seed=303 + rep)
        train = make_training_set(states[:5000], window=10)
        test_x, test_y = make_training_set(states[5000 - 10:], window=10)  # 5000 targets
        actual = test_y.astype(np.int64)
        elm = elm_train(*train, hidden_count=30, seed=rep)
        bp = bp_train(*train, hidden_count=50, learning_rate=0.2,
                      max_epochs=200, goal_mse=1e-4, seed=rep)
        pred_elm = (elm_predict_many(elm, test_x) >= 0.5).astype(np.int64)
        pred_bp = (bp_predict_many(bp, test_x) >= 0.5).astype(np.int64)
        accs_elm.append(float(np.mean(pred_elm == actual)))
        accs_bp.append(float(np.mean(pred_bp == actual)))
        frac = transition_error_fraction(pred_elm, actual)
        if frac is not None:
            near.append(frac)
    mean_elm, mean_bp = np.mean(accs_elm), np.mean(accs_bp)
    mean_near = np.mean(near)
    ok = mean_elm >= 0.80 and mean_bp >= 0.80 and mean_near >= 0.60
    report(
        3, "prediction quality", ok,
        f"acc elm={mean_elm:.3f} bp={mean_bp:.3f} "
        f"errors near transition={mean_near:.3f} (10 seeds, 5000 test slots)",
    )


def test_criterion_04_bp_gradient_check():
    rng = make_rng(404)
    worst = 0.0
    for rep in range(20):
        n = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 7))
        s = int(rng.integers(4, 9))
        X = rng.random((s, n))
        T = rng.random(s)
        model = bp_train(X, T, hidden_count=hidden, learning_rate=0.1,
                         max_epochs=1, goal_mse=1e-12, seed=rep)
        analytic = bp_gradients(model, X, T)
        h = 1e-5
        # weight arrays are perturbed through views into the live model
        for idx, arr in enumerate([model.w_hidden, model.b_hidden, model.w_out]):
            flat = arr.ravel()
            numeric = np.zeros_like(flat)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = bp_loss(model, X, T)
                flat[j] = orig - h
                down = bp_loss(model, X, T)
                flat[j] = orig
                numeric[j] = (up - down) / (2 * h)
            ana = np.asarray(analytic[idx], dtype=np.float64).ravel()
            scale = np.maximum(np.abs(numeric), 1e-8)
            worst = max(worst, float(np.max(np.abs(ana - numeric) / scale)))
        orig = model.b_out
        model.b_out = orig + h
        up = bp_loss(model, X, T)
        model.b_out = orig - h
        down = bp_loss(model, X, T)
        model.b_out = orig
        numeric_b = (up - down) / (2 * h)
        worst = max(
            worst, abs(analytic[3] - numeric_b) / max(abs(numeric_b), 1e-8)
        )
    ok = worst < 1e-4
    report(4, "bp gradient check", ok,
           f"worst relative error={worst:.2e} over 20 random networks")


def test_criterion_05_fusion_optimality():
    cfg = default_config("fusion")  # 3 users, error rates 0.1/0.15/0.2, 1e4 slots
    summary = run_scenario(cfg)
    acc = {
        row["method"]: row["accuracy"]
        for row in summary.rows
        if row["seed"] == 0
    }
    rates = cfg.error_rates
    p = [1.0 - e for e in rates]
    analytic = (
        p[0] * p[1] * (1 - p[2])
        + p[0] * (1 - p[1]) * p[2]
        + (1 - p[0]) * p[1] * p[2]
        + p[0] * p[1] * p[2]
    )
    vote = acc["vote_m2"]
    q = acc["q_fusion"]
    locals_ = [acc[f"local_{i}"] for i in (0, 1, 2)]
    ok = (
        abs(vote - analytic) <= 0.01
        and q >= vote - 0.005
        and all(q >= a for a in locals_)
    )
    report(
        5, "fusion optimality", ok,
        f"majority={vote:.4f} (analytic {analytic:.4f}) q={q:.4f} "
        f"locals={[f'{a:.4f}' for a in locals_]}",
    )


def test_criterion_06_encoding_bijections():
    checked = 0
    ok = True
    for m in range(1, 11):
        for code in range(1 << m):
            bits = [(code >> i) & 1 for i in range(m)]
            ok = ok and encode_state(bits) == code
            ok = ok and decode_state(code, m).tolist() == bits
            checked += 1
    report(6, "state encodings bijective", ok,
           f"{checked} codes checked for widths 1..10")


def test_criterion_07_value_iteration():
    v, policy = value_iteration(np.eye(2), np.array([1.0, 0.0]), 0.5, tol=1e-9)
    exact_ok = bool(np.max(np.abs(v - np.array([2.0, 0.0]))) < 1e-6)

    rng = make_rng(707)
    residual_worst = 0.0
    for _ in range(50):
        s = int(rng.integers(2, 7))
        a = int(rng.integers(1, 5))
        trans = rng.random((s, a, s))
        trans /= trans.sum(axis=2, keepdims=True)
        rewards = rng.normal(size=(s, a))
        gamma = float(rng.uniform(0.1, 0.9))
        v, _ = value_iteration(trans, rewards, gamma, tol=1e-8)
        backup = (rewards + gamma * (trans @ v)).max(axis=1)
        residual_worst = max(residual_worst, float(np.max(np.abs(backup - v))))
    residual_ok = residual_worst < 1e-6
    ok = exact_ok and residual_ok
    report(
        7, "value iteration", ok,
        f"two-state fixed point exact={exact_ok} "
        f"worst Bellman residual={residual_worst:.2e} over 50 random processes",
    )


def test_criterion_08_recommendation_benefit():
    t0 = time.perf_counter()
    cfg = default_config("recommendation")  # 5 channels, last idle, 10 reps
    summary = run_scenario(cfg)
    elapsed = time.perf_counter() - t0
    agg = summary.aggregates
    pc_cf, pc_rnd = agg["mean_p_collision_cf"], agg["mean_p_collision_random"]
    de_cf, de_rnd = agg["mean_d_e_cf"], agg["mean_d_e_random"]
    ok = pc_cf < pc_rnd and de_cf > de_rnd and elapsed < 60.0
    report(
        8, "recommendation benefit", ok,
        f"p_collision cf={pc_cf:.4f} random={pc_rnd:.4f} "
        f"d_e cf={de_cf:.4f} random={de_rnd:.4f} time={elapsed:.1f}s",
    )


def _decision_clauses(summary, cfg):
    ks = list(range(cfg.k_min, cfg.k_max + 1))
    agg = summary.aggregates

    def series(method, metric):
        return [agg[f"mean_{metric}_{method}_{k}"] for k in ks]

    pc = {m: series(m, "p_collision") for m in ("q", "mdp", "random")}
    de = {m: series(m, "d_e") for m in ("q", "mdp", "random")}
    pc_edges = {
        m: [r - v for r, v in zip(pc["random"], pc[m])] for m in ("q", "mdp")
    }
    de_edges = {
        m: [v - r for r, v in zip(de["random"], de[m])] for m in ("q", "mdp")
    }
    dominance = all(
        e > 0 for m in ("q", "mdp") for e in pc_edges[m] + de_edges[m]
    )
    rho = spearman_rho(ks, pc["q"])
    return pc, pc_edges, de_edges, dominance, rho


def test_criterion_09_decision_scenario_one():
    t0 = time.perf_counter()
    cfg = default_config("decision-1")  # 30 SUs, 10 channels, 1000 slots, 5 seeds
    summary = run_scenario(cfg)
    elapsed = time.perf_counter() - t0
    pc, pc_edges, de_edges, dominance, rho = _decision_clauses(summary, cfg)
    ok = dominance and rho > 0 and elapsed < 300.0
    report(
        9, "decision scenario one", ok,
        f"p_collision edges over random q={_fmt(pc_edges['q'])} "
        f"mdp={_fmt(pc_edges['mdp'])} d_e edges q={_fmt(de_edges['q'])} "
        f"mdp={_fmt(de_edges['mdp'])} spearman(K, pc_q)={rho:+.3f} "
        f"time={elapsed:.1f}s | reported, not asserted: mean pc "
        f"q={np.mean(pc['q']):.4f} mdp={np.mean(pc['mdp']):.4f}",
    )


def test_criterion_10_decision_scenario_two():
    cfg2 = default_config("decision-2")  # adds 40x40 arena, radius-5 pairing
    t0 = time.perf_counter()
    summary2 = run_scenario(cfg2)
    elapsed = time.perf_counter() - t0
    summary1 = run_scenario(default_config("decision-1"))
    pc, pc_edges, de_edges, dominance, rho = _decision_clauses(summary2, cfg2)
    total2 = summary2.aggregates["total_success"]
    total1 = summary1.aggregates["total_success"]
    throughput_ok = total2 <= total1
    ok = dominance and rho > 0 and throughput_ok and elapsed < 300.0
    report(
        10, "decision scenario two", ok,
        f"p_collision edges q={_fmt(pc_edges['q'])} mdp={_fmt(pc_edges['mdp'])} "
        f"d_e edges q={_fmt(de_edges['q'])} mdp={_fmt(de_edges['mdp'])} "
        f"spearman={rho:+.3f} paired successes={total2} vs unpaired={total1} "
        f"(reduced={throughput_ok}) time={elapsed:.1f}s",
    )


_TRIMMED = {
    "prediction": dict(n_slots=1500, bp_epochs=20, reps=1),
    "fusion": dict(n_slots=2000, reps=1),
    "recommendation": dict(n_slots=300, reps=2),
    "decision-1": dict(n_slots=300, k_min=3, k_max=4, reps=2),
    "decision-2": dict(n_slots=300, k_min=3, k_max=4, reps=2),
}


def test_criterion_11_determinism():
    mismatches = []
    for scenario, trims in _TRIMMED.items():
        cfg = replace(default_config(scenario), seed=11, **trims)
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        if summary_to_json(first) != summary_to_json(second):
            mismatches.append(f"{scenario}:json")
        if summary_to_csv(first) != summary_to_csv(second):
            mismatches.append(f"{scenario}:csv")
    ok = not mismatches
    report(
        11, "byte-identical reruns", ok,
        "all five scenarios, json and csv" if ok else f"mismatch in {mismatches}",
    )


def test_criterion_12_metric_identities():
    bad = []
    pred = run_scenario(replace(default_config("prediction"), seed=12,
                                **_TRIMMED["prediction"]))
    for row in pred.rows:
        tp, tn, fp, fn = row["tp"], row["tn"], row["fp"], row["fn"]
        n = tp + tn + fp + fn
        # exact recomputation with the module's own formulas
        want_pd = tp / (tp + fn) if tp + fn > 0 else None
        want_pfa = 1.0 - tn / (tn + fp) if tn + fp > 0 else None
        if row["p_d"] != want_pd or row["p_fa"] != want_pfa:
            bad.append(f"prediction {row['method']} rates")
        if row["accuracy"] != (tp + tn) / n:
            bad.append(f"prediction {row['method']} accuracy")
    dec = run_scenario(replace(default_config("decision-1"), seed=12,
                               **_TRIMMED["decision-1"]))
    for row in dec.rows:
        if row["n_total"] == 0:
            continue
        if row["p_collision"] != row["n_collision"] / row["n_total"]:
            bad.append("decision p_collision")
        if row["d_e"] != row["d_success"] / row["n_total"]:
            bad.append("decision d_e")
        if not np.isclose(row["p_collision"] * row["n_total"],
                          row["n_collision"], rtol=1e-12, atol=1e-12):
            bad.append("decision product identity")
    ok = not bad
    report(
        12, "metric identities", ok,
        f"{len(pred.rows)} prediction rows and {len(dec.rows)} decision rows "
        "recompute from counts" if ok else f"failed: {sorted(set(bad))}",
    )
