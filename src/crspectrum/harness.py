"""Experiment drivers: prediction, fusion, recommendation, decision runs.

Every run is a pure function of (config, master seed). The master seed
fans out to one seed per repetition, and each repetition derives one
stream per component (channel traces, predictor training, request
arrivals, arbitration, agent exploration), so adding a method or a K
value never perturbs the others.

Wall-clock timings are collected for reporting but kept out of the
emitted JSON/CSV so identical runs serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .channel import ChannelParams, generate_multi, generate_trace, links, place_users
from .config import ACCESS_SCENARIOS, SWEEP_WINDOWS, SimConfig
from .decision import (
    arbitrate,
    new_decision_table,
    q_update,
    random_access,
    reward,
    select_action,
)
from .fusion import (
    encode_state,
    m_out_of_n,
    noisy_local_predictions,
    soft_fuse,
    train_fusion,
)
from .predictors import (
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
from .recommender import (
    ScoreMatrix,
    default_threshold,
    final_score,
    final_score_located,
    score_access,
)
from .seeding import derive_seed, make_rng
from .svg import line_chart

# sub-seed namespace per repetition
_TAG_CHANNELS = 1
_TAG_ELM = 2
_TAG_BP = 3
_TAG_NOISE = 4
_TAG_FUSION = 5
_TAG_LOCATIONS = 6
_TAG_SIM = 7

_METHOD_IDS = {"q": 0, "mdp": 1, "random": 2, "cf": 3}
_REWARDED = frozenset({"q", "mdp"})  # policies whose reward reads bits A and B
OUTPUT_FORMATS = ("json", "csv", "svg")  # what emit_outputs can write


@dataclass
class RunSummary:
    """Everything one scenario run produced.

    rows is flat (one dict per method x K x seed cell) and fully determined
    by (config, seed); timings hold wall-clock seconds and stay out of the
    canonical exports.
    """

    scenario: str
    config: dict
    seeds: list
    rows: list
    aggregates: dict
    series: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    events: Optional[list] = None


def _channel_params(cfg: SimConfig, rng: np.random.Generator) -> list:
    """Per-channel occupancy parameters, drawn from ranges when configured."""
    params = []
    active = cfg.n_channels - (1 if cfg.last_channel_idle else 0)
    for _ in range(active):
        if cfg.holding_range is not None:
            hold = float(rng.uniform(cfg.holding_range[0], cfg.holding_range[1]))
        else:
            hold = cfg.mean_holding
        if cfg.interarrival_range is not None:
            gap = float(
                rng.uniform(cfg.interarrival_range[0], cfg.interarrival_range[1])
            )
        else:
            gap = cfg.mean_interarrival
        params.append(ChannelParams(mean_interarrival=gap, mean_holding=hold))
    if cfg.last_channel_idle:
        params.append(ChannelParams.idle())
    return params


def _rep_trace(cfg: SimConfig, rep: int):
    """Repetition rep's seed and the occupancy states of its first channel."""
    rep_seed = derive_seed(cfg.seed, rep)
    params = _channel_params(cfg, make_rng(rep_seed, _TAG_CHANNELS, 0))
    return rep_seed, generate_trace(
        params[0], cfg.n_slots, derive_seed(rep_seed, _TAG_CHANNELS, 1)
    )


def _summary(cfg: SimConfig, rows, group, metrics, **extra) -> RunSummary:
    """The run's summary: config echo, seeds, rows and per-group means."""
    return RunSummary(
        scenario=cfg.scenario,
        config=asdict(cfg),
        seeds=list(range(cfg.reps)),
        rows=rows,
        aggregates=_mean_rows(rows, group, metrics),
        **extra,
    )


# ---------------------------------------------------------------------------
# prediction benchmark


def _run_prediction(cfg: SimConfig) -> RunSummary:
    """Train the three predictors on the first half of a trace, score the rest."""
    rows = []
    timings = {}
    sweep_windows = list(SWEEP_WINDOWS)
    sweep_mse = np.zeros((cfg.reps, len(sweep_windows)))
    for rep in range(cfg.reps):
        rep_seed, states = _rep_trace(cfg, rep)
        half = cfg.n_slots // 2
        train = make_training_set(states[:half], cfg.window)
        test_x, test_y = make_training_set(states[half - cfg.window:], cfg.window)
        actual = test_y.astype(np.int64)

        t0 = time.perf_counter()
        elm = elm_train(*train, cfg.elm_hidden, derive_seed(rep_seed, _TAG_ELM))
        t_elm = time.perf_counter() - t0
        t0 = time.perf_counter()
        bp = bp_train(
            *train,
            hidden_count=cfg.bp_hidden,
            learning_rate=cfg.bp_lr,
            max_epochs=cfg.bp_epochs,
            goal_mse=cfg.bp_goal,
            seed=derive_seed(rep_seed, _TAG_BP),
        )
        t_bp = time.perf_counter() - t0
        t0 = time.perf_counter()
        hmm = hmm_fit(states[:half])
        t_hmm = time.perf_counter() - t0

        raw_elm = elm_predict_many(elm, test_x)
        raw_bp = bp_predict_many(bp, test_x)
        pred_hmm = hmm_predict(hmm, test_x)
        per_method = {
            "elm": ((raw_elm >= cfg.lam).astype(np.int64), raw_elm, t_elm),
            "bp": ((raw_bp >= cfg.lam).astype(np.int64), raw_bp, t_bp),
            "hmm": (pred_hmm, None, t_hmm),
        }
        for method, (pred, raw, t_train) in per_method.items():
            rows.append(
                {
                    "method": method,
                    "seed": rep,
                    **eval_prediction(pred, actual, raw=raw),
                    "errors_near_transition": transition_error_fraction(pred, actual),
                }
            )
            timings[f"{method}_train_s_rep{rep}"] = t_train
        for j, w in enumerate(sweep_windows):
            tr_w = make_training_set(states[:half], w)
            te_x, te_y = make_training_set(states[half - w:], w)
            model_w = elm_train(*tr_w, cfg.elm_hidden, derive_seed(rep_seed, _TAG_ELM, w))
            raw_w = elm_predict_many(model_w, te_x)
            sweep_mse[rep, j] = float(np.mean((raw_w - te_y) ** 2))

    series = {
        "mse_vs_window": {
            "x": sweep_windows,
            "x_label": "input window (slots)",
            "y_label": "test mse",
            "lines": {"elm": [float(v) for v in sweep_mse.mean(axis=0)]},
        }
    }
    return _summary(
        cfg, rows, ("method",), ("accuracy", "p_d", "p_fa", "mse"),
        series=series, timings=timings,
    )


# ---------------------------------------------------------------------------
# fusion benchmark


def _run_fusion(cfg: SimConfig) -> RunSummary:
    """Q-fusion against hard voting, soft combining, and a Markov baseline."""
    rows = []
    rates = np.asarray(cfg.error_rates, dtype=np.float64)
    for rep in range(cfg.reps):
        rep_seed, states = _rep_trace(cfg, rep)
        states = states.astype(np.int64)
        bits = noisy_local_predictions(states, rates, derive_seed(rep_seed, _TAG_NOISE))
        values = train_fusion(
            bits,
            states,
            derive_seed(rep_seed, _TAG_FUSION),
            gamma=cfg.gamma,
            r_p=cfg.r_p,
            r_n=cfg.r_n,
            epsilon=cfg.epsilon,
        )
        policy = np.argmax(values, axis=1)  # ties go to idle, action 0
        preds = {"q_fusion": policy[encode_state(bits)]}
        n = bits.shape[1]
        for m in range(1, n + 1):
            preds[f"vote_m{m}"] = m_out_of_n(bits, m)
        # likelihood-calibrated soft inputs: p1 is the chance the channel is
        # busy given that user's report and its error rate
        p1 = np.where(bits == 1, 1.0 - rates[None, :], rates[None, :])
        preds["soft"] = soft_fuse(1.0 - p1, p1)
        half = cfg.n_slots // 2
        hmm = hmm_fit(states[:half])
        test_x, test_y = make_training_set(states[half - cfg.window:], cfg.window)
        hmm_pred = hmm_predict(hmm, test_x)

        for i in range(n):
            preds[f"local_{i}"] = bits[:, i]
        # every method is scored on the whole trace but hmm, which predicts
        # the test half only
        scored = [(method, pred, states) for method, pred in preds.items()]
        scored.append(("hmm", hmm_pred, test_y.astype(np.int64)))
        for method, pred, actual in scored:
            m = eval_prediction(pred, actual)
            rows.append(
                {
                    "method": method,
                    "seed": rep,
                    "p_d": m["p_d"],
                    "p_fa": m["p_fa"],
                    "accuracy": m["accuracy"],
                    "n_evaluated": int(len(actual)),
                }
            )
    return _summary(cfg, rows, ("method",), ("accuracy", "p_d", "p_fa"))


# ---------------------------------------------------------------------------
# slot-loop access simulator (recommendation and decision scenarios)


def _simulate_access(
    cfg: SimConfig,
    pu: np.ndarray,
    method: str,
    k: int,
    env_seed: int,
    act_seed: int,
    a_bits: Optional[list] = None,
    weights=None,
    neighbor_lists=None,
    collect_events: bool = False,
):
    """Run one policy over shared channel traces for a full horizon.

    pu is the M x T occupancy matrix. env_seed drives the request and
    arbitration streams (shared across methods so policies face identical
    demand); act_seed drives the agent's own randomness. Returns the
    metric counts and, with collect_events, the run's only trace: one event
    per resolved hold, naming its user su and its receiving partner (-1
    for none).
    Accesses granted during the warm-up phase train the agents and seed
    the score matrix but are excluded from the metric counts. a_bits,
    an M x T list, gives advisory bit A per channel and slot; it may be
    None only when nothing reads it: cf or random without events. In
    decision-2, ``channel.links`` gives weights[u][v], the discount of v's
    ratings for user u, and neighbor_lists[u], u's partners in increasing
    index order; a request takes the first one not busy.

    Each hold's end slot is booked when it is granted: the first of the
    next K slots in which the PU is back (a collision), else K slots on.
    Holds end at the top of that slot, in user order, before any request.

    Each policy reads part of the engine's state, and only that part is
    kept: q learns its Q table and mdp its per-(visited state, channel)
    reward sums from a reward built on bits A and B, where B reads the score
    matrix; cf reads the score matrix alone; random reads none of it.
    Events report A, B and the reward, so collecting them computes those
    for every policy.
    """
    m_ch, n_slots = pu.shape
    n_su = cfg.n_su
    pu_list = pu.tolist()
    rewarded = method in _REWARDED or collect_events
    keeps_matrix = rewarded or method == "cf"
    codes = encode_state(pu.T).tolist() if rewarded else None

    rng_req = make_rng(env_seed, 0)
    rng_arb = make_rng(env_seed, 1)
    rng_act = make_rng(act_seed, 2)

    if method == "q":
        table = new_decision_table(m_ch, alpha=cfg.alpha, gamma=cfg.gamma)
    elif method == "mdp":
        stats = {}  # visited state (at most one per slot) -> per-channel sums, counts

    matrix = ScoreMatrix(n_su=n_su, m_ch=m_ch)
    holder = [-1] * m_ch   # channel -> su holding it
    ends_at = {}  # end slot -> (su, channel, start slot, bit B) of holds ending then
    partner = [-1] * n_su  # transmitting su -> receiving su (decision-2)
    busy = [False] * n_su  # holds a channel or receives for a holder

    n_collision = d_success = 0
    events = [] if collect_events else None
    half_horizon = max(1, n_slots // 2)
    listing_key = None  # t, or (t, su) with weights, of the last listing
    if cfg.burst_requests:
        # every user requests every t slots, nobody in between
        everyone = list(range(n_su))
        request_lists = [everyone if t % cfg.t == 0 else [] for t in range(n_slots)]
    else:
        request_lists = _request_lists(rng_req, n_slots, n_su, cfg.request_prob)

    for t in range(n_slots + 1):
        # resolve the holds booked to end now before anything else this
        # slot, in user order (a user holds one channel at a time)
        for su, channel, t0, b in sorted(ends_at.pop(t, ())):
            collision = t < t0 + k
            rating = score_access(t - t0 if collision else k, k)
            holder[channel] = -1
            busy[su] = False
            v = partner[su]  # su's receiver, -1 for none
            if v >= 0:
                busy[v] = False
                partner[su] = -1
            if keeps_matrix:
                matrix.append(su, channel, t, rating)
            if rewarded:
                state, a = codes[t0], a_bits[channel][t0]
                r = reward(collision, a, b)
                if method == "q":
                    q_update(
                        table, state, channel, r, codes[t] if t < n_slots else state
                    )
                elif method == "mdp":
                    if state not in stats:
                        stats[state] = ([0.0] * m_ch, [0] * m_ch)
                    sums, counts = stats[state]
                    sums[channel] += r
                    counts[channel] += 1
            counted = t0 >= cfg.warmup_slots
            if counted:
                if collision:
                    n_collision += 1
                else:
                    d_success += 1
            if events is not None:
                events.append(
                    {
                        "slot": t,
                        "t0": t0,
                        "su": su,
                        "partner": v,
                        "state": state,
                        "action": channel,
                        "A": a,
                        "B": b,
                        "reward": r,
                        "collision": collision,
                        "counted": counted,
                    }
                )
        if t == n_slots:
            break  # grants fit the horizon, so every hold ended cleanly here

        # who requests: busy users never do
        requesting = [u for u in request_lists[t] if not busy[u]]
        order = arbitrate(requesting, rng_arb)
        # idle, unheld channels, in increasing order; grants must fit the
        # horizon
        candidates = (
            [c for c in range(m_ch) if pu_list[c][t] == 0 and holder[c] < 0]
            if order and t + k <= n_slots
            else []
        )
        warmup = t < cfg.warmup_slots
        for su in order:
            if not candidates:
                break
            if busy[su]:
                continue  # claimed as a partner earlier this slot
            if weights is not None:
                # pairwise link to v, the first free neighbor; without one
                # the request dies
                for v in neighbor_lists[su]:
                    if not busy[v]:
                        break
                else:
                    continue
            if rewarded or (method == "cf" and not warmup):
                # su's listing, for bit B and cf only, so requests that get no
                # channel are never scored. The matrix changes only in the
                # resolve step, so without weights one listing serves the slot.
                key = t if weights is None else (t, su)
                if key != listing_key:
                    if weights is None:
                        scores = [
                            final_score(matrix, ch, now=t, window=cfg.score_window)
                            for ch in range(m_ch)
                        ]
                    else:
                        scores = final_score_located(
                            matrix, weights[su], now=t, window=cfg.score_window
                        )
                    th = (cfg.th_value if cfg.th_mode == "fixed"
                          else default_threshold(scores))
                    listing_key = key
            if warmup or method == "random":
                channel = random_access(candidates, rng_act)
            elif method == "q":
                eps_t = cfg.epsilon * max(0.0, 1.0 - t / half_horizon)
                channel = select_action(table, codes[t], candidates, eps_t, rng_act)
            elif method == "mdp":
                channel = _argmax_reward(stats.get(codes[t]), candidates)
            elif method == "cf":
                listed = [
                    c for c in candidates if scores[c] is not None and scores[c] > th
                ]
                if listed:
                    # listed ascends, so max keeps the lowest of tied channels
                    channel = max(listed, key=scores.__getitem__)
                else:
                    channel = random_access(candidates, rng_act)
            else:
                raise ValueError(f"unknown access method {method!r}")
            candidates.remove(channel)
            holder[channel] = su
            b = 0
            if rewarded:  # bit B: the channel is on su's recommendation list
                score = scores[channel]
                b = int(score is not None and score > th)
            # the hold ends at the PU's first return within K slots
            try:
                end = pu_list[channel].index(1, t + 1, t + k + 1)
            except ValueError:
                end = t + k
            ends_at.setdefault(end, []).append((su, channel, t, b))
            busy[su] = True
            if weights is not None:
                partner[su] = v
                busy[v] = True

    return {
        "n_total": n_collision + d_success,
        "n_collision": n_collision,
        "d_success": d_success,
        "events": events,
    }


def _request_lists(rng, n_slots: int, n_su: int, p: float) -> list:
    """Per slot, the users whose request coin came up, in increasing order.

    One n_slots x n_su block of draws gives the same stream as one row of
    n_su draws per slot.
    """
    slots, users = np.nonzero(rng.random((n_slots, n_su)) < p)
    bounds = np.searchsorted(slots, np.arange(n_slots + 1)).tolist()
    users = users.tolist()
    return [users[bounds[t]: bounds[t + 1]] for t in range(n_slots)]


def _argmax_reward(stats, candidates):
    # empirical mean reward per action; channel evolution ignores actions,
    # so the continuation term is action-independent and greedy-on-R is the
    # value-iteration-greedy choice. candidates are in increasing order, so
    # ties go to the lowest channel, as in an unvisited state (stats None).
    if stats is None:
        return candidates[0]
    sums, counts = stats
    best, best_r = None, -math.inf
    for c in candidates:
        n = counts[c]
        mean_r = sums[c] / n if n > 0 else 0.0
        if mean_r > best_r:
            best, best_r = c, mean_r
    return best


def _train_channel_elms(cfg: SimConfig, pu: np.ndarray, rep_seed: int):
    """One next-slot predictor per channel, fitted on the warm-up prefix."""
    models = []
    for ch in range(pu.shape[0]):
        prefix = pu[ch, : cfg.warmup_slots]
        if len(prefix) <= cfg.window + 1:
            models.append(None)
            continue
        data = make_training_set(prefix, cfg.window)
        models.append(
            elm_train(*data, cfg.elm_hidden, derive_seed(rep_seed, _TAG_ELM, ch))
        )
    return models


def _advisory_bits(cfg: SimConfig, pu: np.ndarray, models) -> list:
    """Advisory bit A per (channel, slot), an M x T list of ints.

    A is the next-slot ELM prediction for the channel, busy when its raw
    output is at least lam as in the prediction scenario, or the
    current slot's state (persistence) where the channel has no model or
    too little history. It depends on neither the policy nor K, so one
    list serves every run over a repetition's traces. The prediction
    depends only on the window, so each distinct window is predicted once.
    """
    bits, w, size = pu.tolist(), cfg.window, pu.itemsize
    for c, model in enumerate(models):
        if model is None:
            continue
        row, memo = pu[c].tobytes(), {}
        for t in range(w - 1, pu.shape[1]):
            key = row[(t - w + 1) * size: (t + 1) * size]  # the window's bytes
            if key not in memo:
                # one row per call: a many-row product rounds some windows differently
                raw = elm_predict_many(model, pu[c: c + 1, t - w + 1: t + 1])
                memo[key] = int(raw[0] >= cfg.lam)
            bits[c][t] = memo[key]
    return bits


def _run_access(cfg: SimConfig, collect_events: bool) -> RunSummary:
    """Every (repetition, K, method) run of an access scenario.

    recommendation runs score-guided choice against random access at one
    K; the decision scenarios run Q-learning and greedy-MDP agents against
    random access over a K sweep, decision-1 sharing one recommendation
    list among all users and decision-2 weighting each rating by its
    author's distance. Each repetition draws its channel traces, builds
    bit A from per-channel ELM advisors where it is read and, in
    decision-2, places the users and builds their partner lists and
    distance weights; every K and method then runs over those. Events,
    when collected, are tagged with their method, K and seed.
    """
    if cfg.scenario == "recommendation":
        methods, k_values, group = ("cf", "random"), [cfg.k], ("method",)
    else:
        methods = ("q", "mdp", "random")
        k_values = list(range(cfg.k_min, cfg.k_max + 1))
        group = ("method", "k")
    rows = []
    events = [] if collect_events else None
    for rep in range(cfg.reps):
        rep_seed = derive_seed(cfg.seed, rep)
        params = _channel_params(cfg, make_rng(rep_seed, _TAG_CHANNELS, 0))
        pu = generate_multi(
            params, cfg.n_slots, derive_seed(rep_seed, _TAG_CHANNELS, 1)
        )
        a_bits = None  # bit A feeds only the rewards and the event log
        if collect_events or _REWARDED & set(methods):
            a_bits = _advisory_bits(cfg, pu, _train_channel_elms(cfg, pu, rep_seed))
        weights = neighbor_lists = None
        if cfg.scenario == "decision-2":
            seed = derive_seed(rep_seed, _TAG_LOCATIONS)
            coords = place_users(cfg.n_su, cfg.arena_side, seed)
            neighbor_lists, weights = links(coords, cfg.comm_radius)
        for k in k_values:
            for method in methods:
                res = _simulate_access(
                    cfg,
                    pu,
                    method,
                    k,
                    env_seed=derive_seed(rep_seed, _TAG_SIM, k),
                    act_seed=derive_seed(rep_seed, _TAG_SIM, k, _METHOD_IDS[method]),
                    weights=weights,
                    neighbor_lists=neighbor_lists,
                    collect_events=collect_events,
                    a_bits=a_bits,
                )
                rows.append(_metrics_row(method, k, rep, res))
                if events is not None:
                    for ev in res["events"]:
                        events.append({"method": method, "k": k, "seed": rep, **ev})
    summary = _summary(cfg, rows, group, ("p_collision", "d_e"), events=events)
    if cfg.scenario == "recommendation":
        return summary
    aggregates = summary.aggregates
    for metric in ("p_collision", "d_e"):
        summary.series[f"{metric}_vs_k"] = {
            "x": k_values,
            "x_label": "transmission length K (slots)",
            "y_label": metric,
            "lines": {
                method: [aggregates[f"mean_{metric}_{method}_{k}"] for k in k_values]
                for method in methods
            },
        }
    aggregates["total_success"] = int(sum(r["d_success"] for r in rows))
    for method in methods:
        aggregates[f"total_success_{method}"] = int(
            sum(r["d_success"] for r in rows if r["method"] == method)
        )
    return summary


def _metrics_row(method: str, k: int, rep: int, res: dict) -> dict:
    # rates over the counted accesses; undefined rates are None, never zero
    n_total = res["n_total"]
    return {
        "method": method,
        "k": k,
        "seed": rep,
        "p_collision": res["n_collision"] / n_total if n_total > 0 else None,
        "d_e": res["d_success"] / n_total if n_total > 0 else None,
        "n_total": n_total,
        "n_collision": res["n_collision"],
        "d_success": res["d_success"],
    }


def _mean_rows(rows, group, metrics) -> dict:
    """Mean of each metric per group key, skipping undefined entries."""
    out = {}
    keys = sorted({tuple(r[g] for g in group) for r in rows})
    for key in keys:
        bucket = [r for r in rows if tuple(r[g] for g in group) == key]
        name = "_".join(str(part) for part in key)
        for metric in metrics:
            values = [r[metric] for r in bucket if r.get(metric) is not None]
            out[f"mean_{metric}_{name}"] = (
                float(np.mean(values)) if values else None
            )
    return out


def run_scenario(cfg: SimConfig, collect_events: bool = False) -> RunSummary:
    """Dispatch a configured scenario to its driver.

    collect_events attaches per-decision event dicts to the summary for the
    scenarios that grant channel access; the benchmark scenarios have no
    slot-level decisions and ignore it.
    """
    if cfg.scenario == "prediction":
        return _run_prediction(cfg)
    if cfg.scenario == "fusion":
        return _run_fusion(cfg)
    if cfg.scenario in ACCESS_SCENARIOS:
        return _run_access(cfg, collect_events)
    raise ValueError(f"unknown scenario {cfg.scenario!r}")


# ---------------------------------------------------------------------------
# exports


def summary_to_json(summary: RunSummary) -> str:
    """Canonical JSON: sorted keys, no timing fields, trailing newline."""
    doc = {
        "scenario": summary.scenario,
        "config": summary.config,
        "seeds": summary.seeds,
        "rows": summary.rows,
        "aggregates": summary.aggregates,
        "series": summary.series,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def summary_to_csv(summary: RunSummary) -> str:
    """One row per method x K x seed, sorted by method, then K and seed as numbers.

    The columns are the keys of the first row, in order; every driver builds
    its rows with one dict literal (eval_prediction's metrics keep a fixed
    order), so the order is fixed per scenario.
    """
    columns = list(summary.rows[0])
    lines = [",".join(columns)]
    rows = sorted(summary.rows, key=lambda r: (r["method"], r.get("k", 0), r["seed"]))
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col)
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(repr(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_outputs(summary: RunSummary, formats, out_dir: str) -> list:
    """Write the summary to out_dir; returns the created file paths.

    formats is an iterable drawn from OUTPUT_FORMATS. File names embed
    the scenario and master seed. A series with no defined point gets no
    chart. A summary that carries events (run_scenario with collect_events)
    also gets its event log, one JSON object per line, empty when no
    access resolved. Unwritable paths raise OSError.
    """
    formats = set(formats)
    unknown = formats - set(OUTPUT_FORMATS)
    if unknown:
        raise ValueError(f"unknown output formats: {sorted(unknown)}")
    os.makedirs(out_dir, exist_ok=True)
    base = f"{summary.scenario}_seed{summary.config.get('seed', 0)}"
    written = []

    def _write(name, text):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)

    if "json" in formats:
        _write(f"{base}_summary.json", summary_to_json(summary))
    if "csv" in formats:
        _write(f"{base}_metrics.csv", summary_to_csv(summary))
    if "svg" in formats:
        for name in sorted(summary.series):
            chart = summary.series[name]
            lines = chart["lines"]
            if all(y is None for ys in lines.values() for y in ys):
                continue  # no defined point, e.g. no access counted after warm-up
            svg_text = line_chart(
                title=f"{summary.scenario}: {name}",
                x_label=chart["x_label"],
                y_label=chart["y_label"],
                x_values=chart["x"],
                series={k: lines[k] for k in sorted(lines)},
            )
            _write(f"{base}_{name}.svg", svg_text)
    if summary.events is not None:
        text = "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in summary.events)
        _write(f"{base}_events.jsonl", text)
    return written
