import hashlib
import json
import os
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crspectrum import harness
from crspectrum.channel import links, place_users
from crspectrum.config import default_config
from crspectrum.decision import (
    DecisionQTable,
    arbitrate,
    q_update,
    random_access,
    reward,
    select_action,
)
from crspectrum.harness import (
    _advisory_bits,
    _request_lists,
    _simulate_access,
    emit_outputs,
    run_scenario,
    summary_to_csv,
    summary_to_json,
)
from crspectrum.predictors import elm_predict_many, elm_train, make_training_set
from crspectrum.recommender import default_threshold, score_access
from crspectrum.seeding import derive_seed, make_rng
from crspectrum.svg import line_chart


def small_config(scenario, **overrides):
    """Trimmed scenario defaults so each test run stays under a second."""
    trims = {
        "prediction": dict(n_slots=1500, bp_epochs=20, reps=1),
        "fusion": dict(n_slots=2000, reps=1),
        "recommendation": dict(n_slots=300, reps=2),
        "decision-1": dict(n_slots=300, k_min=3, k_max=4, reps=2),
        "decision-2": dict(n_slots=300, k_min=3, k_max=4, reps=2),
    }
    cfg = replace(default_config(scenario), **trims[scenario])
    return replace(cfg, **overrides) if overrides else cfg


class TestDeterminism:
    @pytest.mark.parametrize(
        "scenario",
        ["prediction", "fusion", "recommendation", "decision-1", "decision-2"],
    )
    def test_repeat_run_is_byte_identical(self, scenario):
        cfg = small_config(scenario, seed=11)
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert summary_to_json(first) == summary_to_json(second)
        assert summary_to_csv(first) == summary_to_csv(second)

    def test_seed_changes_rows(self):
        a = run_scenario(small_config("recommendation", seed=1))
        b = run_scenario(small_config("recommendation", seed=2))
        assert summary_to_json(a) != summary_to_json(b)

    def test_timings_stay_out_of_exports(self):
        summary = run_scenario(small_config("prediction", seed=3))
        assert summary.timings  # collected for reporting
        assert "train_s" not in summary_to_json(summary)


class TestMetricRows:
    def setup_method(self):
        self.summary = run_scenario(small_config("decision-1", seed=7))

    def test_row_count_is_methods_by_k_by_reps(self):
        # 3 methods x 2 K values x 2 reps
        assert len(self.summary.rows) == 12

    def test_counts_partition_and_ratios_recompute(self):
        for row in self.summary.rows:
            assert row["n_collision"] + row["d_success"] == row["n_total"]
            if row["n_total"] > 0:
                assert row["p_collision"] == row["n_collision"] / row["n_total"]
                assert row["d_e"] == row["d_success"] / row["n_total"]
            else:
                assert row["p_collision"] is None
                assert row["d_e"] is None

    def test_aggregates_match_row_means(self):
        rows = self.summary.rows
        for method in ("q", "mdp", "random"):
            for k in (3, 4):
                vals = [
                    r["p_collision"]
                    for r in rows
                    if r["method"] == method and r["k"] == k
                    and r["p_collision"] is not None
                ]
                agg = self.summary.aggregates[f"mean_p_collision_{method}_{k}"]
                if vals:
                    np.testing.assert_allclose(agg, np.mean(vals))
                else:
                    assert agg is None

    def test_total_success_sums_methods(self):
        agg = self.summary.aggregates
        parts = sum(
            agg[f"total_success_{m}"] for m in ("q", "mdp", "random")
        )
        assert agg["total_success"] == parts

    def test_undefined_metrics_are_none_not_zero(self):
        # every access starts in the warm-up, so none is counted
        cfg = small_config("decision-1", seed=7)
        summary = run_scenario(replace(cfg, warmup_slots=cfg.n_slots))
        assert all(r["n_total"] == 0 for r in summary.rows)
        for metric in ("p_collision", "d_e"):
            assert all(r[metric] is None for r in summary.rows)
            means = [v for k, v in summary.aggregates.items() if metric in k]
            assert len(means) == 6 and all(v is None for v in means)
        header, *lines = summary_to_csv(summary).splitlines()
        columns = header.split(",")
        for line in lines:
            cells = dict(zip(columns, line.split(",")))
            assert cells["p_collision"] == cells["d_e"] == ""
            assert cells["n_total"] == "0"


class TestDispatch:
    def test_rejects_an_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario 'bogus'"):
            run_scenario(replace(small_config("decision-1"), scenario="bogus"))


class TestEngineInvariants:
    def test_busy_held_free_partition_every_slot(self):
        cfg = small_config("decision-1", n_su=8, n_channels=4, n_slots=400)
        rng = np.random.default_rng(3)
        pu = (rng.random((4, 400)) < 0.3).astype(np.int64)
        res = _simulate_access(
            cfg, pu, "random", k=3, env_seed=5, act_seed=6, a_bits=pu.tolist(),
            collect_events=True,
        )
        assert len(res["events"]) > 0
        for t in range(400):
            # the holds live at the end of slot t: granted by t, ending after
            # it. A held channel is PU-idle and a user holds one channel at most
            live = [ev for ev in res["events"] if ev["t0"] <= t < ev["slot"]]
            held = [ev["action"] for ev in live]
            assert len(set(held)) == len(held)
            assert not any(pu[c, t] for c in held)
            holders = [ev["su"] for ev in live]
            assert len(set(holders)) == len(holders)

    def test_events_describe_every_counted_access(self):
        cfg = small_config("decision-1", n_su=8, n_channels=4, n_slots=400)
        rng = np.random.default_rng(4)
        pu = (rng.random((4, 400)) < 0.3).astype(np.int64)
        res = _simulate_access(
            cfg, pu, "q", k=3, env_seed=5, act_seed=6, a_bits=pu.tolist(),
            collect_events=True,
        )
        counted = [ev for ev in res["events"] if ev["counted"]]
        assert len(counted) == res["n_total"]
        collisions = sum(1 for ev in counted if ev["collision"])
        assert collisions == res["n_collision"]
        for ev in res["events"]:
            assert 0 <= ev["action"] < 4
            assert ev["A"] in (0, 1) and ev["B"] in (0, 1)

    def test_mdp_memory_follows_the_visited_states(self):
        # at the 20-channel maximum, statistics for all 2^20 states would
        # take hundreds of MiB; a 300-slot run visits 300 states at most
        cfg = small_config("decision-1", n_channels=20, warmup_slots=60)
        rng = np.random.default_rng(6)
        pu = (rng.random((20, 300)) < 0.3).astype(np.int64)
        a_bits = pu.tolist()
        tracemalloc.start()
        try:
            res = _simulate_access(
                cfg, pu, "mdp", k=3, env_seed=5, act_seed=6, a_bits=a_bits
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res["n_total"] > 0
        assert peak < 8 * 2**20

    def test_grants_fit_horizon(self):
        # every counted access must have started k slots before the end
        cfg = small_config("decision-1", n_su=8, n_channels=4, n_slots=120)
        rng = np.random.default_rng(5)
        pu = (rng.random((4, 120)) < 0.2).astype(np.int64)
        res = _simulate_access(
            cfg, pu, "random", k=7, env_seed=1, act_seed=2, a_bits=pu.tolist(),
            collect_events=True,
        )
        for ev in res["events"]:
            assert ev["t0"] + 7 <= 120


class TestHoldEnds:
    """One user requests every slot on one channel; the PU is busy until
    slot 2, so the one hold starts at t0 = 2 and ends where the PU comes
    back, or K slots on."""

    K, T0 = 4, 2

    @pytest.mark.parametrize(
        "pu_back, end, collision, rating",
        [
            (T0 + 1, T0 + 1, True, 1),
            (T0 + K - 1, T0 + K - 1, True, K - 1),
            (T0 + K, T0 + K, False, K),  # back just as the hold completes
            (None, T0 + K, False, K),
        ],
        ids=["back-next-slot", "back-before-K", "back-at-K", "never-back"],
    )
    def test_end_slot_collision_and_rating(self, pu_back, end, collision, rating):
        k, t0 = self.K, self.T0
        cfg = small_config(
            "decision-1", n_su=1, n_channels=1, n_slots=t0 + k + 1,
            request_prob=1.0, warmup_slots=0,
        )
        pu = np.zeros((1, cfg.n_slots), dtype=np.int64)
        pu[0, :t0] = 1
        if pu_back is not None:
            pu[0, pu_back:] = 1
        appended = []
        real_append = harness.ScoreMatrix.append

        def append(matrix, su, channel, t, r):
            appended.append((su, channel, t, r))
            real_append(matrix, su, channel, t, r)

        with mock.patch.object(harness.ScoreMatrix, "append", append):
            res = _simulate_access(
                cfg, pu, "random", k=k, env_seed=1, act_seed=2,
                a_bits=pu.tolist(), collect_events=True,
            )
        [ev] = res["events"]
        assert (ev["t0"], ev["slot"], ev["collision"]) == (t0, end, collision)
        assert appended == [(0, 0, end, rating)]
        assert (res["n_collision"], res["d_success"]) == (
            int(collision), int(not collision)
        )


class TestScoringFollowsGrants:
    """Listings are built for granted requests only: once per grant slot
    when shared, once per grant when distance-weighted."""

    def _run(self, cfg, method, seed, **kwargs):
        rng = np.random.default_rng(seed)
        pu = (rng.random((cfg.n_channels, cfg.n_slots)) < 0.3).astype(np.int64)
        with mock.patch.object(
            harness, "final_score", wraps=harness.final_score
        ) as shared, mock.patch.object(
            harness, "final_score_located", wraps=harness.final_score_located
        ) as located:
            res = _simulate_access(
                cfg, pu, method, k=3, env_seed=seed + 1, act_seed=seed + 2,
                a_bits=pu.tolist(), **kwargs
            )
        return res, shared.call_count, located.call_count

    def test_shared_listing_once_per_grant_slot(self):
        cfg = small_config("decision-1", n_su=8, n_channels=4, warmup_slots=60)
        res, shared, located = self._run(cfg, "q", 7, collect_events=True)
        grant_slots = {ev["t0"] for ev in res["events"]}
        assert len(grant_slots) > 0
        assert shared == cfg.n_channels * len(grant_slots)
        assert located == 0

    def test_located_listing_once_per_grant(self):
        cfg = small_config("decision-2", n_su=12, n_channels=4, warmup_slots=60)
        coords = place_users(cfg.n_su, 10.0, 8)
        neighbor_lists, weights = links(coords, 5.0)
        res, shared, located = self._run(
            cfg, "q", 8, collect_events=True,
            weights=weights, neighbor_lists=neighbor_lists,
        )
        assert len(res["events"]) > 0
        assert located == len(res["events"])
        assert shared == 0

    def test_random_access_scores_nothing(self):
        cfg = small_config("decision-1", n_su=8, n_channels=4)
        res, shared, located = self._run(cfg, "random", 9)
        assert res["n_total"] > 0
        assert shared == located == 0

    def test_cf_scores_post_warmup_grant_slots_only(self):
        cfg = small_config("recommendation", warmup_slots=60)
        logged, _, _ = self._run(cfg, "cf", 10, collect_events=True)
        res, shared, located = self._run(cfg, "cf", 10)
        slots = {ev["t0"] for ev in logged["events"] if ev["t0"] >= cfg.warmup_slots}
        assert len(slots) > 0
        assert shared == cfg.n_channels * len(slots)
        assert located == 0


@st.composite
def engine_cases(draw):
    """A small random run of one method in either decision scenario."""
    n_su = draw(st.integers(1, 8))
    m_ch = draw(st.integers(1, 5))
    n_slots = draw(st.integers(1, 80))
    burst = draw(st.booleans())
    cfg = replace(
        default_config("decision-1"),
        n_su=n_su,
        n_channels=m_ch,
        n_slots=n_slots,
        request_prob=draw(st.sampled_from([0.05, 0.3, 1.0])),
        burst_requests=burst,
        t=draw(st.integers(1, 4)),
        warmup_slots=draw(st.integers(0, n_slots)),
        epsilon=draw(st.sampled_from([0.0, 0.3])),
        score_window=draw(st.integers(1, 20)),
        th_mode=draw(st.sampled_from(["half_max", "fixed"])),
        th_value=1.0,
    )
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pu = (rng.random((m_ch, n_slots)) < draw(st.sampled_from([0.0, 0.3, 0.7])))
    pu = pu.astype(np.int64)
    # bit A from a trace of its own, or persistence (the slot's own state)
    a_bits = pu.tolist()
    if draw(st.booleans()):
        a_bits = (rng.random((m_ch, n_slots)) < 0.5).astype(int).tolist()
    located = draw(st.booleans())
    weights = neighbor_lists = None
    if located:
        coords = place_users(n_su, draw(st.sampled_from([4.0, 15.0])), seed)
        neighbor_lists, weights = links(coords, 5.0)
    return dict(
        cfg=cfg,
        pu=pu,
        method=draw(st.sampled_from(["q", "mdp", "random", "cf"])),
        k=draw(st.integers(1, 5)),
        env_seed=seed + 1,
        act_seed=seed + 2,
        a_bits=a_bits,
        weights=weights,
        neighbor_lists=neighbor_lists,
    )


class TestEngineProperties:
    @settings(max_examples=150, deadline=None)
    @given(engine_cases())
    def test_invariants(self, case):
        cfg, pu, k = case["cfg"], case["pu"], case["k"]
        neighbor_lists = case["neighbor_lists"]
        n_slots = pu.shape[1]
        res = _simulate_access(**case, collect_events=True)
        events = res["events"]

        # in decision-2 every hold names its receiver, one of its sender's
        # neighbors; elsewhere no hold has one
        for ev in events:
            if neighbor_lists is None:
                assert ev["partner"] == -1
            else:
                assert ev["partner"] in neighbor_lists[ev["su"]]

        # every hold starts on an idle channel, ends at the PU's first
        # return or after K slots, and never overlaps another hold of its
        # channel or of a user it sends or receives for
        for ev in events:
            c, t0, end = ev["action"], ev["t0"], ev["slot"]
            assert t0 + k <= n_slots
            assert not pu[c, t0:end].any()
            if ev["collision"]:
                assert t0 < end < t0 + k and pu[c, end] == 1
            else:
                assert end == t0 + k
        for fields in (("action",), ("su", "partner")):
            spans = {}
            for ev in events:
                for f in fields:
                    spans.setdefault(ev[f], []).append((ev["t0"], ev["slot"]))
            spans.pop(-1, None)  # no receiver
            for intervals in spans.values():
                intervals.sort()
                for (_, end), (start, _) in zip(intervals, intervals[1:]):
                    assert start >= end

        # only accesses granted after the warm-up count, and each counted
        # access is a collision or a success
        for ev in events:
            assert ev["counted"] == (ev["t0"] >= cfg.warmup_slots)
        counted = [ev for ev in events if ev["counted"]]
        assert res["n_total"] == len(counted)
        assert res["n_collision"] == sum(ev["collision"] for ev in counted)
        assert res["n_collision"] + res["d_success"] == res["n_total"]


def reference_access(cfg, pu, method, k, env_seed, act_seed, a_bits,
                     weights=None, neighbor_lists=None):
    """The slot engine written naively from README's rules.

    Every slot rescans every hold for its end and every record for the
    listing, keeps all records and builds a listing for every grant. Only
    the functions that own a random stream or a formula are shared with
    the engine; it returns the engine's counts and event log.
    """
    m_ch, n_slots = pu.shape
    pu = pu.tolist()
    rng_req, rng_arb = make_rng(env_seed, 0), make_rng(env_seed, 1)
    rng_act = make_rng(act_seed, 2)
    if cfg.burst_requests:
        requests = [list(range(cfg.n_su)) if t % cfg.t == 0 else []
                    for t in range(n_slots)]
    else:
        requests = _request_lists(rng_req, n_slots, cfg.n_su, cfg.request_prob)
    table = DecisionQTable(np.zeros((1 << m_ch, m_ch)), cfg.alpha, cfg.gamma)
    sums, counts = {}, {}  # mdp: (state, channel) -> reward sum, count
    holds = []  # dicts of su, channel, t0, b, partner
    records = []  # (t, su, channel, rating) in append order
    events = []

    def code(t):
        return sum(pu[c][t] << c for c in range(m_ch))

    for t in range(n_slots + 1):
        ending = [h for h in holds if t == h["t0"] + k or pu[h["channel"]][t] == 1]
        for h in sorted(ending, key=lambda h: h["su"]):
            holds.remove(h)
            su, c, t0 = h["su"], h["channel"], h["t0"]
            collision = t < t0 + k
            records.append((t, su, c, score_access(t - t0 if collision else k, k)))
            state = code(t0)
            r = reward(collision, a_bits[c][t0], h["b"])
            if method == "q":
                q_update(table, state, c, r, code(t) if t < n_slots else state)
            sums[state, c] = sums.get((state, c), 0.0) + r
            counts[state, c] = counts.get((state, c), 0) + 1
            events.append({"slot": t, "t0": t0, "su": su,
                           "partner": h["partner"], "state": state,
                           "action": c, "A": a_bits[c][t0], "B": h["b"],
                           "reward": r, "collision": collision,
                           "counted": t0 >= cfg.warmup_slots})
        if t == n_slots:
            break
        busy = {h["su"] for h in holds} | {h["partner"] for h in holds}
        order = arbitrate([u for u in requests[t] if u not in busy], rng_arb)
        held = {h["channel"] for h in holds}
        candidates = [c for c in range(m_ch) if pu[c][t] == 0 and c not in held]
        if t + k > n_slots:
            candidates = []
        for su in order:
            if not candidates:
                break
            if su in busy:
                continue
            v = -1  # no receiver
            if weights is not None:
                free = [u for u in neighbor_lists[su] if u not in busy]
                if not free:
                    continue
                v = free[0]
            total, n = [0.0] * m_ch, [0] * m_ch
            for rt, rater, c, rating in records:
                if t - cfg.score_window <= rt < t:
                    total[c] += rating * (1 if weights is None else weights[su][rater])
                    n[c] += 1
            scores = [total[c] / n[c] if n[c] else None for c in range(m_ch)]
            th = cfg.th_value if cfg.th_mode == "fixed" else default_threshold(scores)
            listed = {c for c, s in enumerate(scores)
                      if s is not None and s > (0.0 if th is None else th)}
            if t < cfg.warmup_slots or method == "random":
                channel = random_access(candidates, rng_act)
            elif method == "q":
                eps = cfg.epsilon * max(0.0, 1.0 - t / max(1, n_slots // 2))
                channel = select_action(table, code(t), candidates, eps, rng_act)
            elif method == "mdp":
                channel = max(candidates, key=lambda c: sums.get((code(t), c), 0.0)
                              / counts.get((code(t), c), 1))
            elif any(c in listed for c in candidates):  # cf
                channel = max((c for c in candidates if c in listed),
                              key=scores.__getitem__)
            else:
                channel = random_access(candidates, rng_act)
            candidates.remove(channel)
            holds.append({"su": su, "channel": channel, "t0": t,
                          "b": int(channel in listed), "partner": v})
            busy |= {su, v}
    counted = [ev for ev in events if ev["counted"]]
    n_collision = sum(ev["collision"] for ev in counted)
    return {"n_total": len(counted), "n_collision": n_collision,
            "d_success": len(counted) - n_collision, "events": events}


class TestReferenceEngine:
    """The engine's counts and event log equal the naive simulator's."""

    @settings(max_examples=150, deadline=None)
    @given(engine_cases())
    def test_engine_matches_reference(self, case):
        want = reference_access(**case)
        assert _simulate_access(**case, collect_events=True) == want
        assert _simulate_access(**case) == {**want, "events": None}


def _recording(fn, position, calls):
    # a copy of the list argument at each call, then the real call
    def spy(*args):
        calls.append(list(args[position]))
        return fn(*args)

    return spy


class TestDecisionContract:
    """The engine hands the decision layer what its functions take: an
    increasing list of users to arbitrate, possibly empty, and a nonempty
    increasing list of channels to choose from."""

    @settings(max_examples=150, deadline=None)
    @given(engine_cases())
    def test_engine_passes_increasing_lists_in_range(self, case):
        m_ch, n_su = case["pu"].shape[0], case["cfg"].n_su
        users, channels = [], []
        with mock.patch.object(
            harness, "arbitrate", _recording(harness.arbitrate, 0, users)
        ), mock.patch.object(
            harness, "random_access", _recording(harness.random_access, 0, channels)
        ), mock.patch.object(
            harness, "select_action", _recording(harness.select_action, 2, channels)
        ):
            _simulate_access(**case, collect_events=True)
        for lst, size in [(u, n_su) for u in users] + [(c, m_ch) for c in channels]:
            assert all(a < b for a, b in zip(lst, lst[1:]))
            assert all(0 <= x < size for x in lst)
        assert all(channels)


class TestRequestLists:
    @settings(max_examples=200, deadline=None)
    @given(
        n_slots=st.integers(0, 40),
        n_su=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_block_matches_per_slot_draws(self, n_slots, n_su, seed, p):
        rng_ref, rng = make_rng(seed), make_rng(seed)
        want = [
            [u for u, d in enumerate(rng_ref.random(n_su)) if d < p]
            for _ in range(n_slots)
        ]
        assert _request_lists(rng, n_slots, n_su, p) == want
        assert rng.random() == rng_ref.random()


# reduced access configs whose event logs are pinned below
EVENT_CASES = {
    "recommendation": dict(n_slots=300, reps=2),
    "decision-1": dict(n_slots=300, k_max=5, reps=1, warmup_slots=60),
    "decision-2": dict(n_slots=300, k_max=5, reps=1, warmup_slots=60),
}


class TestEventsOff:
    """Without events the engine skips what the policy does not read."""

    @pytest.mark.parametrize(
        "scenario, overrides",
        [
            *EVENT_CASES.items(),
            (
                "decision-1",
                dict(n_su=6, n_slots=300, k_max=4, t=4, reps=1, warmup_slots=60,
                     burst_requests=True),
            ),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_equal_with_and_without_events(self, scenario, overrides, seed):
        cfg = replace(default_config(scenario), seed=seed, **overrides)
        assert run_scenario(cfg, collect_events=True).rows == run_scenario(cfg).rows

    @pytest.mark.parametrize(
        "scenario, events, calls",
        [
            ("recommendation", False, 0),
            ("recommendation", True, 2),
            ("decision-1", False, 1),
        ],
    )
    def test_elm_advisors_train_only_when_bit_a_is_read(
        self, monkeypatch, scenario, events, calls
    ):
        # recommendation's cf and random never read bit A; its event log does
        seen = []
        advise = harness._advisory_bits

        def counted(*args):
            seen.append(args)
            return advise(*args)

        monkeypatch.setattr(harness, "_advisory_bits", counted)
        cfg = replace(default_config(scenario), **EVENT_CASES[scenario])
        run_scenario(cfg, collect_events=events)
        assert len(seen) == calls


class TestShortWarmupPrefix:
    """A warm-up prefix of at most window + 1 slots fits no advisor, so bit A
    is the channel's state in the slot of the grant."""

    @pytest.mark.parametrize("warmup", [0, 11])
    def test_bit_a_is_the_trace(self, monkeypatch, warmup):
        seen = []
        advise = harness._advisory_bits

        def kept(cfg, pu, rep_seed):
            seen.append(pu)
            return advise(cfg, pu, rep_seed)

        monkeypatch.setattr(harness, "_advisory_bits", kept)
        cfg = replace(
            default_config("decision-1"), seed=2, n_slots=300, k_max=4, reps=1,
            warmup_slots=warmup,
        )
        assert warmup <= cfg.window + 1
        summary = run_scenario(cfg, collect_events=True)
        (pu,) = seen
        assert summary.events
        for ev in summary.events:
            assert ev["A"] == pu[ev["action"], ev["t0"]]
        assert run_scenario(cfg).rows == summary.rows


class TestEventLogsPinned:
    """SHA-256 of each event log (bits A and B, the reward and the
    receiving partner of every policy's accesses), as
    json.dumps(events, sort_keys=True)."""

    DIGESTS = {
        ("recommendation", 0): "09ebe8e71e65d90a73eaca56e26282a7140df1c53c944fcd882316a6fbb78ad5",
        ("recommendation", 1): "37117fcc17fcd52c5a63390918f3c0fcd3b058d7eb01f9db63a6636f75bd12bf",
        ("decision-1", 0): "c8915a2ff9fd99a0aa8868c4c13a7698b01e36e51fbb401134fb048e37b7c891",
        ("decision-1", 1): "d25b608274258027222948f84258d92696fa888acbbb36296ad9dcde5adf36e2",
        ("decision-2", 0): "0d1f25c4cf2f233090e22efc2acf7c78385736d0eb4fb75a19f5bb020ab73ec8",
        ("decision-2", 1): "2663326ee0970a9b93cb1a82bd0f889ad1bf3a40425a44c56855328032be7547",
    }

    @pytest.mark.parametrize("scenario, seed", sorted(DIGESTS))
    def test_event_log_digest(self, scenario, seed):
        cfg = replace(default_config(scenario), seed=seed, **EVENT_CASES[scenario])
        events = run_scenario(cfg, collect_events=True).events
        text = json.dumps(events, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[scenario, seed]


@st.composite
def advisory_cases(draw):
    """A random 0/1 trace matrix of either dtype and a config whose warm-up
    prefix may be too short to fit the advisors."""
    m_ch = draw(st.integers(1, 4))
    n_slots = draw(st.integers(1, 60))
    w = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pu = (rng.random((m_ch, n_slots)) < draw(st.sampled_from([0.1, 0.5]))).astype(
        draw(st.sampled_from([np.uint8, np.int64]))
    )
    cfg = replace(
        default_config("decision-1"),
        window=w,
        lam=draw(st.sampled_from([0.3, 0.5])),
        warmup_slots=draw(st.integers(0, n_slots + 2)),
        elm_hidden=6,
    )
    return cfg, pu, seed


def _reference_advisors(cfg, pu, rep_seed):
    """The driver's advisors: one ELM per channel on its warm-up prefix,
    None where the prefix has at most window + 1 slots."""
    models = []
    for c in range(pu.shape[0]):
        prefix = pu[c, : cfg.warmup_slots]
        if len(prefix) <= cfg.window + 1:
            models.append(None)
        else:
            seed = derive_seed(rep_seed, harness._TAG_ELM, c)
            models.append(
                elm_train(*make_training_set(prefix, cfg.window), cfg.elm_hidden, seed)
            )
    return models


class TestAdvisoryBits:
    @settings(max_examples=150, deadline=None)
    @given(advisory_cases())
    def test_equals_per_slot_rule(self, case):
        self._check(*case)

    def test_windows_longer_than_64_slots(self):
        # 70-slot windows that share their oldest 64 slots but differ in the
        # newest must each get their own prediction
        w, n_slots = 70, 200
        pu = (np.random.default_rng(5).random((2, n_slots)) < 0.5).astype(np.uint8)
        pu[:, 100:164] = pu[:, 30:94]
        cfg = replace(
            default_config("decision-1"), window=w, warmup_slots=n_slots, elm_hidden=6
        )
        self._check(cfg, pu, 5)

    @staticmethod
    def _check(cfg, pu, rep_seed):
        w = cfg.window
        models = _reference_advisors(cfg, pu, rep_seed)

        def rule(c, t):
            # bit A one (channel, slot) at a time, with no memo or grouping
            if models[c] is None or t + 1 < w:
                return int(pu[c, t])
            raw = elm_predict_many(models[c], pu[c: c + 1, t - w + 1: t + 1])
            return int(raw[0] >= cfg.lam)

        with mock.patch.object(
            harness, "elm_predict_many", wraps=elm_predict_many
        ) as spy:
            bits = _advisory_bits(cfg, pu, rep_seed)
        m_ch, n_slots = pu.shape
        assert bits == [[rule(c, t) for t in range(n_slots)] for c in range(m_ch)]
        # one prediction per distinct window of each channel with a model
        distinct = sum(
            len({pu[c, t - w + 1: t + 1].tobytes() for t in range(w - 1, n_slots)})
            for c in range(m_ch)
            if models[c] is not None
        )
        assert spy.call_count == distinct


class TestThresholdBoundary:
    # a raw output exactly at lam reads busy, in bit A and in the prediction
    # scenario alike
    @staticmethod
    def _constant(value):
        return lambda model, windows: np.full(len(windows), value)

    def test_bit_a_reads_busy_at_lam(self):
        w, n_slots = 4, 50
        pu = (np.random.default_rng(8).random((2, n_slots)) < 0.5).astype(np.int64)
        cfg = replace(
            default_config("decision-1"), window=w, lam=0.3, warmup_slots=n_slots
        )
        with mock.patch.object(harness, "elm_predict_many", self._constant(cfg.lam)):
            bits = _advisory_bits(cfg, pu, 8)
        for c in range(2):
            assert bits[c][: w - 1] == pu[c, : w - 1].tolist()  # persistence
            assert bits[c][w - 1:] == [1] * (n_slots - w + 1)
        below = np.nextafter(cfg.lam, -np.inf)
        with mock.patch.object(harness, "elm_predict_many", self._constant(below)):
            bits = _advisory_bits(cfg, pu, 8)
        assert bits[0][w - 1:] == bits[1][w - 1:] == [0] * (n_slots - w + 1)

    def test_prediction_rows_read_busy_at_lam(self):
        cfg = small_config("prediction", seed=4, lam=0.3)
        with mock.patch.object(harness, "elm_predict_many", self._constant(cfg.lam)):
            summary = run_scenario(cfg)
        elm_rows = [r for r in summary.rows if r["method"] == "elm"]
        assert elm_rows
        for row in elm_rows:
            assert row["tn"] == row["fn"] == 0  # every slot predicted busy
            assert row["tp"] > 0 and row["fp"] > 0


class TestDegenerateTraces:
    def test_always_idle_channel_is_perfectly_predictable(self):
        cfg = small_config(
            "prediction", n_channels=1, last_channel_idle=True, seed=9
        )
        summary = run_scenario(cfg)
        elm_rows = [r for r in summary.rows if r["method"] == "elm"]
        for row in elm_rows:
            assert row["accuracy"] == 1.0
            assert row["p_fa"] == 0.0
            assert row["p_d"] is None  # no busy slot ever occurs
            assert row["mse"] < 1e-10
        assert summary.aggregates["mean_p_d_elm"] is None

    def test_all_idle_decision_run_never_collides(self):
        cfg = small_config("decision-1", seed=9)
        cfg = replace(
            cfg, n_channels=4, n_su=6, holding_range=None, interarrival_range=None,
            last_channel_idle=True, mean_holding=1.0, mean_interarrival=10.0,
        )
        pu = np.zeros((4, cfg.n_slots), dtype=np.int64)
        res = _simulate_access(cfg, pu, "random", k=3, env_seed=2, act_seed=3)
        assert res["n_collision"] == 0
        assert res["d_success"] == res["n_total"] > 0


class TestOutputs:
    def test_emit_writes_requested_formats(self, tmp_path):
        summary = run_scenario(small_config("decision-1", seed=13))
        written = emit_outputs(summary, ["json", "csv", "svg"], str(tmp_path))
        names = sorted(os.path.basename(p) for p in written)
        assert names == [
            "decision-1_seed13_d_e_vs_k.svg",
            "decision-1_seed13_metrics.csv",
            "decision-1_seed13_p_collision_vs_k.svg",
            "decision-1_seed13_summary.json",
        ]
        payload = json.loads((tmp_path / "decision-1_seed13_summary.json").read_text())
        assert payload["config"]["seed"] == 13
        assert "timings" not in payload
        svg_text = (tmp_path / "decision-1_seed13_p_collision_vs_k.svg").read_text()
        assert svg_text.startswith("<svg") and "</svg>" in svg_text

    def test_chart_of_one_x_value_and_a_constant_series(self, tmp_path):
        svg_text = line_chart("one point", "x", "y", [3], {"a": [0.5], "b": [None]})
        assert "<polyline" in svg_text and "nan" not in svg_text
        # a decision run over one K draws one x value per chart
        summary = run_scenario(small_config("decision-1", k_min=4, k_max=4, reps=1))
        written = emit_outputs(summary, ["svg"], str(tmp_path))
        assert len(written) == 2
        for path in written:
            text = open(path, encoding="utf-8").read()
            assert "<circle" in text and "nan" not in text

    def test_csv_has_header_plus_row_lines(self, tmp_path):
        summary = run_scenario(small_config("decision-1", seed=13))
        text = summary_to_csv(summary)
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(summary.rows)
        assert lines[0].startswith("method,")

    def test_csv_sorts_k_and_seed_as_numbers(self):
        summary = run_scenario(small_config("decision-1", k_min=9, k_max=10))
        header, *lines = summary_to_csv(summary).splitlines()
        columns = header.split(",")
        keys = []
        for line in lines:
            cells = dict(zip(columns, line.split(",")))
            keys.append((cells["method"], int(cells["k"]), int(cells["seed"])))
        assert {k for _, k, _ in keys} == {9, 10}
        assert keys == sorted(keys)

    def test_scenario_without_series_skips_svg(self, tmp_path):
        summary = run_scenario(small_config("recommendation", seed=13))
        written = emit_outputs(summary, ["json", "csv", "svg"], str(tmp_path))
        assert not [p for p in written if p.endswith(".svg")]
        json.loads((tmp_path / "recommendation_seed13_summary.json").read_text())

    def test_verbose_event_log_round_trips(self, tmp_path):
        cfg = small_config("recommendation", seed=13, reps=1)
        summary = run_scenario(cfg, collect_events=True)
        assert summary.events
        written = emit_outputs(summary, ["json"], str(tmp_path))
        event_path = [p for p in written if p.endswith("events.jsonl")][0]
        with open(event_path, "r", encoding="utf-8") as fh:
            parsed = [json.loads(line) for line in fh]
        assert len(parsed) == len(summary.events)
        assert {ev["method"] for ev in parsed} == {"cf", "random"}

    def test_unknown_format_rejected(self, tmp_path):
        summary = run_scenario(small_config("recommendation", seed=13))
        with pytest.raises(ValueError):
            emit_outputs(summary, ["json", "gif"], str(tmp_path))
