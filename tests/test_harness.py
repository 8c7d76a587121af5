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
from crspectrum.harness import (
    _advisory_bits,
    _request_lists,
    _simulate_access,
    emit_outputs,
    run_scenario,
    summary_to_csv,
    summary_to_json,
)
from crspectrum.predictors import elm_predict, elm_train, make_training_set, threshold
from crspectrum.seeding import make_rng


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
        audit = []
        _simulate_access(
            cfg, pu, "random", k=3, env_seed=5, act_seed=6, audit=audit
        )
        assert len(audit) == 400
        for t, entry in enumerate(audit):
            # recount from the trace and the holders, not the audit's sums:
            # a held channel is PU-idle and a user holds one channel at most
            busy = [c for c in range(4) if pu[c, t] == 1]
            held = [c for c in range(4) if entry["holder"][c] >= 0]
            free = [c for c in range(4) if c not in busy and c not in held]
            assert not set(busy) & set(held)
            holders = [entry["holder"][c] for c in held]
            assert len(set(holders)) == len(holders)
            assert (entry["pu_busy"], entry["held"], entry["free"]) == (
                len(busy), len(held), len(free)
            )

    def test_events_describe_every_counted_access(self):
        cfg = small_config("decision-1", n_su=8, n_channels=4, n_slots=400)
        rng = np.random.default_rng(4)
        pu = (rng.random((4, 400)) < 0.3).astype(np.int64)
        res = _simulate_access(
            cfg, pu, "q", k=3, env_seed=5, act_seed=6, collect_events=True
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
        tracemalloc.start()
        try:
            res = _simulate_access(cfg, pu, "mdp", k=3, env_seed=5, act_seed=6)
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
            cfg, pu, "random", k=7, env_seed=1, act_seed=2, collect_events=True
        )
        for ev in res["events"]:
            assert ev["t0"] + 7 <= 120


def _grant_slots(audit, k):
    """Slots where some user was granted a channel, read off the audit.

    A channel's holder at the end of a slot is new when it differs from
    the previous slot's, or when the previous hold ran its k slots (the
    same user may take the channel again the slot it ends).
    """
    slots, start = set(), {}
    previous = [-1] * len(audit[0]["holder"])
    for entry in audit:
        t = entry["slot"]
        for c, su in enumerate(entry["holder"]):
            if su >= 0 and (su != previous[c] or t >= start[c] + k):
                start[c] = t
                slots.add(t)
        previous = entry["holder"]
    return slots


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
                cfg, pu, method, k=3, env_seed=seed + 1, act_seed=seed + 2, **kwargs
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
        audit = []
        res, shared, located = self._run(cfg, "cf", 10, audit=audit)
        slots = {t for t in _grant_slots(audit, 3) if t >= cfg.warmup_slots}
        assert len(slots) > 0
        assert shared == cfg.n_channels * len(slots)
        assert located == 0


@st.composite
def engine_cases(draw):
    """A small random run of one method in either decision scenario."""
    n_su = draw(st.integers(2, 8))
    m_ch = draw(st.integers(1, 5))
    n_slots = draw(st.integers(1, 60))
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
    located = draw(st.booleans())
    weights = neighbor_lists = None
    if located:
        coords = place_users(n_su, draw(st.sampled_from([4.0, 15.0])), seed)
        neighbor_lists, weights = links(coords, 5.0)
    return dict(
        cfg=cfg,
        pu=pu.astype(np.int64),
        method=draw(st.sampled_from(["q", "mdp", "random", "cf"])),
        k=draw(st.integers(1, 5)),
        env_seed=seed + 1,
        act_seed=seed + 2,
        weights=weights,
        neighbor_lists=neighbor_lists,
    )


class TestEngineProperties:
    @settings(max_examples=150, deadline=None)
    @given(engine_cases())
    def test_invariants(self, case):
        cfg, pu, k = case["cfg"], case["pu"], case["k"]
        neighbor_lists = case["neighbor_lists"]
        m_ch, n_slots = pu.shape
        audit = []
        res = _simulate_access(**case, collect_events=True, audit=audit)
        events = res["events"]

        # at the end of every slot: each held channel is PU-idle, a user
        # holds at most one channel, and in decision-2 every holder has its
        # own partner, a free neighbor
        assert [entry["slot"] for entry in audit] == list(range(n_slots))
        for entry in audit:
            t, holder, partner = entry["slot"], entry["holder"], entry["partner"]
            holders = [su for su in holder if su >= 0]
            assert len(set(holders)) == len(holders)
            assert all(pu[c, t] == 0 for c, su in enumerate(holder) if su >= 0)
            receivers = [v for v in partner if v >= 0]
            if neighbor_lists is None:
                assert not receivers
                continue
            assert len(set(receivers)) == len(receivers)
            assert not set(receivers) & set(holders)
            for su, v in enumerate(partner):
                assert (v >= 0) == (su in holders)
                assert v < 0 or v in neighbor_lists[su]

        # every hold starts on an idle channel, ends at the PU's first
        # return or after K slots, and never overlaps another hold of its
        # channel or its user
        for ev in events:
            c, t0, end = ev["action"], ev["t0"], ev["slot"]
            assert t0 + k <= n_slots
            assert not pu[c, t0:end].any()
            if ev["collision"]:
                assert t0 < end < t0 + k and pu[c, end] == 1
            else:
                assert end == t0 + k
        for field in ("action", "su"):
            spans = {}
            for ev in events:
                spans.setdefault(ev[field], []).append((ev["t0"], ev["slot"]))
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
        train = harness._train_channel_elms

        def counted(*args):
            seen.append(args)
            return train(*args)

        monkeypatch.setattr(harness, "_train_channel_elms", counted)
        cfg = replace(default_config(scenario), **EVENT_CASES[scenario])
        run_scenario(cfg, collect_events=events)
        assert len(seen) == calls


class TestEventLogsPinned:
    """SHA-256 of each event log (bits A and B and the reward of every
    policy's accesses), as json.dumps(events, sort_keys=True)."""

    DIGESTS = {
        ("recommendation", 0): "c9f02839e8197c463ef80950857a39f5b5e36253aa3d78b0dafe7afaed38bbc4",
        ("recommendation", 1): "0952f009d587963c14728c295747e07f1ab0d2cef96489699ec9968ec23e07a9",
        ("decision-1", 0): "20654ab1227b2ed546bd4caa968118475f46107dc894fd934f85dbed0ea11244",
        ("decision-1", 1): "0556302ab8815645ed4c9459a12331784fbb5d10e832449b201e10818761a0fe",
        ("decision-2", 0): "2b121fb64a6481d29214083a408103d03fb81ca80adc5061a060a6b696ffa23b",
        ("decision-2", 1): "bc6c2172ae92dfce1bc620a5ece709eab90db5ef7955cb5ed8ddb65c930f1f66",
    }

    @pytest.mark.parametrize("scenario, seed", sorted(DIGESTS))
    def test_event_log_digest(self, scenario, seed):
        cfg = replace(default_config(scenario), seed=seed, **EVENT_CASES[scenario])
        events = run_scenario(cfg, collect_events=True).events
        text = json.dumps(events, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[scenario, seed]


@st.composite
def advisory_cases(draw):
    """A random 0/1 trace matrix of either dtype, a window and models or None."""
    m_ch = draw(st.integers(1, 4))
    n_slots = draw(st.integers(1, 60))
    w = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pu = (rng.random((m_ch, n_slots)) < draw(st.sampled_from([0.1, 0.5]))).astype(
        draw(st.sampled_from([np.uint8, np.int64]))
    )
    models = []
    for c in range(m_ch):
        if n_slots > w and draw(st.booleans()):
            data = make_training_set(pu[c], w)
            models.append(elm_train(data, 6, seed + c))
        else:
            models.append(None)
    cfg = replace(
        default_config("decision-1"), window=w, lam=draw(st.sampled_from([0.3, 0.5]))
    )
    return cfg, pu, models


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
        models = [elm_train(make_training_set(pu[0], w), 6, 5), None]
        cfg = replace(default_config("decision-1"), window=w)
        self._check(cfg, pu, models)

    @staticmethod
    def _check(cfg, pu, models):
        w = cfg.window

        def rule(c, t):
            # bit A as the engine once built it, one (channel, slot) at a time
            if models[c] is None or t + 1 < w:
                return int(pu[c, t])
            return threshold(elm_predict(models[c], pu[c, t - w + 1: t + 1]), cfg.lam)

        with mock.patch.object(harness, "elm_predict", wraps=elm_predict) as spy:
            bits = _advisory_bits(cfg, pu, models)
        m_ch, n_slots = pu.shape
        assert bits == [[rule(c, t) for t in range(n_slots)] for c in range(m_ch)]
        # one prediction per distinct window of each channel with a model
        distinct = sum(
            len({pu[c, t - w + 1: t + 1].tobytes() for t in range(w - 1, n_slots)})
            for c in range(m_ch)
            if models[c] is not None
        )
        assert spy.call_count == distinct


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

    def test_csv_has_header_plus_row_lines(self, tmp_path):
        summary = run_scenario(small_config("decision-1", seed=13))
        text = summary_to_csv(summary)
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(summary.rows)
        assert lines[0].startswith("method,")

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
