"""Pinned access-engine outcomes on reduced configs.

tests/data/engine_rows.json holds (method, K, rep, n_total, n_collision,
d_success) for every row of each config below at master seeds 0-2. A
change to the request, arbitration, scoring, advisory-bit or learning
paths that alters any access moves at least one of them; a change meant
to keep outputs byte-identical must leave them all in place.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from crspectrum.config import default_config
from crspectrum.harness import run_scenario

GOLDEN = json.loads((Path(__file__).parent / "data" / "engine_rows.json").read_text())

REDUCED = {
    "recommendation": ("recommendation", dict(n_slots=300, reps=2)),
    "decision-1": ("decision-1", dict(n_slots=300, k_max=5, reps=1, warmup_slots=60)),
    "decision-2": ("decision-2", dict(n_slots=300, k_max=5, reps=1, warmup_slots=60)),
    "decision-1-burst": (
        "decision-1",
        dict(n_su=6, n_slots=300, k_max=4, t=4, reps=1, warmup_slots=60,
             burst_requests=True),
    ),
    # every idle user requests every slot: long arbitration orders
    "decision-2-always": (
        "decision-2",
        dict(n_slots=300, k_max=5, reps=1, warmup_slots=60, request_prob=1.0),
    ),
    # a 2^14-code state space: mdp keeps statistics for visited states only
    "decision-1-14-channels": (
        "decision-1", dict(n_channels=14, n_slots=300, k_max=5, reps=1, warmup_slots=60)
    ),
    # mostly one requester per slot: arbitration and random access with a
    # single entry
    "decision-1-two-su": (
        "decision-1", dict(n_su=2, n_slots=300, k_max=5, reps=1, warmup_slots=60)
    ),
    # a 200-slot score window: many records per channel in each located
    # score
    "decision-2-wide-window": (
        "decision-2",
        dict(n_slots=300, k_max=5, reps=1, warmup_slots=60, score_window=200),
    ),
    # the defaults' longest holds, K = 8..10: many holds end on a PU
    # return before K
    "decision-1-long-holds": (
        "decision-1", dict(n_slots=300, k_min=8, k_max=10, reps=1, warmup_slots=60)
    ),
    "decision-2-long-holds": (
        "decision-2", dict(n_slots=300, k_min=8, k_max=10, reps=1, warmup_slots=60)
    ),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(REDUCED))
def test_rows_match_recorded_outcomes(name, seed):
    scenario, overrides = REDUCED[name]
    cfg = replace(default_config(scenario), seed=seed, **overrides)
    rows = [
        [r["method"], r["k"], r["seed"], r["n_total"], r["n_collision"], r["d_success"]]
        for r in run_scenario(cfg).rows
    ]
    assert rows == GOLDEN[f"{name}/{seed}"]
