"""Pinned prediction and fusion outcomes on reduced configs.

tests/data/offline_rows.json holds every row of each fusion config below
(method, seed, p_d, p_fa, accuracy, n_evaluated) and the elm and hmm rows
of each prediction config (method, seed, tp, tn, fp, fn, accuracy) at
master seeds 0-2. BP rows are left out: the last digits of its mse depend
on the BLAS thread count. A change to the traces, the local predictions,
the fusion rules or the ELM and HMM predictors that alters any call moves
at least one of them; a change meant to keep outputs byte-identical must
leave them all in place.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from crspectrum.config import default_config
from crspectrum.harness import run_scenario

GOLDEN = json.loads((Path(__file__).parent / "data" / "offline_rows.json").read_text())

REDUCED = {
    "fusion": ("fusion", dict(n_slots=2000, reps=2)),
    "fusion-5-users": (
        "fusion",
        dict(n_su=5, n_slots=1500, reps=1, window=6,
             error_rates=(0.05, 0.1, 0.2, 0.3, 0.45)),
    ),
    "prediction": ("prediction", dict(n_slots=2000, reps=2, bp_epochs=3)),
}


def _row(scenario, r):
    if scenario == "fusion":
        keys = ("method", "seed", "p_d", "p_fa", "accuracy", "n_evaluated")
    else:
        keys = ("method", "seed", "tp", "tn", "fp", "fn", "accuracy")
    return [r[k] for k in keys]


def recorded_rows(name, seed):
    scenario, overrides = REDUCED[name]
    cfg = replace(default_config(scenario), seed=seed, **overrides)
    return [
        _row(scenario, r)
        for r in run_scenario(cfg).rows
        if scenario == "fusion" or r["method"] in ("elm", "hmm")
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(REDUCED))
def test_rows_match_recorded_outcomes(name, seed):
    assert recorded_rows(name, seed) == GOLDEN[f"{name}/{seed}"]
