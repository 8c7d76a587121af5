"""Outside-in span tracer for the crspectrum benchmark.

The simulator has no timers of its own, so the traced run replaces every
public function of the channel, predictors, fusion, recommender and
decision modules at the name `crspectrum.harness` binds it to, plus
`ScoreMatrix.window_records`, with a wrapper that records one span per
call. Nothing under `src/` is edited and every wrapper is put back when
the tracer closes.

A span is (name, start, end, parent span id). Spans live in flat arrays
while the run goes on; self times and per-name totals are computed from
them afterwards, so the per-call cost stays a few appends and two clock
reads. Small hooks read counts from a call's arguments before it runs
(forced and untrained lookups, score vectors) or from its result after it
returns (records in a window, BP epochs). Hooks run outside the span they
belong to, so their cost lands in the caller's self time.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import crspectrum.harness as harness
from crspectrum.recommender import ScoreMatrix

# module of a wrapped function -> layer name in the metric names
LAYERS = {
    "crspectrum.channel": "channel",
    "crspectrum.predictors": "predictors",
    "crspectrum.fusion": "fusion",
    "crspectrum.recommender": "recommender",
    "crspectrum.decision": "decision",
}


def _pre_select(counts, args):
    table, state, candidates = args[0], args[1], args[2]
    cands = list(set(candidates))
    counts["lookups"] += 1
    if len(cands) == 1:
        counts["forced"] += 1
    if cands and not table.values[state, cands].any():
        counts["untrained"] += 1


def _pre_random(counts, args):
    counts["lookups"] += 1
    if len(set(args[0])) == 1:
        counts["forced"] += 1


def _pre_score(counts, args):
    # the engine scores channels 0..M-1 in order, one vector at a time
    if args[1] == 0:
        counts["score_vectors"] += 1


def _post_window(counts, result):
    counts["records_scanned"] += len(result)


def _post_bp(counts, result):
    counts["bp_epochs"] += result.epochs_run


PRE_HOOKS = {
    "select_action": _pre_select,
    "random_access": _pre_random,
    "final_score": _pre_score,
    "final_score_located": _pre_score,
}
POST_HOOKS = {
    "window_records": _post_window,
    "bp_train": _post_bp,
}


def traced_targets():
    """(owner, attribute, span name) for every call the tracer wraps."""
    targets = []
    for attr, obj in sorted(vars(harness).items()):
        if inspect.isfunction(obj) and obj.__module__ in LAYERS:
            targets.append((harness, attr, f"{LAYERS[obj.__module__]}.{attr}"))
    targets.append((ScoreMatrix, "window_records", "recommender.window_records"))
    return targets


class Tracer:
    """Records spans while installed; `with Tracer() as tr:` installs it."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = Counter()
        self._stack = [-1]
        self._saved = []

    def _nid(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _wrap(self, fn, name, pre, post):
        nid = self._nid(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                pre(counts, args)
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if post is not None:
                post(counts, result)
            return result

        return traced

    def install(self):
        for owner, attr, name in traced_targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(
                original, name, PRE_HOOKS.get(attr), POST_HOOKS.get(attr)
            ))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (a scenario call, an export)."""
        sid = len(self.starts)
        self.name_ids.append(self._nid(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[sid] = time.perf_counter()
            self._stack.pop()

    def arrays(self):
        """Spans as numpy arrays: name id, parent id, start, end."""
        return (
            np.frombuffer(self.name_ids, dtype=np.uint16),
            np.frombuffer(self.parents, dtype=np.int32),
            np.frombuffer(self.starts, dtype=np.float64),
            np.frombuffer(self.ends, dtype=np.float64),
        )

    def totals(self):
        """Per span name: (calls, total duration, total self time)."""
        name, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        self_total = np.bincount(name, weights=self_time, minlength=n)
        return {
            nm: (int(calls[i]), float(total[i]), float(self_total[i]))
            for i, nm in enumerate(self.names)
        }

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(
            path, names=np.array(self.names), name=name, parent=parent,
            start=start, end=end,
        )
