"""crspectrum benchmark: output-checked wall time of the paper scenarios.

    python3 crbench/run.py --workload access-located --seed 3 --seconds 40 --trace 0
    python3 crbench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the repository root. Each workload is a closed loop with one
client: it calls `run_scenario` on the default configs of its scenarios
with master seed = --seed, one call after another, and repeats that pass
while --seconds allow. Every call's output is checked and digested. With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it makes
one untraced pass and then traced passes, and reports per-layer metrics
from the spans. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A run record (provenance,
per-pass times, digests) and, when traced, the spans go to crbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters, and the value both are pinned to: freed arrays
# stay in the heap instead of going back to the kernel and faulting in again
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_PIN_BYTES = 1 << 30

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "crbench" / "out"

RUN_SECONDS = 40
SETUP_RUNS = 9
# a seed kept out of tuning, for confirming a claimed gain
HOLDOUT_SEED = 20170309

WORKLOADS = {
    "access-located": {
        "scenarios": ("decision-2",),
        "why": "decision-2 at defaults: slot engine plus distance-weighted "
               "scoring once per requester; the recommender path that "
               "access-shared bypasses",
    },
    "access-shared": {
        "scenarios": ("decision-1", "recommendation"),
        "why": "decision-1 then recommendation at defaults: same engine, scores "
               "once per slot, adds the cf listing; located-only gains should "
               "not move it",
    },
    "offline-learners": {
        "scenarios": ("prediction", "fusion"),
        "why": "prediction then fusion at defaults: BP, ELM, HMM and fusion "
               "training loops; the slot engine never runs, so engine gains "
               "should not move it",
    },
}

# name, unit, better, bound
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

# name, unit, better; one entry per per-layer metric printed with --trace 1
PER_LAYER = (
    ("channel.self_s", "s", "lower"),
    ("channel.trace_s", "s", "lower"),
    ("channel.trace_calls", "count", "lower"),
    ("channel.placement_s", "s", "lower"),
    ("predictors.self_s", "s", "lower"),
    ("predictors.bp_train_s", "s", "lower"),
    ("predictors.bp_epochs", "count", "lower"),
    ("predictors.elm_train_s", "s", "lower"),
    ("predictors.elm_train_calls", "count", "lower"),
    ("predictors.hmm_predict_s", "s", "lower"),
    ("predictors.hmm_predict_calls", "count", "lower"),
    ("predictors.elm_predict_s", "s", "lower"),
    ("predictors.elm_predict_calls", "count", "lower"),
    ("predictors.batch_predict_s", "s", "lower"),
    ("fusion.self_s", "s", "lower"),
    ("fusion.train_s", "s", "lower"),
    ("fusion.vote_s", "s", "lower"),
    ("fusion.vote_calls", "count", "lower"),
    ("fusion.soft_s", "s", "lower"),
    ("fusion.soft_calls", "count", "lower"),
    ("recommender.self_s", "s", "lower"),
    ("recommender.score_s", "s", "lower"),
    ("recommender.score_calls", "count", "lower"),
    ("recommender.window_s", "s", "lower"),
    ("recommender.records_scanned", "count", "lower"),
    ("recommender.threshold_s", "s", "lower"),
    ("recommender.score_vectors", "count", "lower"),
    ("recommender.useful_frac", "ratio", "higher"),
    ("decision.self_s", "s", "lower"),
    ("decision.select_s", "s", "lower"),
    ("decision.select_calls", "count", "lower"),
    ("decision.random_s", "s", "lower"),
    ("decision.random_calls", "count", "lower"),
    ("decision.update_s", "s", "lower"),
    ("decision.q_updates", "count", "lower"),
    ("decision.lookups", "count", "lower"),
    ("decision.forced_frac", "ratio", "lower"),
    ("decision.untrained_frac", "ratio", "lower"),
    ("harness.engine_self_s", "s", "lower"),
    ("harness.grants", "count", "higher"),
    ("harness.prediction_s", "s", "lower"),
    ("harness.fusion_s", "s", "lower"),
    ("harness.recommendation_s", "s", "lower"),
    ("harness.decision-1_s", "s", "lower"),
    ("harness.decision-2_s", "s", "lower"),
    ("harness.export_s", "s", "lower"),
    ("harness.export_bytes", "bytes", "lower"),
    ("harness.spans", "count", "lower"),
    ("harness.traced_wall_s", "s", "lower"),
    ("harness.untraced_wall_s", "s", "lower"),
    ("harness.trace_overhead_s", "s", "lower"),
)

# per-layer metrics that must repeat exactly at a fixed seed
COUNT_METRICS = tuple(
    name for name, unit, _ in PER_LAYER if unit in ("count", "ratio", "bytes")
)
LAYER_NAMES = ("channel", "predictors", "fusion", "recommender", "decision")
ALL_SCENARIOS = ("prediction", "fusion", "recommendation", "decision-1", "decision-2")

SETUP_CODE = """\
import sys
from crspectrum import default_config, validate_config
for name in sys.argv[2:]:
    cfg = default_config(name)
    cfg.seed = int(sys.argv[1])
    validate_config(cfg)
import time
print(repr(time.monotonic()))
"""


def spec() -> dict:
    """The BENCHMARK.json document, built from the tables above."""
    return {
        "command": ["python3", "crbench/run.py"],
        "paths": ["crbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def spec_text() -> str:
    return json.dumps(spec(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# output checks


RATE_KEYS = ("p_d", "p_fa", "accuracy", "p_collision", "d_e", "errors_near_transition")


def expected_cells(cfg) -> set:
    """(method, K, repetition) of every row a scenario must produce."""
    if cfg.scenario == "prediction":
        methods, ks = ("elm", "bp", "hmm"), (None,)
    elif cfg.scenario == "fusion":
        n = len(cfg.error_rates)
        methods = (
            ["q_fusion", "soft", "hmm"]
            + [f"vote_m{m}" for m in range(1, n + 1)]
            + [f"local_{i}" for i in range(n)]
        )
        ks = (None,)
    elif cfg.scenario == "recommendation":
        methods, ks = ("cf", "random"), (cfg.k,)
    else:
        methods, ks = ("q", "mdp", "random"), range(cfg.k_min, cfg.k_max + 1)
    return {(m, k, rep) for m in methods for k in ks for rep in range(cfg.reps)}


def _bad_rate(value) -> bool:
    return value is not None and not (math.isfinite(value) and 0.0 <= value <= 1.0)


def check_summary(cfg, summary) -> list:
    """Identities every scenario output must satisfy; returns the breaches."""
    problems = []
    expected = expected_cells(cfg)
    cells = [(r["method"], r.get("k"), r["seed"]) for r in summary.rows]
    if len(cells) != len(expected) or set(cells) != expected:
        problems.append(
            f"{cfg.scenario}: {len(cells)} rows, expected methods x K x reps = {len(expected)}"
        )
    for r in summary.rows:
        where = f"{cfg.scenario} row {r['method']}/{r.get('k')}/{r['seed']}"
        if "n_total" in r and r["n_total"] != r["n_collision"] + r["d_success"]:
            problems.append(f"{where}: n_total != n_collision + d_success")
        p, d = r.get("p_collision"), r.get("d_e")
        if p is not None and d is not None and abs(p + d - 1.0) > 1e-9:
            problems.append(f"{where}: p_collision + d_e = {p + d!r}")
        for key in RATE_KEYS:
            if _bad_rate(r.get(key)):
                problems.append(f"{where}: {key} = {r[key]!r} outside [0, 1]")
    for key, value in summary.aggregates.items():
        if any(key.startswith(f"mean_{rate}_") for rate in RATE_KEYS) and _bad_rate(value):
            problems.append(f"{cfg.scenario} aggregate {key} = {value!r} outside [0, 1]")
    return problems


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# one pass over a workload's scenario calls


def run_pass(configs, out_dir: Path, tracer=None, probe=None) -> dict:
    """Call run_scenario on each config in turn; check, digest and emit each.

    Only the run_scenario calls are timed. With a tracer, each call is a
    root span named harness.<scenario> and each export a harness.export span.
    With a speed probe, "windows" holds the marks of the probe samples
    taken inside each call.
    """
    from contextlib import nullcontext

    from crspectrum import emit_outputs, run_scenario, summary_to_csv, summary_to_json

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    def mark():
        return probe.mark() if probe is not None else 0

    times, windows, digests, failures, export_bytes = {}, {}, {}, {}, 0
    for cfg in configs:
        name = cfg.scenario
        try:
            with span(f"harness.{name}"):
                first = mark()
                t0 = time.perf_counter()
                summary = run_scenario(cfg)
                times[name] = time.perf_counter() - t0
                windows[name] = (first, mark())
            problems = check_summary(cfg, summary)
            json_text, csv_text = summary_to_json(summary), summary_to_csv(summary)
            digests[name] = {"json": sha256(json_text), "csv": sha256(csv_text)}
            with span("harness.export"):
                written = emit_outputs(summary, ("json", "csv", "svg"), str(out_dir))
            for path in written:
                data = Path(path).read_text(encoding="utf-8")
                export_bytes += len(data.encode("utf-8"))
                if path.endswith("_summary.json") and data != json_text:
                    problems.append(f"{name}: emitted JSON differs from summary_to_json")
                if path.endswith("_metrics.csv") and data != csv_text:
                    problems.append(f"{name}: emitted CSV differs from summary_to_csv")
        except Exception:  # a failed call is counted, and the loop goes on
            problems = [traceback.format_exc()]
        if problems:
            failures[name] = problems
    return {
        "wall_s": sum(times.values()),
        "times": times,
        "windows": windows,
        "digests": digests,
        "failures": failures,
        "export_bytes": export_bytes,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass


def layer_metrics(tracer, untraced_wall: float, export_bytes: int) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def dur_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    roots = [f"harness.{s}" for s in ALL_SCENARIOS]
    traced_wall = dur_s(*roots)
    grants = calls("recommender.score_access")
    m = {
        f"{layer}.self_s": self_s(*[n for n in totals if n.startswith(f"{layer}.")])
        for layer in LAYER_NAMES
    }
    m.update({
        "channel.trace_s": self_s("channel.generate_trace", "channel.generate_multi"),
        "channel.trace_calls": calls("channel.generate_trace", "channel.generate_multi"),
        "channel.placement_s": self_s("channel.place_users", "channel.neighbors"),
        "predictors.bp_train_s": self_s("predictors.bp_train"),
        "predictors.bp_epochs": counts["bp_epochs"],
        "predictors.elm_train_s": self_s("predictors.elm_train"),
        "predictors.elm_train_calls": calls("predictors.elm_train"),
        "predictors.hmm_predict_s": self_s("predictors.hmm_predict"),
        "predictors.hmm_predict_calls": calls("predictors.hmm_predict"),
        "predictors.elm_predict_s": self_s("predictors.elm_predict"),
        "predictors.elm_predict_calls": calls("predictors.elm_predict"),
        "predictors.batch_predict_s": self_s(
            "predictors.elm_predict_many", "predictors.bp_predict_many"
        ),
        "fusion.train_s": self_s("fusion.train_fusion"),
        "fusion.vote_s": self_s("fusion.m_out_of_n"),
        "fusion.vote_calls": calls("fusion.m_out_of_n"),
        "fusion.soft_s": self_s("fusion.soft_fuse"),
        "fusion.soft_calls": calls("fusion.soft_fuse"),
        "recommender.score_s": self_s(
            "recommender.final_score", "recommender.final_score_located"
        ),
        "recommender.score_calls": calls(
            "recommender.final_score", "recommender.final_score_located"
        ),
        "recommender.window_s": self_s("recommender.window_records"),
        "recommender.records_scanned": counts["records_scanned"],
        "recommender.threshold_s": self_s("recommender.default_threshold"),
        "recommender.score_vectors": counts["score_vectors"],
        "recommender.useful_frac": ratio(grants, counts["score_vectors"]),
        "decision.select_s": self_s("decision.select_action"),
        "decision.select_calls": calls("decision.select_action"),
        "decision.random_s": self_s("decision.random_access"),
        "decision.random_calls": calls("decision.random_access"),
        "decision.update_s": self_s("decision.q_update", "decision.reward"),
        "decision.q_updates": calls("decision.q_update"),
        "decision.lookups": counts["lookups"],
        "decision.forced_frac": ratio(counts["forced"], counts["lookups"]),
        "decision.untrained_frac": ratio(
            counts["untrained"], calls("decision.select_action")
        ),
        "harness.engine_self_s": self_s(*roots),
        "harness.grants": grants,
        "harness.export_s": dur_s("harness.export"),
        "harness.export_bytes": export_bytes,
        "harness.spans": len(tracer.starts),
        "harness.traced_wall_s": traced_wall,
        "harness.untraced_wall_s": untraced_wall,
        "harness.trace_overhead_s": traced_wall - untraced_wall,
    })
    for s in ALL_SCENARIOS:
        m[f"harness.{s}_s"] = dur_s(f"harness.{s}")
    return m


def self_time_gap(m: dict) -> float:
    """Traced wall minus (layer self times + engine self time); ~0 by construction."""
    parts = sum(m[f"{layer}.self_s"] for layer in LAYER_NAMES) + m["harness.engine_self_s"]
    return m["harness.traced_wall_s"] - parts


# ---------------------------------------------------------------------------
# provenance and set-up time


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "crspectrum").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def pin_allocator() -> bool:
    """Keep freed memory in the heap (glibc only); True if both pins took.

    BP training frees and reallocates multi-megabyte arrays every epoch.
    With glibc's default thresholds each epoch hands them back to the kernel
    and faults them in again: about 0.8M minor faults and over a second of
    system time per `prediction` call on a 2-vCPU KVM guest, varying with
    the host's memory state far more than the computation does.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(
        mallopt(param, MALLOC_PIN_BYTES) == 1
        for param in (M_TRIM_THRESHOLD, M_MMAP_THRESHOLD)
    )


def provenance(seed: int, malloc_pinned: bool) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "malloc_pinned": malloc_pinned,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }


def time_setup(scenarios, seed: int) -> float:
    """Wall time of a fresh interpreter that imports crspectrum and builds
    and validates the workload's configs, up to where run_scenario would run.

    The child prints its monotonic clock (system-wide on Linux) when done,
    so neither its exit nor the parent's polling for it is counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, str(seed), *scenarios]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True
    )
    return float(proc.stdout.split()[-1]) - t0


def warmup_configs(configs) -> list:
    """Reduced copies of the configs: one repetition, one K, short traces.

    One call on each runs before the timed passes, because the first
    run_scenario call in a process can run 10-30% slower than later calls
    on the same inputs.
    """
    from dataclasses import replace

    return [
        replace(cfg, reps=1, k_max=cfg.k_min, n_slots=min(cfg.n_slots, 2000),
                bp_epochs=min(cfg.bp_epochs, 10))
        for cfg in configs
    ]


def workload_configs(workload: str, seed: int) -> list:
    from crspectrum import default_config, validate_config

    configs = []
    for name in WORKLOADS[workload]["scenarios"]:
        cfg = default_config(name)
        cfg.seed = seed
        validate_config(cfg)
        configs.append(cfg)
    return configs


# ---------------------------------------------------------------------------
# a whole run


def rescale_passes(passes, probe) -> None:
    """Replace each pass's wall_s by its time at the probe's reference speed."""
    from speedprobe import rescale

    for p in passes:
        p["raw_wall_s"] = p["wall_s"]
        p["wall_s"] = sum(
            rescale(seconds, probe.samples[slice(*p["windows"][name])])
            for name, seconds in p["times"].items()
        )


def measure(workload: str, seed: int, seconds: float, trace: bool, configs=None,
            malloc_pinned: bool = False) -> dict:
    """One benchmark run; returns the result line plus the run record.

    An untraced run samples the host's speed throughout (speedprobe.py) and
    reports each pass rescaled to the probe's reference speed. A traced run
    does not probe, so no probe time lands in a span.
    """
    import gc
    from contextlib import nullcontext

    from speedprobe import INTERVAL_S, REFERENCE_S, SpeedProbe
    from tracer import Tracer

    scenarios = WORKLOADS[workload]["scenarios"]
    configs = configs or workload_configs(workload, seed)
    emit_dir = OUT / "emit" / workload
    setup = [] if trace else [time_setup(scenarios, seed) for _ in range(SETUP_RUNS)]

    probe = None if trace else SpeedProbe()
    with probe if probe is not None else nullcontext():
        warmup = run_pass(warmup_configs(configs), emit_dir, probe=probe)
        passes, layer_runs, spans = [], [], None
        longest = 0.0
        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()
            t0 = time.perf_counter()
            traced = trace and bool(passes)  # the first pass of a traced run is untraced
            if traced:
                with Tracer() as tracer:
                    p = run_pass(configs, emit_dir, tracer)
                layer_runs.append(
                    layer_metrics(tracer, passes[0]["wall_s"], p["export_bytes"])
                )
                spans = spans or tracer
            else:
                p = run_pass(configs, emit_dir, probe=probe)
            p["traced"] = traced
            passes.append(p)
            longest = max(longest, time.perf_counter() - t0)
            if (not trace or layer_runs) and time.perf_counter() + longest > deadline:
                break
    if probe is not None:
        rescale_passes(passes, probe)

    # a call fails if it raised, broke an identity, or its digest moved between passes
    attempted, failed = len(configs), len(warmup["failures"])
    notes = [note for problems in warmup["failures"].values() for note in problems]
    for p in passes:
        for cfg in configs:
            attempted += 1
            name = cfg.scenario
            if name in p["failures"]:
                failed += 1
                notes.extend(p["failures"][name])
            elif p["digests"][name] != passes[0]["digests"].get(name):
                failed += 1
                notes.append(f"{name}: output digest differs from the first pass")
    correct = failed == 0

    if trace:
        # the traced pass of median wall time, so its self times still add up
        by_wall = sorted(layer_runs, key=lambda run: run["harness.traced_wall_s"])
        metrics = {name: by_wall[(len(by_wall) - 1) // 2][name] for name, _, _ in PER_LAYER}
        for name in COUNT_METRICS:
            values = {run[name] for run in layer_runs}
            if len(values) > 1:
                correct = False
                notes.append(f"count {name} differs between traced passes: {sorted(values)}")
        for run in layer_runs:
            gap = self_time_gap(run)
            if abs(gap) > 1e-6 * max(1.0, run["harness.traced_wall_s"]):
                correct = False
                notes.append(f"self times miss the traced wall time by {gap!r} s")
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed, malloc_pinned),
        "setup_s_runs": setup,
        "warmup_s": warmup["wall_s"],
        "probe": None if probe is None else {
            "interval_s": INTERVAL_S,
            "reference_s": REFERENCE_S,
            "samples": len(probe.samples),
            "fastest_s": min(probe.samples, default=None),
            "median_s": statistics.median(probe.samples) if probe.samples else None,
        },
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "raw_wall_s", "times", "digests",
                                "export_bytes") if k in p}
            for p in passes
        ],
        "digests": passes[0]["digests"],
        "notes": notes,
        "result": line,
    }
    if trace:
        record["layer_runs"] = layer_runs
    return {"line": line, "record": record, "spans": spans}


def report(workload: str, seed: int, trace: bool, out: dict) -> None:
    line, record = out["line"], out["record"]
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}_seed{seed}_trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if out["spans"] is not None:
        # one spans file per workload: the latest traced run overwrites it
        out["spans"].save(str(OUT / f"{workload}_spans.npz"))
    for key, value in record["provenance"].items():
        print(f"provenance {key} = {value}")
    for i, p in enumerate(record["passes"]):
        kind = "traced" if p["traced"] else "untraced"
        rescaled = f", rescaled {p['wall_s']:.3f} s" if "raw_wall_s" in p else ""
        print(f"pass {i} ({kind}): run_scenario {p.get('raw_wall_s', p['wall_s']):.3f} s"
              f"{rescaled}")
    for name, d in record["digests"].items():
        print(f"digest {name} json={d['json']} csv={d['csv']}")
    for note in record["notes"]:
        print(f"FAILURE {note}")
    print(
        f"fail_frac = {line['failed']}/{line['attempted']} = "
        f"{line['failed'] / line['attempted']} ratio"
    )
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the tables in this file")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec_text())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        parser.error("--seed must be an unsigned 64-bit integer and --seconds >= 1")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads; children inherit it
    malloc_pinned = pin_allocator()
    if not (SRC / "crspectrum" / "__init__.py").is_file():
        print(f"crbench: no crspectrum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crspectrum

    if Path(crspectrum.__file__).resolve().parent != SRC / "crspectrum":
        print(f"crbench: imported crspectrum from {crspectrum.__file__}", file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  malloc_pinned=malloc_pinned)
    report(args.workload, args.seed, bool(args.trace), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
