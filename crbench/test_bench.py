"""Self-tests of the benchmark, on configs far smaller than the workloads'.

    python3 -m pytest -q crbench/test_bench.py
"""

import hashlib
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from speedprobe import REFERENCE_S, SpeedProbe, rescale  # noqa: E402
from tracer import Tracer, traced_targets  # noqa: E402

import crspectrum.harness as harness  # noqa: E402
from crspectrum import default_config, run_scenario, validate_config  # noqa: E402
from crspectrum.cli import main as simulate  # noqa: E402
from crspectrum.recommender import ScoreMatrix  # noqa: E402

SMALL = {
    "prediction": dict(n_slots=600, bp_epochs=5, reps=1),
    "fusion": dict(n_slots=600, reps=1),
    "recommendation": dict(n_slots=300, reps=2),
    "decision-1": dict(n_slots=300, k_max=4, reps=1, warmup_slots=50),
    "decision-2": dict(n_slots=300, k_max=4, reps=1, warmup_slots=50),
}
SEED = 5


def small_config(name, seed=SEED):
    cfg = default_config(name)
    cfg.seed = seed
    for key, value in SMALL[name].items():
        setattr(cfg, key, value)
    validate_config(cfg)
    return cfg


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and two traced passes over every scenario."""
    out = tmp_path_factory.mktemp("emit")
    configs = [small_config(name) for name in SMALL]
    plain = run.run_pass(configs, out)
    traced = []
    for _ in range(2):
        with Tracer() as tracer:
            p = run.run_pass(configs, out, tracer)
        traced.append((p, run.layer_metrics(tracer, plain["wall_s"], p["export_bytes"])))
    return plain, traced


def test_spec_file_is_generated_from_the_tables():
    assert (ROOT / "BENCHMARK.json").read_text() == run.spec_text()


def test_traced_and_untraced_passes_give_identical_digests(passes):
    plain, traced = passes
    assert plain["failures"] == {}
    assert set(plain["digests"]) == set(SMALL)
    for p, _ in traced:
        assert p["failures"] == {}
        assert p["digests"] == plain["digests"]


def test_counts_repeat_exactly(passes):
    _, traced = passes
    (_, first), (_, second) = traced
    for name in run.COUNT_METRICS:
        assert first[name] == second[name], name
    assert first["harness.grants"] > 0
    assert first["recommender.score_vectors"] > 0
    assert first["predictors.bp_epochs"] > 0


def test_self_times_add_up_to_traced_wall(passes):
    _, traced = passes
    for _, m in traced:
        assert abs(run.self_time_gap(m)) < 1e-6
        for name in ("channel", "predictors", "fusion", "recommender", "decision"):
            assert m[f"{name}.self_s"] > 0, name


def test_wrappers_are_restored_even_after_an_error():
    targets = traced_targets()
    wrapped = {attr for _, attr, _ in targets}
    assert {"select_action", "final_score_located", "bp_train", "window_records"} <= wrapped
    before = [vars(owner)[attr] for owner, attr, _ in targets]
    with pytest.raises(RuntimeError):
        with Tracer():
            during = [vars(owner)[attr] for owner, attr, _ in targets]
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("stop")
    after = [vars(owner)[attr] for owner, attr, _ in targets]
    assert all(a is b for a, b in zip(before, after))
    assert harness.select_action.__module__ == "crspectrum.decision"
    assert vars(ScoreMatrix)["window_records"].__qualname__ == "ScoreMatrix.window_records"


def test_rescale_weights_each_sample_by_its_share_of_full_speed():
    # the probe's own time comes off; half speed for one sample, full for the other
    ref = REFERENCE_S
    assert rescale(10.0, [2 * ref, ref]) == pytest.approx((10.0 - 3 * ref) * 0.75)
    assert rescale(5.0, []) == 5.0


def test_speed_probe_changes_no_output_and_restores_the_timer(tmp_path):
    cfg = small_config("decision-1")
    plain = run.run_pass([cfg], tmp_path)
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        probed = run.run_pass([cfg], tmp_path, probe=probe)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probed["failures"] == {} and probed["digests"] == plain["digests"]
    first, last = probed["windows"]["decision-1"]
    assert last > first
    seconds = probed["times"]["decision-1"]
    assert rescale(seconds, probe.samples[first:last]) > 0


def test_printed_metric_names_are_in_the_spec(capsys):
    doc = spec()
    configs = [small_config("recommendation")]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        out = run.measure("access-shared", SEED, 1, trace, configs=configs)
        run.report("access-shared", SEED, trace, out)
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in doc[key]}
        for m in doc[key]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_output_check_catches_broken_identities():
    cfg = small_config("recommendation")
    summary = run_scenario(cfg)
    assert run.check_summary(cfg, summary) == []
    row = summary.rows[0]
    row["n_total"] += 1
    row["d_e"] = 1.5
    summary.rows.pop()
    problems = run.check_summary(cfg, summary)
    assert any("expected methods x K x reps" in p for p in problems)
    assert any("n_total != n_collision + d_success" in p for p in problems)
    assert any("d_e = 1.5 outside" in p for p in problems)
    assert any("p_collision + d_e" in p for p in problems)


def test_digests_match_simulate_output(tmp_path):
    cfg = small_config("decision-2")
    conf = tmp_path / "small.conf"
    conf.write_text(
        "scenario = decision-2\n"
        + "".join(f"{k} = {v}\n" for k, v in SMALL["decision-2"].items())
    )
    out = tmp_path / "sim"
    args = ["--config", str(conf), "--seed", str(SEED), "--format", "json,csv", "--out", str(out)]
    assert simulate(args) == 0
    digests = run.run_pass([cfg], tmp_path / "emit")["digests"]["decision-2"]
    base = out / f"decision-2_seed{SEED}"
    for kind, suffix in (("json", "_summary.json"), ("csv", "_metrics.csv")):
        data = Path(str(base) + suffix).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digests[kind]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "crbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "crbench")
    cmd = [sys.executable, "crbench/run.py", "--workload", "offline-learners",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
