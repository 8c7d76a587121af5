import json
import os
import subprocess
import sys

import pytest

import crspectrum
from crspectrum.cli import main

FAST_RECO = "scenario = recommendation\nn_slots = 200\nreps = 2\n"


def write_conf(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_success_writes_outputs(self, tmp_path, capsys):
        conf = write_conf(tmp_path, FAST_RECO)
        code = main(["--config", conf, "--out", str(tmp_path / "out")])
        assert code == 0
        printed = capsys.readouterr().out.strip().split("\n")
        assert len(printed) == 2  # json + csv by default
        payload = json.loads(open(printed[0], encoding="utf-8").read())
        assert payload["scenario"] == "recommendation"
        assert payload["config"]["n_slots"] == 200

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        conf = write_conf(tmp_path, FAST_RECO + "bogus = 1\n")
        assert main(["--config", conf, "--out", str(tmp_path / "out")]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_out_of_range_value_is_config_error(self, tmp_path):
        conf = write_conf(tmp_path, FAST_RECO + "alpha = 1.5\n")
        assert main(["--config", conf, "--out", str(tmp_path / "out")]) == 2

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.conf"
        path.write_bytes(FAST_RECO.encode("utf-8") + b"n_slots = 2\xff0\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert str(path) in capsys.readouterr().err

    def test_config_file_with_byte_order_mark_runs(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(b"\xef\xbb\xbf" + FAST_RECO.encode("utf-8"))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_missing_config_file_is_io_error(self, tmp_path):
        missing = str(tmp_path / "absent.conf")
        assert main(["--scenario", "fusion", "--config", missing]) == 3

    def test_unwritable_out_dir_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        conf = write_conf(tmp_path, FAST_RECO)
        code = main(["--config", conf, "--out", str(blocker / "sub")])
        assert code == 3

    def test_unknown_format_is_config_error(self, tmp_path, capsys):
        conf = write_conf(tmp_path, FAST_RECO)
        code = main(["--config", conf, "--format", "json,bmp"])
        assert code == 2
        assert "bmp" in capsys.readouterr().err

    def test_scenario_required_somewhere(self, tmp_path):
        conf = write_conf(tmp_path, "n_slots = 200\n")
        assert main(["--config", conf]) == 2

    def test_flag_file_scenario_conflict(self, tmp_path):
        conf = write_conf(tmp_path, FAST_RECO)
        assert main(["--scenario", "fusion", "--config", conf]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("scenario = fusion\nerror_rates = none\n", "error_rates"),
            ("scenario = fusion\nerror_rates = " + ",".join(["0.1"] * 21) + "\n",
             "1 to 20 error_rates"),
            ("scenario = fusion\nn_su = 7\n", "n_su = 7 but 3 error_rates"),
            ("scenario = fusion\nn_slots = 19\nwindow = 10\n", "n_slots // 2"),
            ("scenario = prediction\nn_slots = 29\n", "n_slots // 2 > 14"),
            ("scenario = prediction\nmean_holding = nan\n", "mean_holding"),
            ("scenario = decision-1\nholding_range = 1,inf\n", "holding_range"),
            ("scenario = decision-2\narena_side = nan\n", "arena_side"),
            # validate_config is the one guard: placement takes no radius
            ("scenario = decision-2\ncomm_radius = 0\n", "comm_radius"),
            ("scenario = decision-2\narena_side = 0\n", "arena_side"),
            # burst mode checks the longest hold of the K sweep against t
            ("scenario = decision-1\nburst_requests = true\nk_max = 10\n",
             "k_max (10) must not exceed t (3)"),
            # the benchmarks read one channel's trace
            ("scenario = prediction\nn_channels = 5\nholding_range = 1,10\n"
             "interarrival_range = 10,20\n",
             "prediction runs on one channel, got n_channels = 5"),
            ("scenario = fusion\nn_channels = 4\n",
             "fusion runs on one channel, got n_channels = 4"),
        ],
        ids=["fusion-no-rates", "fusion-21-rates", "fusion-n-su-not-rates",
             "fusion-short-horizon", "prediction-short-horizon", "nan-mean-holding",
             "inf-holding-range", "nan-arena-side", "zero-comm-radius",
             "zero-arena-side", "burst-k-max-above-t", "prediction-n-channels",
             "fusion-n-channels"],
    )
    def test_config_the_run_cannot_use_is_config_error(self, tmp_path, capsys, text, message):
        conf = write_conf(tmp_path, text)
        assert main(["--config", conf, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, key",
        [
            ("n_slots = 2.5", "n_slots"),
            ("alpha = x", "alpha"),
            ("burst_requests = maybe", "burst_requests"),
            ("holding_range = 1,x", "holding_range"),
        ],
        ids=["int", "float", "bool", "tuple"],
    )
    def test_unparseable_value_names_its_key(self, tmp_path, capsys, line, key):
        conf = write_conf(tmp_path, FAST_RECO + line + "\n")
        assert main(["--config", conf, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    def test_run_with_no_counted_access_writes_no_chart(self, tmp_path, capsys):
        # the warm-up covers every slot, so every rate in every series is null
        conf = write_conf(
            tmp_path,
            "scenario = decision-1\nn_slots = 200\nwarmup_slots = 200\nk_max = 4\n",
        )
        out = tmp_path / "out"
        code = main(
            ["--config", conf, "--reps", "1", "--out", str(out),
             "--format", "json,csv,svg"]
        )
        assert code == 0
        written = ["decision-1_seed0_summary.json", "decision-1_seed0_metrics.csv"]
        assert capsys.readouterr().out.split() == [str(out / n) for n in written]
        assert sorted(p.name for p in out.iterdir()) == sorted(written)

    @pytest.mark.parametrize(
        "text",
        [
            # Bernoulli requests never read t
            FAST_RECO + "k = 5\n",
            "scenario = decision-1\nn_slots = 200\nreps = 1\nburst_requests = true\n"
            "k_max = 4\nt = 4\n",
        ],
        ids=["bernoulli-k-above-t", "burst-k-max-equals-t"],
    )
    def test_k_above_t_matters_only_in_burst_mode(self, tmp_path, text):
        conf = write_conf(tmp_path, text)
        assert main(["--config", conf, "--out", str(tmp_path / "out")]) == 0

    def test_shortest_prediction_horizon_runs(self, tmp_path):
        conf = write_conf(tmp_path, "scenario = prediction\nn_slots = 30\nbp_epochs = 2\n")
        assert main(["--config", conf, "--out", str(tmp_path / "out")]) == 0

    def test_bad_choice_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["--scenario", "warp-drive"])
        assert exc.value.code == 2


class TestConfigPrecedence:
    def test_cli_seed_and_reps_override_file(self, tmp_path, capsys):
        conf = write_conf(tmp_path, FAST_RECO + "seed = 4\n")
        code = main(
            ["--config", conf, "--seed", "9", "--reps", "1",
             "--out", str(tmp_path / "out"), "--format", "json"]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("recommendation_seed9_summary.json")
        payload = json.loads(open(printed, encoding="utf-8").read())
        assert payload["config"]["seed"] == 9
        assert payload["config"]["reps"] == 1
        assert len(payload["seeds"]) == 1

    def test_flag_overrides_a_bad_file_value(self, tmp_path, capsys):
        # the merged config is validated, not the file alone
        conf = write_conf(tmp_path, FAST_RECO + "reps = 0\n")
        code = main(
            ["--config", conf, "--reps", "1",
             "--out", str(tmp_path / "out"), "--format", "json"]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        payload = json.loads(open(printed, encoding="utf-8").read())
        assert payload["config"]["reps"] == 1

    def test_scenario_token_maps_to_internal_name(self, tmp_path, capsys):
        code = main(
            ["--scenario", "decision1", "--seed", "2", "--reps", "1",
             "--out", str(tmp_path / "out"), "--format", "json"]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        payload = json.loads(open(printed, encoding="utf-8").read())
        assert payload["scenario"] == "decision-1"

    def test_negative_seed_rejected(self, tmp_path):
        conf = write_conf(tmp_path, FAST_RECO)
        assert main(["--config", conf, "--seed", "-5"]) == 2

    def test_verbose_adds_event_log(self, tmp_path, capsys):
        conf = write_conf(tmp_path, FAST_RECO + "reps = 1\n")
        code = main(
            ["--config", conf, "--out", str(tmp_path / "out"),
             "--format", "json", "--verbose"]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip().split("\n")
        assert any(p.endswith("events.jsonl") for p in printed)

    def test_verbose_writes_an_empty_log_when_nothing_resolves(
        self, tmp_path, capsys
    ):
        conf = write_conf(
            tmp_path,
            "scenario = decision-1\nn_slots = 200\nk_max = 4\nreps = 1\n"
            "request_prob = 0\n",
        )
        code = main(
            ["--config", conf, "--out", str(tmp_path / "out"),
             "--format", "json", "--verbose"]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip().split("\n")
        [log] = [p for p in printed if p.endswith("events.jsonl")]
        assert open(log, encoding="utf-8").read() == ""


class TestConsoleEntry:
    def test_module_invocation_round_trips(self, tmp_path):
        conf = write_conf(tmp_path, FAST_RECO)
        # the child imports the same package as this test, installed or not
        src = os.path.dirname(os.path.dirname(crspectrum.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "crspectrum.cli",
             "--config", conf, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("\n") == 2
