"""Tests for the command-line entry point."""

import json

import pytest

from repro.cli import EXAMPLES, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXAMPLES:
            assert name in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ICDCS 2019" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "teleportation"]) == 2
        assert "unknown example" in capsys.readouterr().err

    def test_run_quickstart(self, capsys):
        assert main(["run", "quickstart"]) == 0
        out = capsys.readouterr().out
        assert "communication cost" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_all_examples_exist(self):
        from repro.cli import _examples_dir

        examples = _examples_dir()
        assert examples is not None
        for __, (filename, __d) in EXAMPLES.items():
            assert (examples / filename).exists(), filename


class TestTrainCli:
    def test_train_local_vectorized(self, capsys):
        assert main(["train", "--epochs", "2", "--samples", "24",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "mode=local impl=vectorized" in out
        assert "epoch   2" in out
        assert "final:" in out

    def test_train_exact_mode(self, capsys):
        assert main(["train", "--mode", "exact", "--epochs", "1",
                     "--samples", "16"]) == 0
        assert "mode=exact" in capsys.readouterr().out

    def test_impl_flag_is_gone(self, capsys):
        """The backward implementation is not a user switch: the
        vectorized path always trains, and ``--impl`` is a usage
        error."""
        with pytest.raises(SystemExit) as exc:
            main(["train", "--impl", "reference", "--epochs", "1",
                  "--samples", "16"])
        assert exc.value.code == 2
        assert "--impl" in capsys.readouterr().err

    def test_train_trace_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "train.jsonl"
        assert main(["train", "--epochs", "1", "--samples", "16",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "train.step spans" in out
        assert trace.is_file()
        lines = trace.read_text().strip().splitlines()
        assert any("train.step" in line for line in lines)
        assert any("exec.backward" in line for line in lines)

    def test_train_rejects_nonpositive_samples(self, capsys):
        assert main(["train", "--samples", "0"]) == 2
        assert "--samples" in capsys.readouterr().err


class TestSweepCli:
    def test_list(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "chaos" in out and "rng" in out

    def test_requires_task(self, capsys):
        assert main(["sweep"]) == 2
        assert "task name is required" in capsys.readouterr().err

    def test_unknown_task(self, capsys):
        assert main(["sweep", "teleportation"]) == 2
        assert "unknown sweep task" in capsys.readouterr().err

    def test_bad_grid_entry(self, capsys):
        assert main(["sweep", "rng", "--grid", "nonsense"]) == 2
        assert "not of the form" in capsys.readouterr().err

    def test_parse_seeds_mixed_forms(self):
        from repro.cli import _parse_seeds

        assert _parse_seeds("0,3,7") == [0, 3, 7]
        assert _parse_seeds("0-4") == [0, 1, 2, 3, 4]
        assert _parse_seeds("9, 1-3") == [9, 1, 2, 3]
        with pytest.raises(ValueError):
            _parse_seeds(",")

    def test_parse_scalar_casts(self):
        from repro.cli import _parse_scalar

        assert _parse_scalar("3") == 3 and isinstance(_parse_scalar("3"), int)
        assert _parse_scalar("0.5") == 0.5
        assert _parse_scalar("true") is True
        assert _parse_scalar("name") == "name"

    def test_reports_identical_modulo_wall(self, tmp_path, capsys):
        """The acceptance pin: two runs of the same ``repro sweep``
        write identical JSON reports modulo wall-time fields."""
        from repro.par import strip_wall_fields

        out1 = tmp_path / "sweep1.json"
        out2 = tmp_path / "sweep2.json"
        base = ["sweep", "rng", "--seeds", "0-2", "--grid", "k=1,2"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        capsys.readouterr()  # drain the tables
        doc1 = json.loads(out1.read_text())
        doc2 = json.loads(out2.read_text())
        assert list(doc1["wall"]) == ["elapsed_s"]
        assert strip_wall_fields(doc1) == strip_wall_fields(doc2)

    @pytest.mark.parametrize("argv", [
        ["sweep", "chaos", "--seeds", "-1"],
        ["sweep", "chaos", "--seeds", "2,-1-3"],
        ["sweep", "rng", "--root-seed", "-1"],
        ["sweep", "rng", "--set", "k=1,2"],
    ])
    def test_bad_argument_is_usage_error_naming_it(self, argv, capsys):
        """Rejected before any point runs (``chaos`` would first train
        its demo scenario), with the offending flag in the message."""
        assert main(argv) == 2
        assert argv[2] in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "max_retries=2.5",
        "n_crashes=1.9",
        "los_rate=0.5",
        "max_retries=true",
        "chunks=2.5",
        "n_samples=80.5",
        "horizon=inf",
    ])
    def test_bad_chaos_config_is_usage_error_naming_the_key(
        self, setting, capsys
    ):
        """A chaos config the task cannot run as written is one stderr
        line naming the key and exit 2, not a truncated run or a
        traceback."""
        assert main(["sweep", "chaos", "--seeds", "0",
                     "--set", setting]) == 2
        err = capsys.readouterr().err
        assert setting.partition("=")[0] in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["bench", "--jobs", "2"],
        ["sweep", "rng", "--jobs", "2"],
    ])
    def test_jobs_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


class TestServeCli:
    def test_unknown_scenario_is_usage_error(self, capsys):
        assert main(["serve", "--tenants", "teleportation"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_empty_tenants_is_usage_error(self, capsys):
        assert main(["serve", "--tenants", " , "]) == 2
        assert "at least one tenant" in capsys.readouterr().err

    def test_bad_policy_is_usage_error(self, capsys):
        assert main(["serve", "--max-batch", "0"]) == 2
        assert "max_batch" in capsys.readouterr().err
        assert main(["serve", "--max-pending", "0"]) == 2
        assert "max_pending" in capsys.readouterr().err

    def test_max_delay_flag_is_gone(self, capsys):
        """Lanes flush on the next loop turn; there is no window to
        size."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--max-delay", "0.005"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --max-delay"
                in capsys.readouterr().err)

    def test_stop_after_serves_and_exits_cleanly(self):
        """End to end through a real subprocess: ephemeral port, one
        request, clean exit 0 after --stop-after."""
        import os
        import re
        import subprocess
        import sys
        import urllib.request
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--tenants", "fall", "--epochs", "0", "--stop-after", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(repo),
        )
        try:
            port = None
            for line in proc.stdout:
                found = re.search(r"http://127\.0\.0\.1:(\d+)", line)
                if found:
                    port = int(found.group(1))
                    break
            assert port is not None, "serve never announced its port"
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30
            ) as response:
                assert response.status == 200
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()


class TestMonitorCli:
    def test_monitor_train_prints_health_table(self, capsys):
        assert main(["monitor", "train", "--epochs", "2",
                     "--samples", "24"]) == 0
        out = capsys.readouterr().out
        assert "rule" in out and "state" in out
        assert "loss-plateau" in out and "loss-rising" in out
        assert "samples=" in out and "critical=0" in out

    def test_monitor_unknown_target(self, capsys):
        assert main(["monitor", "teleportation"]) == 2
        assert "unknown monitor target" in capsys.readouterr().err

    def test_monitor_bad_rules_file(self, tmp_path, capsys):
        bad = tmp_path / "rules.json"
        bad.write_text('{"rules": [{"name": "r"}]}')  # missing series
        assert main(["monitor", "train", "--rules", str(bad)]) == 2
        assert "cannot load rules" in capsys.readouterr().err
        assert main(["monitor", "train",
                     "--rules", str(tmp_path / "nope.json")]) == 2

    def test_monitor_writes_timeline_and_alerts(self, tmp_path, capsys):
        out = tmp_path / "timeline.jsonl"
        alerts = tmp_path / "alerts.jsonl"
        assert main(["monitor", "train", "--epochs", "2",
                     "--samples", "24", "--out", str(out),
                     "--alerts", str(alerts)]) == 0
        lines = [json.loads(line)
                 for line in out.read_text().splitlines() if line]
        assert len(lines) == 2  # one tick per epoch
        assert any(k.startswith("train.epoch_loss")
                   for k in lines[-1]["series"])
        assert "digest" in capsys.readouterr().out

    def test_monitor_critical_alert_exits_4(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [
            {"name": "ghost", "series": "no.such.series",
             "kind": "absence", "severity": "critical"},
        ]}))
        assert main(["monitor", "train", "--epochs", "1",
                     "--samples", "16", "--rules", str(rules)]) == 4
        captured = capsys.readouterr()
        assert "FIRING" in captured.out
        assert "critical alert(s) fired" in captured.err
