"""CLI error paths: every failure is one stderr line and exit 2 — never
a traceback — and compare's exit code distinguishes clean from regressed."""

import json

import pytest

from repro.bench.harness import Scale
from repro.exp.artifact import build_payload, write_payload
from repro.exp.cli import main as exp_main

FAST = Scale.fast()


def toy_artifact(tmp_path, name, mops):
    from repro.exp.runner import ExperimentRunner
    from repro.exp.spec import ExperimentSpec

    spec = ExperimentSpec(
        experiment_id="toy", title="Toy", driver="fake"
    )
    runner = ExperimentRunner(
        drivers={"fake": lambda context: {"mops": mops}}
    )
    payload = build_payload("toy-suite", [runner.run(spec, FAST)], FAST)
    return write_payload(payload, str(tmp_path / name))


class TestExpCli:
    def test_unknown_suite_exits_2_with_message(self, capsys):
        assert exp_main(["run", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "unknown suite" in captured.err
        assert "Traceback" not in captured.err

    def test_list_names_every_suite(self, capsys):
        assert exp_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "core: fig3, fig4, tab1" in out
        assert "cluster:" in out

    def test_compare_identical_artifacts_exits_0(self, tmp_path, capsys):
        a = toy_artifact(tmp_path, "a.json", 5.0)
        b = toy_artifact(tmp_path, "b.json", 5.0)
        assert exp_main(["compare", a, b]) == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_compare_regression_exits_1(self, tmp_path, capsys):
        a = toy_artifact(tmp_path, "a.json", 5.0)
        b = toy_artifact(tmp_path, "b.json", 4.0)
        assert exp_main(["compare", a, b]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_missing_file_exits_2(self, tmp_path, capsys):
        a = toy_artifact(tmp_path, "a.json", 5.0)
        assert exp_main(["compare", a, str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_compare_malformed_artifact_exits_2(self, tmp_path, capsys):
        a = toy_artifact(tmp_path, "a.json", 5.0)
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated", encoding="utf-8")
        assert exp_main(["compare", a, str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_compare_mismatched_schemas_exits_2(self, tmp_path, capsys):
        a = toy_artifact(tmp_path, "a.json", 5.0)
        speed_like = {
            "schema": "repro.bench.speed/v2",
            "provenance": {
                "git_sha": "x",
                "git_dirty": False,
                "scale": {
                    "window_us": 1.0,
                    "warmup_fraction": 0.25,
                    "records": 1,
                    "full": False,
                },
            },
            "repetitions": 1,
            "scenarios": [
                {
                    "name": "s",
                    "dispatched_fast": 1,
                    "dispatched_reference": 1,
                    "modeled_mops": 0.0,
                    "wall_s_fast": 0.1,
                    "wall_s_reference": 0.1,
                }
            ],
            "frozen_baseline": {},
        }
        path = tmp_path / "speed.json"
        path.write_text(json.dumps(speed_like), encoding="utf-8")
        assert exp_main(["compare", a, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "repro.exp/v1" in err
        assert "Traceback" not in err


class TestBenchCli:
    """The figure/table entry points and custom specs, on the one CLI."""

    def test_unknown_experiment_exits_2(self, capsys):
        assert exp_main(["run", "no-such-figure"]) == 2
        err = capsys.readouterr().err
        assert "unknown suite or experiment" in err
        assert "Traceback" not in err

    def test_malformed_spec_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("{not json", encoding="utf-8")
        assert exp_main(["run", "--spec", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_invalid_spec_contents_exit_2(self, tmp_path, capsys, monkeypatch):
        # Every case fails in load_spec, before any simulation: a run
        # would trip this driver stub.
        def no_runs(*args, **kwargs):
            raise AssertionError("a malformed spec reached the runner")

        monkeypatch.setattr("repro.exp.drivers.run_kv", no_runs)
        cases = [
            ({"systems": ["warpdrive"]}, "unknown systems"),
            ({"window_us": "abc"}, "'window_us'"),
            ({"client_threads": [2, "x"]}, "'client_threads'"),
            ({"server_threads": 0}, "'server_threads'"),
        ]
        bad = tmp_path / "spec.json"
        for contents, message in cases:
            bad.write_text(json.dumps(contents), encoding="utf-8")
            assert exp_main(["run", "--spec", str(bad)]) == 2, contents
            err = capsys.readouterr().err
            assert err.startswith("error:"), contents
            assert len(err.strip().splitlines()) == 1, err
            assert message in err, (contents, err)
            assert "Traceback" not in err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert exp_main(["run", "--spec", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
