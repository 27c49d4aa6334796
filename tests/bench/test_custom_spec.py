"""Tests for JSON-spec-driven custom experiments."""

import json

import pytest

from repro.bench.harness import Scale
from repro.errors import BenchError
from repro.exp.custom import load_spec
from repro.exp.tables import run_table


def write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


TINY = Scale(window_us=400.0, records=256)


class TestLoadSpec:
    def test_defaults_applied(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, {}))
        assert spec.driver == "kv"
        assert dict(spec.axes) == {"paradigm": ("jakiro",)}

    def test_single_system_string_normalized(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, {"systems": "serverreply"}))
        assert spec.axes["paradigm"] == ("serverreply",)

    def test_unknown_system_rejected(self, tmp_path):
        with pytest.raises(BenchError):
            load_spec(write_spec(tmp_path, {"systems": ["redis"]}))

    def test_sweep_axis_detected(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, {"server_threads": [2, 4]}))
        assert list(spec.axes) == ["server_threads", "paradigm"]
        assert spec.axes["server_threads"] == (2, 4)

    def test_two_sweep_axes_rejected(self, tmp_path):
        with pytest.raises(BenchError):
            load_spec(
                write_spec(
                    tmp_path, {"server_threads": [2, 4], "value_size": [32, 64]}
                )
            )

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(BenchError):
            load_spec(str(path))


class TestRunCustom:
    def test_single_point_run(self, tmp_path):
        spec = load_spec(
            write_spec(
                tmp_path,
                {
                    "title": "one point",
                    "workload": {"records": 256},
                    "client_threads": 6,
                    "window_us": 400,
                },
            )
        )
        result = run_table(spec, TINY)
        assert result.title == "one point"
        assert len(result.rows) == 1
        assert result.rows[0][1] > 0

    def test_sweep_produces_row_per_point(self, tmp_path):
        spec = load_spec(
            write_spec(
                tmp_path,
                {
                    "systems": ["jakiro", "serverreply"],
                    "server_threads": [2, 4],
                    "client_threads": 8,
                    "workload": {"records": 256},
                    "window_us": 400,
                },
            )
        )
        result = run_table(spec, TINY)
        assert [row[0] for row in result.rows] == [2, 4]
        assert result.columns == ["server_threads", "jakiro_mops", "serverreply_mops"]
        for row in result.rows:
            assert row[1] > 0 and row[2] > 0

    def test_value_size_sweep_affects_workload(self, tmp_path):
        spec = load_spec(
            write_spec(
                tmp_path,
                {
                    "value_size": [32, 4096],
                    "client_threads": 8,
                    "workload": {"records": 128},
                    "window_us": 400,
                },
            )
        )
        result = run_table(spec, TINY)
        small, large = result.rows[0][1], result.rows[1][1]
        assert small > large  # big values are slower

    def test_cli_spec_flag(self, tmp_path, capsys):
        from repro.exp.cli import main

        path = write_spec(
            tmp_path,
            {
                "title": "cli spec smoke",
                "client_threads": 4,
                "workload": {"records": 128},
                "window_us": 300,
            },
        )
        assert main(["run", "--spec", path]) == 0
        assert "cli spec smoke" in capsys.readouterr().out
