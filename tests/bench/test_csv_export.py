"""Tests for the CSV exporter."""

import csv
import os

from repro.bench.report import write_csv
from repro.exp.tables import ExperimentResult


def make_result(series=None):
    return ExperimentResult(
        "figX",
        "demo",
        ["size", "mops"],
        [[32, 5.5], [64, 5.4]],
        paper_expectation="n/a",
        series=series or {},
    )


class TestCsvExport:
    def test_rows_written(self, tmp_path):
        path = write_csv(make_result(), str(tmp_path))
        assert path.endswith("figX.csv")
        with open(path, newline="") as source:
            rows = list(csv.reader(source))
        assert rows[0] == ["size", "mops"]
        assert rows[1] == ["32", "5.5"]
        assert rows[2] == ["64", "5.4"]

    def test_series_written_when_present(self, tmp_path):
        result = make_result(series={"jakiro": [1.0, 2.0, 3.0], "reply": [9.0]})
        write_csv(result, str(tmp_path))
        series_path = tmp_path / "figX_series.csv"
        assert series_path.exists()
        with open(series_path, newline="") as source:
            rows = list(csv.reader(source))
        assert rows[0] == ["jakiro", "reply"]
        assert rows[1] == ["1.0", "9.0"]
        assert rows[3] == ["3.0", ""]  # ragged series padded with blanks

    def test_no_series_file_without_series(self, tmp_path):
        write_csv(make_result(), str(tmp_path))
        assert not (tmp_path / "figX_series.csv").exists()

    def test_directory_created(self, tmp_path):
        target = os.path.join(str(tmp_path), "nested", "dir")
        path = write_csv(make_result(), target)
        assert os.path.exists(path)

    def test_cli_csv_flag(self, tmp_path, capsys):
        from repro.exp.cli import main

        # Use a cheap experiment to keep the test fast.
        assert main(["run", "fig5", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig5.csv").exists()
