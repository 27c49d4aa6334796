"""ASCII and CSV rendering of experiment results."""

from __future__ import annotations

import csv
import os
from typing import List

from repro.exp.tables import ExperimentResult

__all__ = ["format_table", "format_result", "write_csv"]


def format_table(columns: List[str], rows: List[List]) -> str:
    """A plain monospace table with padded columns."""
    table = [columns] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(columns))]

    def render(row: List[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(row, widths))

    separator = "  ".join("-" * width for width in widths)
    lines = [render(table[0]), separator]
    lines.extend(render(row) for row in table[1:])
    return "\n".join(lines)


def write_csv(result: ExperimentResult, directory: str) -> str:
    """Write one experiment's rows to ``<directory>/<id>.csv``.

    Returns the file path.  Latency-CDF experiments additionally dump
    their raw per-system latency series to ``<id>_series.csv`` so plots
    can be regenerated with full resolution.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{result.experiment_id}.csv")
    with open(path, "w", newline="", encoding="utf-8") as sink:
        writer = csv.writer(sink)
        writer.writerow(result.columns)
        writer.writerows(result.rows)
    if result.series:
        series_path = os.path.join(directory, f"{result.experiment_id}_series.csv")
        names = sorted(result.series)
        longest = max(len(result.series[name]) for name in names)
        with open(series_path, "w", newline="", encoding="utf-8") as sink:
            writer = csv.writer(sink)
            writer.writerow(names)
            for index in range(longest):
                writer.writerow(
                    [
                        result.series[name][index]
                        if index < len(result.series[name])
                        else ""
                        for name in names
                    ]
                )
    return path


def format_result(result: ExperimentResult) -> str:
    """Render one experiment: header, paper expectation, measured table."""
    lines = [
        f"== {result.experiment_id}: {result.title} ==",
        f"paper: {result.paper_expectation}",
    ]
    if result.observations:
        lines.append(f"measured: {result.observations}")
    lines.append("")
    lines.append(format_table(result.columns, result.rows))
    return "\n".join(lines)
