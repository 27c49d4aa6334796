"""Terminal charts for experiment results.

Headless environments (this simulator's natural habitat) still deserve a
visual: :func:`render_bars` draws an experiment's numeric columns as
horizontal grouped bar charts, scaled to the largest value, using
eighth-block characters for sub-cell resolution.
"""

from __future__ import annotations

from typing import List, Optional

from repro.exp.tables import ExperimentResult

__all__ = ["render_bars"]

_FULL = "█"
_PARTIALS = ["", "▏", "▎", "▍", "▌", "▋", "▊", "▉"]


def _bar(value: float, maximum: float, width: int) -> str:
    if maximum <= 0:
        return ""
    cells = value / maximum * width
    full = int(cells)
    remainder = int((cells - full) * 8)
    return _FULL * full + _PARTIALS[remainder]


def render_bars(
    result: ExperimentResult,
    width: int = 40,
    columns: Optional[List[str]] = None,
) -> str:
    """Render the numeric columns of ``result`` as grouped bars.

    ``columns`` restricts which value columns are drawn (default: every
    column after the first that holds numbers in all rows).
    """
    label_column = result.columns[0]
    if columns is None:
        columns = [
            column
            for index, column in enumerate(result.columns[1:], start=1)
            if all(isinstance(row[index], (int, float)) for row in result.rows)
        ]
    if not columns:
        return f"(no numeric columns to chart in {result.experiment_id})"
    indexes = [result.columns.index(column) for column in columns]
    maximum = max(
        float(row[index]) for row in result.rows for index in indexes
    )
    name_width = max(len(column) for column in columns)
    value_width = max(
        len(f"{float(row[index]):.2f}") for row in result.rows for index in indexes
    )
    lines = [f"{result.experiment_id}: {result.title}"]
    for row in result.rows:
        lines.append(f"{label_column}={row[0]}")
        for column, index in zip(columns, indexes):
            value = float(row[index])
            lines.append(
                f"  {column:<{name_width}}  "
                f"{value:>{value_width}.2f} {_bar(value, maximum, width)}"
            )
    return "\n".join(lines)
