"""Report tables: one shaper from a :class:`RunResult` to the table.

Every experiment's report is an :class:`ExperimentResult` — columns,
rows, the paper's expectation, and optional raw series (the latency
CDFs dump theirs to CSV).  Most tables are a *pivot* of the condition
grid, declared as a :class:`Table` on the spec:

- each row is one combination of the ``rows`` axes, in the order the
  spec expands them;
- each metric becomes one column, or one column per value of the
  ``cols`` dimension, named by ``name`` (default ``{col}_{metric}``,
  so a paradigm axis yields ``jakiro_mops``, ``serverreply_mops``, ...);
- a condition without the row axes (an off-grid ``extras`` point)
  contributes its value to every row;
- a (column, metric) pair no condition reports is left out, while a
  pair only some rows report is an error.

``labels`` renames columns and string row values for display;
``formats`` replaces the default three-decimal rounding for one axis
or metric.  Tables that are not a pivot (the Table 1 grid, phase
tables, latency CDFs, parameter selection) declare a function instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.harness import Scale
from repro.errors import ExpError
from repro.exp.runner import (
    ConditionOutcome,
    ExperimentRunner,
    RunResult,
    default_observers,
)
from repro.exp.spec import Condition, ExperimentSpec

__all__ = ["ExperimentResult", "Table", "fmt", "run_table", "tabulate"]


@dataclass
class ExperimentResult:
    """Measured rows for one figure/table plus the paper's expectation."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[List]
    paper_expectation: str
    observations: str = ""
    series: Dict[str, list] = field(default_factory=dict)


def fmt(value) -> object:
    """Report rounding: floats to three decimals, everything else as is."""
    if isinstance(value, float):
        return round(value, 3)
    return value


@dataclass(frozen=True)
class Table:
    """A pivot of the condition grid (see the module docstring)."""

    rows: Tuple[str, ...]
    metrics: Tuple[str, ...] = ("mops",)
    cols: Optional[str] = None
    name: str = "{col}_{metric}"
    labels: Mapping[str, str] = field(default_factory=dict)
    formats: Mapping[str, Callable[[object], object]] = field(default_factory=dict)


def _coordinate(condition: Condition, name: str) -> object:
    """A condition's value for one dimension, wherever it was routed."""
    if name in condition.axis:
        return condition.axis[name]
    if name == "paradigm":
        return condition.paradigm
    for record in (condition.workload, condition.topology):
        if hasattr(record, name):
            return getattr(record, name)
    return condition.settings.get(name)


def _value(outcome: ConditionOutcome, name: str) -> object:
    if name in outcome.metrics:
        return outcome.metrics[name]
    return _coordinate(outcome.condition, name)


def _unique(values: Sequence[object]) -> List[object]:
    seen: List[object] = []
    for value in values:
        if value not in seen:
            seen.append(value)
    return seen


def pivot(result: RunResult, table: Table) -> Tuple[List[str], List[List]]:
    """The pivot's columns and rows."""
    experiment_id = result.spec.experiment_id

    def label(value: object) -> object:
        return table.labels.get(value, value) if isinstance(value, str) else value

    def shown(name: str, value: object) -> object:
        return table.formats.get(name, fmt)(value)

    def row_key(outcome: ConditionOutcome) -> Optional[Tuple[object, ...]]:
        axis = outcome.condition.axis
        if not all(name in axis for name in table.rows):
            return None  # off-grid: broadcast to every row
        return tuple(axis[name] for name in table.rows)

    keys = _unique([row_key(o) for o in result.outcomes if row_key(o) is not None])
    if not keys:
        keys = [()]
    col_values = (
        _unique([_coordinate(o.condition, table.cols) for o in result.outcomes])
        if table.cols
        else [None]
    )
    columns = [str(table.labels.get(name, name)) for name in table.rows]
    cells: List[List[object]] = [
        [shown(name, label(value)) for name, value in zip(table.rows, key)]
        for key in keys
    ]
    for metric in table.metrics:
        for col in col_values:
            matching = [
                o
                for o in result.outcomes
                if col is None or _coordinate(o.condition, table.cols) == col
            ]
            column: List[object] = []
            for key in keys:
                found = [
                    o
                    for o in matching
                    if row_key(o) in (key, None) and _value(o, metric) is not None
                ]
                column.append(_value(found[0], metric) if found else None)
            if all(value is None for value in column):
                continue
            header = (
                table.name.format(col=label(col), metric=metric)
                if col is not None
                else metric
            )
            if any(value is None for value in column):
                raise ExpError(f"{experiment_id}: column {header!r} has gaps")
            columns.append(str(table.labels.get(header, header)))
            for row, value in zip(cells, column):
                row.append(shown(metric, value))
    return columns, cells


def tabulate(result: RunResult) -> ExperimentResult:
    """Shape one run into its report table, as its spec declares."""
    spec = result.spec
    table = spec.table
    if callable(table):
        return table(result)
    if table is None:
        table = Table(rows=tuple(spec.axes)[:1], cols="paradigm")
    columns, rows = pivot(result, table)
    return ExperimentResult(
        spec.experiment_id, spec.title, columns, rows, spec.paper_expectation
    )


def run_table(spec: ExperimentSpec, scale: Scale = Scale.fast()) -> ExperimentResult:
    """Run one spec under the invariant observers and shape its table."""
    return tabulate(ExperimentRunner(observers=default_observers()).run(spec, scale))
