"""User-defined experiments from a JSON spec.

``python -m repro.exp run --spec my.json`` runs a custom closed-loop KV
experiment without writing code.  Example spec::

    {
      "title": "jakiro vs serverreply across threads",
      "systems": ["jakiro", "serverreply"],
      "workload": {"records": 8192, "distribution": "uniform", "seed": 42},
      "server_threads": [2, 4, 6],
      "client_threads": 35,
      "value_size": 32,
      "get_fraction": 0.95,
      "window_us": 2500
    }

At most one of ``server_threads`` / ``client_threads`` / ``value_size``
/ ``get_fraction`` may be a list — that becomes the sweep axis, one row
per point with one ``<system>_mops`` column per system.  Without a
sweep the table has one row per system.

:func:`load_spec` checks every field and compiles the file into a
``kv``-driver :class:`~repro.exp.spec.ExperimentSpec`, so a malformed
spec fails with one line before any simulation runs.
"""

from __future__ import annotations

import json
from typing import Callable, Dict

from repro.bench.systems import SYSTEMS
from repro.errors import ExpError
from repro.exp.spec import ExperimentSpec
from repro.exp.tables import Table

__all__ = ["load_spec"]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _at_least(low: int) -> Callable[[object], bool]:
    return lambda value: _is_int(value) and value >= low


#: Sweepable key -> (kv-driver setting, value check, what it must be).
_SWEEPABLE = {
    "server_threads": ("server_threads", _at_least(1), "an integer >= 1"),
    "client_threads": ("client_threads", _at_least(1), "an integer >= 1"),
    "value_size": ("value_bytes", _at_least(0), "an integer >= 0"),
    "get_fraction": (
        "get_fraction",
        lambda v: _is_number(v) and 0.0 <= v <= 1.0,
        "a number in [0, 1]",
    ),
}
#: ``workload`` key -> (value check, what it must be).
_WORKLOAD = {
    "records": (_at_least(1), "an integer >= 1"),
    "distribution": (lambda v: v in ("uniform", "zipfian"), "'uniform' or 'zipfian'"),
    "seed": (_is_int, "an integer"),
}
_TOP_LEVEL = {"title", "systems", "workload", "window_us", *_SWEEPABLE}


def _check(name: str, value: object, ok, expected: str) -> None:
    if not ok(value):
        raise ExpError(f"spec field {name!r} must be {expected}, got {value!r}")


def load_spec(path: str) -> ExperimentSpec:
    """Read, validate, and compile a custom-experiment spec."""
    with open(path, "r", encoding="utf-8") as source:
        try:
            raw = json.load(source)
        except json.JSONDecodeError as error:
            raise ExpError(f"{path} is not valid JSON: {error}") from None
    if not isinstance(raw, dict):
        raise ExpError("spec must be a JSON object")
    unknown = sorted(set(raw) - _TOP_LEVEL)
    if unknown:
        raise ExpError(f"unknown spec fields {unknown}; options: {sorted(_TOP_LEVEL)}")

    title = raw.get("title", "custom experiment")
    _check("title", title, lambda v: isinstance(v, str), "a string")
    systems = raw.get("systems", ["jakiro"])
    if isinstance(systems, str):
        systems = [systems]
    _check(
        "systems",
        systems,
        lambda v: isinstance(v, list) and v and all(isinstance(s, str) for s in v),
        "a system name or a non-empty list of them",
    )
    missing = [name for name in systems if name not in SYSTEMS]
    if missing:
        raise ExpError(f"unknown systems {missing}; options: {sorted(SYSTEMS)}")

    base: Dict[str, object] = {}
    workload = raw.get("workload", {})
    _check("workload", workload, lambda v: isinstance(v, dict), "an object")
    for key, value in workload.items():
        if key not in _WORKLOAD:
            raise ExpError(
                f"unknown workload field {key!r}; options: {sorted(_WORKLOAD)}"
            )
        ok, expected = _WORKLOAD[key]
        _check(f"workload.{key}", value, ok, expected)
        base[key] = value
    if "window_us" in raw:
        _check(
            "window_us",
            raw["window_us"],
            lambda v: _is_number(v) and v > 0,
            "a number > 0",
        )
        base["window_us"] = float(raw["window_us"])

    sweeps = [key for key in _SWEEPABLE if isinstance(raw.get(key), list)]
    if len(sweeps) > 1:
        raise ExpError(f"only one sweep axis allowed, got {sweeps}")
    axes: Dict[str, object] = {}
    for key, (setting, ok, expected) in _SWEEPABLE.items():
        if key not in raw:
            continue
        points = raw[key] if key in sweeps else [raw[key]]
        _check(key, points, bool, "a value or a non-empty list")
        for point in points:
            _check(key, point, ok, expected)
        if key in sweeps:
            axes[setting] = tuple(points)
        else:
            base[setting] = points[0]
    if sweeps:
        setting = _SWEEPABLE[sweeps[0]][0]
        table = Table(rows=(setting,), cols="paradigm", labels={setting: sweeps[0]})
    else:
        table = Table(rows=("paradigm",), labels={"paradigm": "system"})
    axes["paradigm"] = tuple(systems)
    return ExperimentSpec(
        experiment_id="custom",
        title=title,
        driver="kv",
        base=base,
        axes=axes,
        table=table,
        paper_expectation="user-defined experiment",
    )

