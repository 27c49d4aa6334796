"""Shared fixtures for the figure/table regeneration benches.

Each bench file regenerates one paper figure or table at fast scale,
asserts the *shape* the paper reports (who wins, by what factor, where
crossovers fall), and records the wall time via pytest-benchmark.  Run
with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
regenerated tables.
"""

import pytest

from repro.bench.harness import Scale
from repro.bench.report import format_result
from repro.exp.library import SPECS
from repro.exp.tables import run_table


@pytest.fixture(scope="session")
def scale():
    """Fast measurement scale (windows sized for CI, shapes preserved)."""
    return Scale.fast()


@pytest.fixture()
def regenerate(benchmark, scale):
    """Run one experiment spec under pytest-benchmark and print its table."""

    def run(experiment_id):
        result = benchmark.pedantic(
            run_table, args=(SPECS[experiment_id], scale), rounds=1, iterations=1
        )
        print()
        print(format_result(result))
        return result

    return run


def column(result, name):
    """Extract one column of an ExperimentResult as a list."""
    index = result.columns.index(name)
    return [row[index] for row in result.rows]
