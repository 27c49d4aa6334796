"""Tests for the terminal bar-chart renderer."""

from repro.bench.charts import render_bars
from repro.exp.tables import ExperimentResult


def make_result(rows, columns=("threads", "jakiro_mops", "reply_mops")):
    return ExperimentResult(
        "figX", "demo", list(columns), rows, paper_expectation="n/a"
    )


class TestRenderBars:
    def test_bars_scale_to_maximum(self):
        result = make_result([[1, 4.0, 2.0], [2, 8.0, 2.0]])
        chart = render_bars(result, width=8)
        lines = chart.splitlines()
        biggest = next(line for line in lines if "8.00" in line)
        half = next(line for line in lines if "4.00" in line)
        assert biggest.count("█") == 8
        assert half.count("█") == 4

    def test_every_row_and_column_present(self):
        result = make_result([[1, 1.0, 2.0], [2, 3.0, 4.0]])
        chart = render_bars(result)
        assert chart.count("threads=") == 2
        assert chart.count("jakiro_mops") == 2
        assert chart.count("reply_mops") == 2

    def test_non_numeric_columns_skipped(self):
        result = ExperimentResult(
            "figY",
            "mixed",
            ["point", "name", "mops"],
            [[1, "alpha", 2.0], [2, "beta", 4.0]],
            paper_expectation="n/a",
        )
        chart = render_bars(result)
        assert "name" not in chart
        assert "mops" in chart

    def test_explicit_column_selection(self):
        result = make_result([[1, 1.0, 2.0]])
        chart = render_bars(result, columns=["reply_mops"])
        assert "jakiro_mops" not in chart
        assert "reply_mops" in chart

    def test_all_text_result_handled(self):
        result = ExperimentResult(
            "figZ", "text", ["a", "b"], [["x", "y"]], paper_expectation="n/a"
        )
        assert "no numeric columns" in render_bars(result)

    def test_partial_blocks_used_for_fractions(self):
        result = make_result([[1, 7.5, 10.0]])
        chart = render_bars(result, width=4)
        # 7.5/10 of 4 cells = 3 cells: three full blocks.
        line = next(l for l in chart.splitlines() if "7.50" in l)
        assert line.count("█") == 3
