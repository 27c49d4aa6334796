"""The generic report shaper, driver parity, and the new spec knobs."""

import pytest

from repro.bench.harness import Scale, run_controlled_process_time, run_kv
from repro.errors import ExpError
from repro.exp.runner import ExperimentRunner
from repro.exp.spec import ExperimentSpec, Sweep
from repro.exp.tables import Table, tabulate
from repro.workloads.ycsb import WorkloadSpec

FAST = Scale.fast()
TINY = Scale(window_us=400.0, records=256)


def fake_run(spec, metrics_of, scale=FAST):
    """Run ``spec`` on a driver that reports ``metrics_of(condition)``."""
    runner = ExperimentRunner(drivers={"fake": lambda ctx: metrics_of(ctx.condition)})
    return runner.run(spec, scale)


def spec(**kwargs):
    kwargs.setdefault("experiment_id", "toy")
    kwargs.setdefault("title", "Toy")
    kwargs.setdefault("driver", "fake")
    return ExperimentSpec(**kwargs)


class TestPivot:
    def test_paradigm_columns_per_row(self):
        toy = spec(
            axes={"server_threads": (1, 2), "paradigm": ("a", "b")},
            table=Table(rows=("server_threads",), cols="paradigm"),
        )
        table = tabulate(
            fake_run(toy, lambda c: {"mops": c.topology.server_threads + 0.12345})
        )
        assert table.columns == ["server_threads", "a_mops", "b_mops"]
        assert table.rows == [[1, 1.123, 1.123], [2, 2.123, 2.123]]

    def test_default_table_pivots_first_axis_by_paradigm(self):
        toy = spec(base={"paradigm": "jakiro"}, axes={"client_threads": (7, 21)})
        table = tabulate(fake_run(toy, lambda c: {"mops": 1.0}))
        assert table.columns == ["client_threads", "jakiro_mops"]

    def test_off_grid_condition_broadcasts(self):
        toy = spec(
            base={"paradigm": "out"},
            axes={"server_threads": (1, 2)},
            extras=({"paradigm": "in", "client_threads": 28},),
            table=Table(rows=("server_threads",), cols="paradigm"),
        )
        table = tabulate(
            fake_run(toy, lambda c: {"mops": 9.0 if c.paradigm == "in" else 1.0})
        )
        assert table.rows == [[1, 1.0, 9.0], [2, 1.0, 9.0]]

    def test_unreported_pair_dropped_and_labels_applied(self):
        toy = spec(
            axes={"distribution": ("uniform",), "paradigm": ("a", "b")},
            table=Table(
                rows=("distribution",),
                cols="paradigm",
                metrics=("mops", "retries"),
                labels={"b_retries": "retries", "uniform": "flat"},
            ),
        )

        def metrics(condition):
            out = {"mops": 1.0}
            if condition.paradigm == "b":
                out["retries"] = 2
            return out

        table = tabulate(fake_run(toy, metrics))
        assert table.columns == ["distribution", "a_mops", "b_mops", "retries"]
        assert table.rows == [["flat", 1.0, 1.0, 2]]

    def test_partially_reported_column_is_an_error(self):
        toy = spec(
            axes={"server_threads": (1, 2)},
            table=Table(rows=("server_threads",), metrics=("odd",)),
        )
        run = fake_run(
            toy,
            lambda c: {"odd": 1} if c.topology.server_threads == 1 else {},
        )
        with pytest.raises(ExpError, match="gaps"):
            tabulate(run)

    def test_formats_and_coordinate_columns(self):
        toy = spec(
            axes={"get_fraction": (0.95, 0.05)},
            table=Table(
                rows=("get_fraction",),
                metrics=("client_threads", "count"),
                formats={"get_fraction": "{:.0%}".format, "count": int},
            ),
        )
        table = tabulate(fake_run(toy, lambda c: {"count": 3.0}))
        assert table.rows == [["95%", 35, 3], ["5%", 35, 3]]

    def test_callable_table_shapes_itself(self):
        toy = spec(table=lambda run: run.spec.experiment_id)
        assert tabulate(fake_run(toy, lambda c: {})) == "toy"


class TestSpecKnobs:
    def test_overrides_apply_without_changing_labels(self):
        toy = spec(
            axes={"paradigm": ("jakiro", "memcached")},
            overrides={"paradigm=memcached": {"server_threads": 16}},
        )
        conditions = toy.expand(FAST)
        assert [c.label for c in conditions] == [
            "paradigm=jakiro",
            "paradigm=memcached",
        ]
        assert [c.topology.server_threads for c in conditions] == [6, 16]

    def test_override_must_name_an_axis(self):
        with pytest.raises(ExpError, match="names no axis"):
            spec(overrides={"shards=1": {"client_threads": 5}})

    def test_window_keys_adjust_the_condition_scale(self):
        (fraction,) = spec(base={"window_fraction": 0.8}).expand(FAST)
        (absolute,) = spec(base={"window_us": 400}).expand(FAST)
        assert fraction.scale.window_us == FAST.window_us * 0.8
        assert absolute.scale.window_us == 400.0
        assert fraction.scale.records == FAST.records

    def test_extras_label_with_setting_axes(self):
        toy = spec(
            axes={"paradigm": ("rfp",)},
            extras=tuple(
                {"paradigm": "herd", "loss_probability": loss} for loss in (0.0, 0.05)
            ),
            setting_axes=("loss_probability",),
        )
        assert [c.label for c in toy.expand(FAST)] == [
            "paradigm=rfp",
            "paradigm=herd,loss_probability=0.0",
            "paradigm=herd,loss_probability=0.05",
        ]


class TestDriverParity:
    """A driver condition measures exactly what a direct harness call
    with the same arguments measures."""

    def test_kv_condition_matches_run_kv(self):
        kv = ExperimentSpec(
            experiment_id="parity", title="kv", driver="kv", base={"paradigm": "jakiro"}
        )
        (outcome,) = ExperimentRunner().run(kv, TINY).outcomes
        direct = run_kv("jakiro", WorkloadSpec(records=256), scale=TINY)
        metrics = outcome.metrics
        assert metrics["mops"] == direct.throughput_mops
        assert metrics["operations"] == direct.operations_completed
        assert metrics["mean_latency_us"] == direct.mean_latency()
        assert metrics["p99_latency_us"] == direct.percentile_latency(99)
        assert metrics["client_cpu_utilization"] == direct.client_cpu_utilization
        assert list(outcome.series["latency_us"]) == list(direct.latency_us)

    def test_paradigm_condition_matches_controlled_run(self):
        paradigm = ExperimentSpec(
            experiment_id="parity",
            title="paradigm",
            driver="paradigm",
            base={
                "paradigm": "rfp",
                "process_us": 1.0,
                "server_threads": 16,
                "client_cpu": True,
            },
        )
        (outcome,) = ExperimentRunner().run(paradigm, TINY).outcomes
        direct = run_controlled_process_time("rfp", 1.0, scale=TINY)
        metrics = outcome.metrics
        assert metrics["mops"] == direct.throughput_mops
        assert metrics["operations"] == direct.operations_completed
        assert metrics["replies_sent"] == direct.replies_sent
        assert metrics["client_cpu_percent"] == 100.0 * direct.client_cpu_utilization

    def test_sweep_values_reach_the_driver(self):
        toy = spec(axes={"client_threads": Sweep((1,), (1, 2))})
        seen = []
        fake_run(toy, lambda c: seen.append(c.topology.client_threads) or {})
        assert seen == [1]
