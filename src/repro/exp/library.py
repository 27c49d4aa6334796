"""Every experiment of the reproduction, declared as an ExperimentSpec.

Each spec names its condition matrix (workload x topology x faults x
paradigm, swept per scale), the shared driver that measures one
condition, and how the outcomes become its report table — a
:class:`~repro.exp.tables.Table` pivot for most figures, or one of the
small shaping functions below for the tables that are not a pivot (the
Table 1 grid, the crash phase tables, the latency CDFs, parameter
selection).  ``python -m repro.exp run <id>`` runs any of them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import BenchError
from repro.exp.drivers import PERCENTILES
from repro.exp.runner import ConditionOutcome, RunResult
from repro.exp.spec import ExperimentSpec, FaultPoint, Phase, Sweep, phases_of
from repro.exp.tables import ExperimentResult, Table, fmt, pivot

__all__ = ["SPECS"]

#: 18-port InfiniScale-IV switch — the largest cluster the testbed wires.
_MACHINES_18 = 18

#: The three systems of §4.3/§4.4; RDMA-Memcached runs at its peak
#: thread count (it is CPU-bound, Fig. 12) in every other figure.
_SYSTEMS = ("jakiro", "serverreply", "memcached")
_MEMCACHED_PEAK = {"paradigm=memcached": {"server_threads": 16}}

#: "95%" for a GET fraction of 0.95.
_PERCENT = "{:.0%}".format

#: Shared base for the crash experiments: 3 shards RF=2 under the
#: acknowledged-write ledger, client-limited load (24 threads keep
#: healthy shards below the NIC ceiling so the dip measures failover
#: cost, not saturation noise), consecutive_slow_calls=1 so a call stuck
#: on the dead shard degrades to server-reply after one slow call
#: (§3.2's knob, tuned for fast failover), zero store jitter so healthy
#: shards never trigger the same rule organically, and an audited
#: ledger capped at 240 keys so the durability check stays exhaustive.
_CRASH_BASE: Dict[str, object] = {
    "kind": "ledger",
    "value_bytes": 64,
    "records_cap": 240,
    "machines": _MACHINES_18,
    "shards": 3,
    "replication_factor": 2,
    "client_threads": 24,
    "tracing": True,
    "zero_jitter": True,
    "consecutive_slow_calls": 1,
}


def _result(
    run: RunResult, columns: List[str], rows: List[List], observations: str = ""
) -> ExperimentResult:
    spec = run.spec
    return ExperimentResult(
        spec.experiment_id,
        spec.title,
        columns,
        rows,
        paper_expectation=spec.paper_expectation,
        observations=observations,
    )


#: Table 1 grid descriptors: paradigm -> (send, process, return) cells.
_TAB1_GRID = {
    "server-reply": ("in-bound", "server involved", "out-bound"),
    "server-bypass": ("in-bound", "server bypassed", "in-bound"),
    "RFP": ("in-bound", "server involved", "in-bound"),
    "meaningless": ("in-bound", "server bypassed", "out-bound"),
}


def _tab1_grid(run: RunResult) -> ExperimentResult:
    rows = [
        [
            paradigm,
            *_TAB1_GRID[paradigm],
            fmt(run.outcome(f"paradigm={paradigm}").metrics["mops"]),
        ]
        for paradigm in _TAB1_GRID
    ]
    return _result(
        run,
        ["paradigm", "request_send", "request_process", "result_return", "mops"],
        rows,
        f"RFP {rows[2][4]} MOPS tops the grid",
    )


def _phase_rows(outcome: ConditionOutcome) -> List[List]:
    """One crash condition's phase table."""
    metrics = outcome.metrics
    window = outcome.condition.scale.window_us
    phases = phases_of(outcome.condition)
    pre_mops = metrics[f"{phases[0].name}_mops"]
    return [
        [
            phase.name,
            window * phase.start_frac,
            window * phase.end_frac,
            fmt(metrics[f"{phase.name}_mops"]),
            fmt(metrics[f"{phase.name}_mops"] / max(pre_mops, 1e-9)),
            metrics["lost_acked_writes"],
            metrics["acked_keys"],
        ]
        for phase in phases
    ]


_PHASE_COLUMNS = [
    "phase",
    "start_us",
    "end_us",
    "mops",
    "fraction_of_pre",
    "lost_acked_writes",
    "acked_keys",
]


def _crash_table(run: RunResult) -> ExperimentResult:
    """Failover and rejoin: per-phase throughput through the crash (the
    driver's audits already raised on any durability or NIC breach)."""
    outcome = run.outcome("base")
    metrics = outcome.metrics
    rows = _phase_rows(outcome)
    summary = ", ".join(f"{row[0]} {row[3]} ({row[4]}x)" for row in rows)
    if "handoff_at_us" in metrics:
        summary += (
            f"; cutover at {metrics['handoff_at_us']:.0f}us moved "
            f"{metrics['transferred_keys']} keys "
            f"({metrics['catchup_keys']} catch-up) in {metrics['batches']} batches"
        )
    return _result(
        run,
        _PHASE_COLUMNS,
        rows,
        f"{summary}; {metrics['acked_keys']} acked keys audited, "
        f"{metrics['lost_acked_writes']} lost",
    )


def _rebalance_table(run: RunResult) -> ExperimentResult:
    """Both conditions' phase rows, plus the headline: rebalanced
    ``post`` throughput must be >=1.5x the no-rebalance baseline's."""
    baseline = run.outcome("rebalance=False")
    rebalanced = run.outcome("rebalance=True")
    rows = [
        [
            "on" if outcome.condition.settings.get("rebalance") else "off",
            row[0],
            row[1],
            row[2],
            row[3],
            outcome.metrics["moved_vnodes"],
            outcome.metrics["lost_acked_writes"],
            outcome.metrics["acked_keys"],
        ]
        for outcome in (baseline, rebalanced)
        for row in _phase_rows(outcome)
    ]
    base_post = baseline.metrics["post_mops"]
    rebal_post = rebalanced.metrics["post_mops"]
    speedup = rebal_post / max(base_post, 1e-9)
    if speedup < 1.5:
        raise BenchError(
            f"post-rebalance throughput {rebal_post:.3f} MOPS is only "
            f"{speedup:.2f}x the no-rebalance baseline {base_post:.3f} "
            "MOPS (bar: 1.5x)"
        )
    metrics = rebalanced.metrics
    return _result(
        run,
        [
            "rebalance",
            "phase",
            "start_us",
            "end_us",
            "mops",
            "moved_vnodes",
            "lost_acked_writes",
            "acked_keys",
        ],
        rows,
        f"post {fmt(base_post)} -> {fmt(rebal_post)} MOPS ({speedup:.2f}x) "
        f"after {metrics['migrations']} migrations moved "
        f"{metrics['moved_vnodes']} vnodes ({metrics['migrated_keys']} keys, "
        f"{metrics['catchup_keys']} catch-up); {metrics['acked_keys']} acked "
        f"keys audited, {metrics['lost_acked_writes']} lost",
    )


#: The paper's crossover budget: a one-sided design beats RPC only
#: while it spends fewer remote round-trips than an RPC costs (~2-3,
#: §2-§3); past that, amplification hands the win to the RPC build.
_CROSSOVER_ROUND_TRIPS = 3.0

_TXN_COLUMNS = [
    "queue_mops",
    "remote_ops_per_op",
    "cas_retries",
    "txn_mops",
    "txn_committed",
    "txn_aborted",
    "torn_groups",
    "lost_acked_writes",
]


def _txn_table(run: RunResult) -> ExperimentResult:
    """Rows by contention level, plus the headline shape the driver's
    per-condition audits cannot see: the RPC queue's cost is flat at
    exactly 1 request/op, the one-sided build's grows with contention,
    and past the ~3-round-trip crossover the RPC queue wins outright."""
    by_condition = {
        (
            str(outcome.condition.settings["structure"]),
            int(outcome.condition.settings["queue_clients"]),
        ): outcome.metrics
        for outcome in run.outcomes
    }
    counts = sorted({clients for _, clients in by_condition})
    rows = [
        [structure, clients]
        + [fmt(by_condition[(structure, clients)][name]) for name in _TXN_COLUMNS]
        for structure, clients in sorted(
            by_condition, key=lambda key: (key[1], key[0])
        )
    ]
    for clients in counts:
        metrics = by_condition[("rfp", clients)]
        if metrics["queue_remote_ops"] != metrics["queue_ops"]:
            raise BenchError(
                f"RFP queue cost must be exactly 1 request/op at every "
                f"contention level; saw {metrics['queue_remote_ops']} "
                f"requests for {metrics['queue_ops']} ops at {clients} clients"
            )
    costs = [
        by_condition[("one-sided", clients)]["remote_ops_per_op"]
        for clients in counts
    ]
    if costs[-1] <= costs[0]:
        raise BenchError(
            f"one-sided per-op verb count did not grow with contention: {costs}"
        )
    top = counts[-1]
    one_sided = by_condition[("one-sided", top)]
    rfp = by_condition[("rfp", top)]
    if one_sided["remote_ops_per_op"] <= _CROSSOVER_ROUND_TRIPS:
        raise BenchError(
            f"at {top} clients the one-sided build spent only "
            f"{one_sided['remote_ops_per_op']:.2f} round-trips/op — "
            f"never crossed the paper's ~{_CROSSOVER_ROUND_TRIPS:.0f} "
            "round-trip budget"
        )
    if rfp["queue_mops"] <= one_sided["queue_mops"]:
        raise BenchError(
            f"past the crossover the RFP queue must win: "
            f"{rfp['queue_mops']:.3f} vs {one_sided['queue_mops']:.3f} MOPS "
            f"at {top} clients"
        )
    return _result(
        run,
        ["structure", "queue_clients"] + _TXN_COLUMNS,
        rows,
        f"one-sided cost grew {costs[0]:.2f} -> {costs[-1]:.2f} round-trips/op "
        f"over {counts[0]} -> {top} clients while RFP held 1.00; at {top} "
        f"clients RFP wins {rfp['queue_mops']:.3f} vs "
        f"{one_sided['queue_mops']:.3f} MOPS; {rfp['txn_committed']} txns "
        "committed with 0 torn groups, 0 lost acked writes, 0 leaked leases",
    )


def _latency_cdf(run: RunResult) -> ExperimentResult:
    """Percentile rows then the mean, one column per system, with each
    system's raw latency samples as the CSV series."""
    outcomes = run.outcomes
    rows: List[List] = [
        [p] + [fmt(o.metrics[f"p{p}_latency_us"]) for o in outcomes]
        for p in PERCENTILES
    ]
    rows.append(["mean"] + [fmt(o.metrics["mean_latency_us"]) for o in outcomes])
    result = _result(
        run,
        ["percentile"] + [f"{o.condition.paradigm}_us" for o in outcomes],
        rows,
        "means: "
        + ", ".join(
            f"{o.condition.paradigm} {mean}" for o, mean in zip(outcomes, rows[-1][1:])
        ),
    )
    result.series = {
        o.condition.paradigm: o.series["latency_us"].tolist()
        for o in outcomes
    }
    return result


_PARAMS_ROWS = (
    ("N (retry upper bound)", "retry_bound"),
    ("crossover process time (us)", "crossover_us"),
    ("L (bytes)", "lower_bytes"),
    ("H (bytes)", "upper_bytes"),
    ("chosen R, 32B values", "small_retry"),
    ("chosen F, 32B values", "small_fetch"),
    ("chosen R, mixed 32B-8KB", "mixed_retry"),
    ("chosen F, mixed 32B-8KB", "mixed_fetch"),
)


def _params_table(run: RunResult) -> ExperimentResult:
    metrics = run.outcome("base").metrics
    return _result(
        run,
        ["quantity", "value"],
        [[quantity, fmt(metrics[name])] for quantity, name in _PARAMS_ROWS],
    )


_NICS = {"eurosys17": "ConnectX-3 (5.3x asym)", "symmetric": "symmetric (1.0x)"}


def _ablation_table(run: RunResult) -> ExperimentResult:
    """The pivot plus RFP's gain over server-reply on each NIC."""
    columns, rows = pivot(
        run,
        Table(rows=("cluster",), cols="paradigm", labels={"cluster": "nic", **_NICS}),
    )
    for row, cluster in zip(rows, _NICS):
        jakiro, reply = (
            run.outcome(f"cluster={cluster},paradigm={system}").metrics["mops"]
            for system in ("jakiro", "serverreply")
        )
        row.append(fmt(jakiro / max(reply, 1e-9)))
    return _result(run, columns + ["rfp_gain"], rows)


_UD_SYSTEMS = {
    "rfp": "rfp (RC)",
    "serverreply": "server-reply (RC)",
    "herd": "herd (UC/UD)",
}


def _ud_rpc_table(run: RunResult) -> ExperimentResult:
    """One row per condition: RC paradigms never retransmit."""
    rows = [
        [
            _UD_SYSTEMS[outcome.condition.paradigm],
            outcome.condition.settings.get("loss_probability", 0.0),
            fmt(outcome.metrics["mops"]),
            outcome.metrics.get("retransmits", 0),
        ]
        for outcome in run.outcomes
    ]
    return _result(run, ["system", "loss_probability", "mops", "retransmits"], rows)


SPECS: Dict[str, ExperimentSpec] = {
    "fig3": ExperimentSpec(
        experiment_id="fig3",
        title="In-bound vs out-bound IOPS (32 B)",
        driver="raw-verbs",
        base={"paradigm": "outbound"},
        axes={
            "server_threads": Sweep(
                (1, 2, 4, 8, 16), (1, 2, 4, 6, 8, 10, 12, 14, 16)
            )
        },
        # The in-bound peak the sweep is contrasted against: one
        # measurement at the §2.2 saturating client count.
        extras=({"paradigm": "inbound", "client_threads": 28},),
        table=Table(rows=("server_threads",), cols="paradigm"),
        paper_expectation=(
            "out-bound saturates ~2.11 MOPS with 4 threads; in-bound peak "
            "~11.26 MOPS (~5x asymmetry)"
        ),
    ),
    "fig4": ExperimentSpec(
        experiment_id="fig4",
        title="Server in-bound IOPS vs client threads",
        driver="raw-verbs",
        base={"paradigm": "inbound"},
        axes={
            "client_threads": Sweep(
                (7, 21, 35, 49, 70),
                (7, 14, 21, 28, 35, 42, 49, 56, 63, 70),
            )
        },
        paper_expectation=(
            "rises to ~11.26 MOPS around 28-35 threads, then sags mildly "
            "(client-side mutex/QP/CQ contention)"
        ),
    ),
    "tab1": ExperimentSpec(
        experiment_id="tab1",
        title="Design-choice grid of Table 1, measured",
        driver="paradigm",
        base={
            "server_threads": 16,
            "client_threads": 35,
            # The RDTSC-controlled echo handler burns exactly this long.
            "process_us": 0.3,
            # Server-bypass corner: ~3 one-sided reads per logical
            # request (the amplification Pilaf pays).
            "amplification": 3,
        },
        axes={
            "paradigm": ("server-reply", "server-bypass", "RFP", "meaningless")
        },
        table=_tab1_grid,
        paper_expectation=(
            "RFP dominates: server-reply capped by out-bound (~2.1); bypass "
            "loses to amplification; the bypassed+out-bound corner gains "
            "nothing over server-reply"
        ),
    ),
    "ext-cluster-scaling": ExperimentSpec(
        experiment_id="ext-cluster-scaling",
        title="Cluster: aggregate throughput vs shard count",
        driver="cluster",
        base={
            "machines": _MACHINES_18,
            "replication_factor": 1,
            "op_timeout_us": 500.0,
            # Fixed client population on the machines no shard
            # configuration uses, so every row offers the same load.
            "client_slot_start": 6,
            "client_threads": 60,
        },
        axes={"shards": Sweep((1, 3, 6), (1, 2, 3, 4, 6))},
        table=Table(
            rows=("shards",),
            metrics=("client_threads", "run_mops"),
            labels={"run_mops": "aggregate_mops"},
        ),
        paper_expectation=(
            "§4.5: the ~5.5 MOPS in-bound ceiling is per-NIC; sharding "
            "across server machines multiplies aggregate throughput until "
            "the fixed client population becomes the limit"
        ),
    ),
    "ext-cluster-failover": ExperimentSpec(
        experiment_id="ext-cluster-failover",
        title="Cluster: throughput through a single-shard crash (RF=2)",
        driver="cluster",
        base=dict(
            _CRASH_BASE,
            audit="failover",
            faults=(FaultPoint(0.5, "kill", "shard1"),),
            phases=(
                Phase("pre", 0.25, 0.5),
                Phase("dip", 0.5, 0.6),
                Phase("post", 0.6, 1.0),
            ),
        ),
        table=_crash_table,
        paper_expectation=(
            "the hybrid rule (§3.2) degrades calls stuck on the dead shard "
            "to a cheap blocked wait while routing falls over to replicas: "
            "the dip stays shallow, steady state recovers, no acked write "
            "is lost, and healthy shards stay in-bound-only"
        ),
    ),
    "ext-cluster-rejoin": ExperimentSpec(
        experiment_id="ext-cluster-rejoin",
        title="Cluster: crash, recovery transfer, and ring rejoin (RF=2)",
        driver="cluster",
        base=dict(
            _CRASH_BASE,
            audit="rejoin",
            faults=(
                FaultPoint(0.4, "kill", "shard1"),
                FaultPoint(0.6, "repair", "shard1"),
            ),
            phases=(
                Phase("pre", 0.25, 0.4),
                Phase("dip", 0.4, 0.5),
                Phase("outage", 0.5, 0.6),
                Phase("rejoin", 0.6, 0.8),
                Phase("post", 0.8, 1.0),
            ),
        ),
        table=_crash_table,
        paper_expectation=(
            "recovery traffic rides the same in-bound NIC pipeline the "
            "paper's fetch path uses, so donors stay in-bound-only and "
            "the transfer coexists with live load; the watermarked "
            "handoff restores the pre-crash ring with zero lost acked "
            "writes and post-rejoin throughput within 5% of pre-crash"
        ),
    ),
    "ext-cluster-rebalance": ExperimentSpec(
        experiment_id="ext-cluster-rebalance",
        title="Cluster: live vnode rebalancing under a Zipf hot-set",
        driver="cluster",
        base={
            "kind": "ledger",
            "value_bytes": 64,
            "records_cap": 240,
            "machines": _MACHINES_18,
            "shards": 3,
            "replication_factor": 1,
            # Enough offered load to saturate the hot shard's in-bound
            # NIC while the cold shards sit far below theirs — the
            # imbalance the controller exists to fix.
            "client_threads": 60,
            "client_slot_start": 6,
            "tracing": True,
            "zero_jitter": True,
            "op_timeout_us": 500.0,
            # No shard dies here; an astronomically high slow-call
            # threshold keeps the hybrid rule from degrading calls on
            # the (merely overloaded) hot shard to server-reply, which
            # would break the donors-stay-in-bound-only audit.
            "consecutive_slow_calls": 1_000_000,
            "put_every": 8,
            "audit": "rebalance",
            # The skew scenario: Zipf(1.2) GETs with the hottest ranks
            # pinned onto shard1 (workloads.zipf.pin_hot_ranks), so one
            # NIC carries most of the read traffic until vnodes move.
            "hot_shard": "shard1",
            "zipf_exponent": 1.2,
            # Below the default 1.4 so the controller keeps refining
            # past the first coarse move instead of declaring victory
            # at a still-lopsided ring.
            "rebalance_threshold": 1.2,
            "hot_ranks": 60,
            "rebalance_start_frac": 0.3,
            "rebalance_stop_frac": 0.6,
            "phases": (
                Phase("pre", 0.1, 0.3),
                Phase("spread", 0.3, 0.6),
                Phase("post", 0.6, 1.0),
            ),
        },
        axes={"rebalance": (False, True)},
        setting_axes=("rebalance",),
        table=_rebalance_table,
        paper_expectation=(
            "the per-NIC in-bound ceiling (§2.2) caps a skew-pinned "
            "shard; live vnode migration spreads the hot ranges so "
            "aggregate throughput recovers toward shards x ceiling — "
            ">=1.5x the no-rebalance baseline post-spread — with zero "
            "lost acked writes and donors in-bound-only throughout"
        ),
    ),
    "ext-txn-structures": ExperimentSpec(
        experiment_id="ext-txn-structures",
        title="Txns + a FIFO queue built twice: one-sided verbs vs RFP RPC",
        driver="txn-structures",
        base={
            "machines": _MACHINES_18,
            "shards": 3,
            "replication_factor": 2,
            "value_bytes": 64,
            # Six transactional writers on machines 4-9 (the queue host
            # is machine 3); queue clients take the remaining slots.
            "client_slot_start": 4,
            "client_threads": 6,
            "txn_groups": 8,
            "group_keys": 3,
            "txn_rounds": 32,
            "queue_items": 192,
            "queue_item_bytes": 16,
            "empty_backoff_us": 2.0,
        },
        axes={
            "structure": ("one-sided", "rfp"),
            "queue_clients": Sweep((2, 8, 16), (2, 4, 8, 16, 24)),
        },
        setting_axes=("structure", "queue_clients"),
        table=_txn_table,
        paper_expectation=(
            "Table 1's verdict applied to a data structure: the "
            "one-sided build pays >=3 round-trips per op and loses CAS "
            "races under contention, so its per-op verb count climbs "
            "while the RPC build stays flat at 1 — past the paper's "
            "~2-3 round-trip crossover the RFP queue wins outright; "
            "meanwhile RF=2 multi-key transactions on the same fabric "
            "commit with zero torn groups and zero lost acked writes"
        ),
    ),
    # ------------------------------------------------------------------
    # The `paper` suite: §2.2, §3.2 and §4 figures and tables, then the
    # ablation and the §4.5/§5 extensions.
    # ------------------------------------------------------------------
    "fig5": ExperimentSpec(
        experiment_id="fig5",
        title="IOPS vs payload size",
        driver="raw-verbs",
        # Out-bound at its 4-thread saturation point; both lines on 80%
        # of the scale's window.
        base={"server_threads": 4, "window_fraction": 0.8},
        axes={
            "value_bytes": Sweep(
                (32, 128, 256, 512, 1024, 2048, 4096),
                (32, 64, 128, 256, 512, 1024, 2048, 4096),
            ),
            "paradigm": ("inbound", "outbound"),
        },
        table=Table(
            rows=("value_bytes",), cols="paradigm", labels={"value_bytes": "size_bytes"}
        ),
        paper_expectation=(
            "in-bound flat to ~256 B then falls to the bandwidth line; the "
            "two directions converge above ~2 KB"
        ),
    ),
    "fig6": ExperimentSpec(
        experiment_id="fig6",
        title="Bypass access amplification",
        driver="raw-verbs",
        base={"paradigm": "bypass", "client_threads": 21},
        axes={"amplification": Sweep((2, 4, 6, 8, 11, 15), tuple(range(2, 16)))},
        setting_axes=("amplification",),
        table=Table(
            rows=("amplification",),
            metrics=("mops", "inbound_mops"),
            labels={
                "amplification": "rdma_ops_per_request",
                "mops": "throughput_mops",
                "inbound_mops": "inbound_iops_mops",
            },
        ),
        paper_expectation=(
            "request throughput collapses ~1/k while the NIC stays at high "
            "in-bound IOPS; below 1 MOPS past ~12 ops/request"
        ),
    ),
    "fig9": ExperimentSpec(
        experiment_id="fig9",
        title="Repeated remote fetching vs server-reply vs process time",
        driver="paradigm",
        # 1-byte results; remote fetching reads F = 16 B.
        base={"server_threads": 16, "response_bytes": 1},
        axes={
            "process_us": Sweep((1, 3, 5, 7, 8, 10, 12, 15), tuple(range(1, 16))),
            "paradigm": ("rfp-no-switch", "serverreply"),
        },
        overrides={"paradigm=rfp-no-switch": {"fetch_size": 16}},
        table=Table(
            rows=("process_us",),
            cols="paradigm",
            labels={
                "process_us": "process_time_us",
                "rfp-no-switch_mops": "remote_fetch_mops",
                "serverreply_mops": "server_reply_mops",
            },
        ),
        paper_expectation=(
            "fetching wins below ~7 us of process time (within 10% above), "
            "server-reply flat at ~2.1 MOPS"
        ),
    ),
    "fig10": ExperimentSpec(
        experiment_id="fig10",
        title="Jakiro throughput vs client threads (95% GET, 32 B)",
        driver="kv",
        base={"paradigm": "jakiro"},
        axes={
            "client_threads": Sweep(
                (7, 21, 35, 49, 70), (7, 14, 21, 28, 35, 42, 49, 56, 63, 70)
            )
        },
        paper_expectation="peak ~5.5 MOPS at 35 threads, slight decline after",
    ),
    "fig11": ExperimentSpec(
        experiment_id="fig11",
        title="Jakiro vs Pilaf, uniform 50% GET, 20 Gbps NICs",
        driver="kv",
        base={"cluster": "20gbps", "client_threads": 25, "get_fraction": 0.5},
        axes={
            "value_bytes": Sweep((32, 128, 256), (32, 64, 128, 256)),
            "paradigm": ("jakiro", "pilaf"),
        },
        overrides={
            # Pre-run parameter selection: F grows to cover the fixed
            # response in one read (the paper re-selects F per workload).
            "paradigm=jakiro": {"fetch_size": "fit"},
            # Pilaf's PUT server is single-threaded.
            "paradigm=pilaf": {"server_threads": 1},
        },
        paper_expectation=(
            "Jakiro ~5.4 MOPS vs Pilaf ~1.3 MOPS (about 4x) across "
            "32-256 B values"
        ),
    ),
    "fig12": ExperimentSpec(
        experiment_id="fig12",
        title="Throughput vs server threads (95% GET, 32 B)",
        driver="kv",
        axes={
            "server_threads": Sweep(
                (1, 2, 4, 6, 10, 16), (1, 2, 4, 6, 8, 10, 12, 14, 16)
            ),
            "paradigm": _SYSTEMS,
        },
        paper_expectation=(
            "Jakiro 5.5 MOPS from ~2 threads; ServerReply peaks 2.1 at 4-6 "
            "threads then declines; RDMA-Memcached CPU-bound, rising to "
            "~1.3 at 16 threads"
        ),
    ),
    "fig13": ExperimentSpec(
        experiment_id="fig13",
        title="Latency CDF at peak (uniform, 95% GET, 32 B)",
        driver="kv",
        axes={"paradigm": _SYSTEMS},
        overrides=_MEMCACHED_PEAK,
        table=_latency_cdf,
        paper_expectation=(
            "Jakiro mean 5.78 µs (99% < 7 µs); ServerReply mean 12.06 µs "
            "but lower 15th percentile; Memcached mean 14.76 µs; all have "
            "tails, Jakiro's shortest"
        ),
    ),
    "fig14": ExperimentSpec(
        experiment_id="fig14",
        title="Hybrid switch: throughput vs request process time",
        driver="paradigm",
        base={"server_threads": 16},
        axes={
            "process_us": Sweep((1, 3, 5, 7, 9, 12), tuple(range(1, 13))),
            "paradigm": ("rfp", "serverreply", "rfp-no-switch"),
        },
        table=Table(
            rows=("process_us",),
            cols="paradigm",
            labels={
                "process_us": "process_time_us",
                "rfp_mops": "jakiro_mops",
                "rfp-no-switch_mops": "jakiro_no_switch_mops",
            },
        ),
        paper_expectation=(
            "Jakiro 30-320% above ServerReply below 7 µs; comparable at and "
            "above 7 µs once RFP switches to server-reply"
        ),
    ),
    "fig15": ExperimentSpec(
        experiment_id="fig15",
        title="Jakiro client CPU utilization vs process time",
        driver="paradigm",
        base={"paradigm": "rfp", "server_threads": 16, "client_cpu": True},
        axes={"process_us": Sweep((1, 3, 5, 7, 9, 12), tuple(range(1, 13)))},
        table=Table(
            rows=("process_us",),
            metrics=("client_cpu_percent", "clients_in_reply_mode"),
            labels={"process_us": "process_time_us"},
            formats={"clients_in_reply_mode": int},
        ),
        paper_expectation=(
            "~100% while remote fetching (P < 7 µs); drops below 30% once "
            "the client switches to server-reply"
        ),
    ),
    "fig16": ExperimentSpec(
        experiment_id="fig16",
        title="Throughput vs GET percentage (uniform, 32 B)",
        driver="kv",
        axes={"get_fraction": (0.95, 0.5, 0.05), "paradigm": _SYSTEMS},
        overrides=_MEMCACHED_PEAK,
        table=Table(
            rows=("get_fraction",),
            cols="paradigm",
            labels={"get_fraction": "get_percent"},
            formats={"get_fraction": _PERCENT},
        ),
        paper_expectation=(
            "Jakiro ~5.5 MOPS at 95/50/5% GET; ServerReply ~2.1 throughout; "
            "Memcached degrades as writes grow (Jakiro ~14x at 95% PUT)"
        ),
    ),
    "fig17": ExperimentSpec(
        experiment_id="fig17",
        title="Throughput vs value size (uniform, 95% GET)",
        driver="kv",
        axes={
            "value_bytes": Sweep(
                (32, 128, 512, 1024, 2048, 4096, 8192, "32-8192 mix"),
                (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, "32-8192 mix"),
            ),
            "paradigm": _SYSTEMS,
        },
        overrides={"paradigm=jakiro": {"fetch_size": 640}, **_MEMCACHED_PEAK},
        paper_expectation=(
            "Jakiro wins 60-280% up to 2 KB; all three converge at 4 KB+ "
            "(bandwidth); mixed 32B-8KB: 3.58 vs 1.49 vs 1.02 MOPS"
        ),
    ),
    "fig18": ExperimentSpec(
        experiment_id="fig18",
        title="Jakiro throughput vs fetch size F (uniform, 95% GET)",
        driver="kv",
        base={"paradigm": "jakiro"},
        axes={
            "value_bytes": Sweep(
                (32, 256, 512, 640, 1024, 2048),
                (32, 64, 128, 256, 384, 512, 640, 768, 1024, 2048),
            ),
            "fetch_size": (256, 512, 640, 748, 1024),
        },
        setting_axes=("fetch_size",),
        table=Table(rows=("value_bytes",), cols="fetch_size", name="F={col}"),
        paper_expectation=(
            "F=640 holds good throughput across 32-640 B values; small F "
            "pays a second read for large values; F=1024 is bandwidth-bound"
        ),
    ),
    "fig19": ExperimentSpec(
        experiment_id="fig19",
        title="Throughput vs GET percentage (Zipf .99, 32 B)",
        driver="kv",
        base={"distribution": "zipfian"},
        axes={"get_fraction": (0.95, 0.5, 0.05), "paradigm": _SYSTEMS},
        overrides=_MEMCACHED_PEAK,
        table=Table(
            rows=("get_fraction",),
            cols="paradigm",
            labels={"get_fraction": "get_percent"},
            formats={"get_fraction": _PERCENT},
        ),
        paper_expectation=(
            "Jakiro still ~5.5 MOPS; ServerReply ~2.1; Memcached benefits "
            "from locality and reaches ~2.1 at 95% GET"
        ),
    ),
    "fig20": ExperimentSpec(
        experiment_id="fig20",
        title="Latency CDF (Zipf .99, 95% GET, 32 B)",
        driver="kv",
        base={"distribution": "zipfian"},
        axes={"paradigm": _SYSTEMS},
        overrides=_MEMCACHED_PEAK,
        table=_latency_cdf,
        paper_expectation="Jakiro best mean latency under skew as well",
    ),
    "tab3": ExperimentSpec(
        experiment_id="tab3",
        title="Fetch retries N per workload (Table 3)",
        driver="kv",
        base={"paradigm": "jakiro"},
        axes={"distribution": ("uniform", "zipfian"), "get_fraction": (0.95, 0.05)},
        table=Table(
            rows=("distribution", "get_fraction"),
            metrics=("slow_fetch_percent", "max_fetch_attempts"),
            labels={
                "get_fraction": "get_percent",
                "slow_fetch_percent": "percent_N_gt_1",
                "max_fetch_attempts": "largest_N",
            },
            formats={"get_fraction": _PERCENT},
        ),
        paper_expectation=(
            "N>1 for ~0.09-0.13% of requests; largest N between 4 and 9; "
            "never two consecutive slow calls (no spurious switches)"
        ),
    ),
    "params": ExperimentSpec(
        experiment_id="params",
        title="Parameter selection (R, F) per §3.2",
        driver="params",
        table=_params_table,
        paper_expectation=(
            "N=5 at P≈7 µs; L=256, H=1024; R=5, F=256 for 32 B values "
            "(F=640 quoted for the mixed workload; Eq. 2 as published "
            "prefers the smaller F — see EXPERIMENTS.md)"
        ),
    ),
    "breakdown": ExperimentSpec(
        experiment_id="breakdown",
        title="Per-phase latency decomposition of an RFP call",
        driver="breakdown",
        axes={"process_us": Sweep((0.2, 2.0, 5.0), (0.2, 1.0, 2.0, 3.0, 5.0))},
        table=Table(
            rows=("process_us",),
            metrics=("send_us", "server_us", "fetch_us", "total_us"),
            labels={"process_us": "process_time_us"},
        ),
        paper_expectation=(
            "not a paper figure — explains Fig. 13: at peak load most of "
            "the latency sits in the server phase (queueing for worker "
            "threads), while send and fetch stay near their unloaded costs"
        ),
    ),
    "ablation-symmetric": ExperimentSpec(
        experiment_id="ablation-symmetric",
        title="Ablation: remove the in/out-bound asymmetry",
        driver="kv",
        axes={
            "cluster": ("eurosys17", "symmetric"),
            "paradigm": ("jakiro", "serverreply"),
        },
        setting_axes=("cluster",),
        table=_ablation_table,
        paper_expectation=(
            "RFP's advantage is built on Observation 1; on a symmetric NIC "
            "remote fetching should gain ~nothing over server-reply"
        ),
    ),
    "ext-multiserver": ExperimentSpec(
        experiment_id="ext-multiserver",
        title="Extension: Jakiro sharded across server machines",
        driver="cluster",
        # RF=1 on the 18-port switch; the wide operation timeout keeps
        # the failure detector quiet so this measures pure scaling.
        base={
            "machines": _MACHINES_18,
            "replication_factor": 1,
            "op_timeout_us": 500.0,
        },
        axes={"shards": (1, 2, 3)},
        # Five client threads on every machine no shard uses.
        overrides={
            f"shards={shards}": {"client_threads": 5 * (_MACHINES_18 - shards)}
            for shards in (1, 2, 3)
        },
        table=Table(
            rows=("shards",),
            metrics=("client_threads", "run_mops"),
            labels={"shards": "server_machines", "run_mops": "aggregate_mops"},
        ),
        paper_expectation=(
            "§4.5: the asymmetry pays off whenever clients outnumber "
            "servers; aggregate throughput should scale with server count"
        ),
    ),
    "ext-ud-rpc": ExperimentSpec(
        experiment_id="ext-ud-rpc",
        title="Extension: HERD-style UC/UD RPC vs the RC paradigms",
        driver="paradigm",
        base={"process_us": 0.2, "server_threads": 16},
        axes={"paradigm": ("rfp", "serverreply")},
        extras=tuple(
            {"paradigm": "herd", "server_threads": 6, "loss_probability": loss}
            for loss in (0.0, 0.01, 0.05)
        ),
        setting_axes=("loss_probability",),
        table=_ud_rpc_table,
        paper_expectation=(
            "§5: UD replies out-rate RC server-reply (cheap datagram "
            "issue) but the server still spends out-bound work, so RFP "
            "leads; loss forces timeout/retransmit machinery and costs "
            "throughput"
        ),
    ),
    "ext-lock-bypass": ExperimentSpec(
        experiment_id="ext-lock-bypass",
        title="Extension: CAS-locked bypass (DrTM-style) vs Jakiro",
        driver="kv",
        base={"records_cap": 4096},
        axes={
            "distribution": ("uniform", "zipfian"),
            "paradigm": ("jakiro", "drtm"),
        },
        table=Table(
            rows=("distribution",),
            cols="paradigm",
            metrics=("mops", "cas_retries_per_op"),
            labels={"drtm_cas_retries_per_op": "cas_retries_per_op"},
        ),
        paper_expectation=(
            "§5: explicit-lock coordination multiplies one-sided ops; "
            "skew adds CAS contention on hot keys, while EREW Jakiro is "
            "skew-insensitive"
        ),
    ),
}
