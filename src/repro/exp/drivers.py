"""Condition drivers: the measurement machinery behind the matrix.

Each driver runs one :class:`~repro.exp.spec.Condition` to completion on
a fresh simulator obtained through the
:class:`~repro.exp.runner.ConditionContext` and returns its
*deterministic* metrics (simulated-time throughput, event counts, audit
ledgers) — never wall-clock numbers.

Seven drivers cover every experiment:

- ``raw-verbs`` — the §2.2 microbenchmarks: bare synchronous RDMA
  read/write loops (figs. 3-5) and the bypass loop of k reads per
  request (fig. 6).
- ``paradigm`` — the RDTSC-controlled echo RPC per paradigm (Table 1,
  figs. 9, 14, 15), the synthetic server-bypass corner, and HERD-style
  UC/UD RPC with message loss.
- ``kv`` — one closed-loop KV run of any registered system (or the
  DrTM-style CAS-locked store) under a YCSB workload, on a named
  testbed preset (figs. 10-20, Table 3, the symmetric-NIC ablation).
- ``cluster`` — the full sharded-cluster machinery: topology build,
  optional tracing with observer-attached invariant checkers, YCSB or
  acknowledged-write-ledger load, phase meters, a declarative
  :class:`~repro.cluster.faults.FaultPlan`, and the failover/rejoin
  audit suites that raise :class:`~repro.errors.BenchError` on any
  breach (so a clean run *is* the certificate).
- ``txn-structures`` — the ``ext-txn-structures`` crossover: a bounded
  transactional multi-PUT ledger (RF=2, atomicity audited key-by-key
  against every replica) running alongside the twice-built FIFO queue
  (:class:`~repro.cluster.structures.OneSidedQueue` vs
  :class:`~repro.cluster.structures.RfpQueue`), with conservation,
  bypass/NIC, and zero-leaked-lease audits after full quiescence.
- ``params`` — the §3.2 selection of (R, F) from the measured in-bound
  size curve and the fig. 9 crossover.
- ``breakdown`` — per-phase latency decomposition of an RFP call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.baselines.drtm import DrtmServer
from repro.baselines.herd import HerdServer
from repro.bench.breakdown import measure_breakdown
from repro.bench.calibration import (
    inbound_iops_curve,
    measure_inbound_iops,
    measure_outbound_iops,
    measured_fetch_round_trip_us,
    model_inbound_iops,
)
from repro.bench.harness import run_controlled_process_time, run_kv
from repro.cluster import (
    ClusterConfig,
    FaultPlan,
    QueueRegion,
    RebalanceConfig,
    RfpCluster,
    RfpQueue,
)
from repro.core.config import RfpConfig
from repro.core.params import derive_retry_bound, derive_size_bounds, select_parameters
from repro.errors import BenchError, ClusterError, ExpError
from repro.exp.runner import ConditionContext, Driver
from repro.exp.spec import Condition, phases_of
from repro.hw.cluster import Cluster, build_cluster
from repro.hw.specs import (
    CLUSTER_EUROSYS17,
    CONNECTX2,
    ClusterSpec,
    MachineSpec,
    NicSpec,
)
from repro.kv.store import StoreCostModel
from repro.paradigms.server_bypass import SyntheticBypassClient
from repro.sim.monitor import ThroughputMeter
from repro.sim.random import seeded_rng
from repro.sim.trace import Tracer
from repro.workloads.value_sizes import (
    FixedValues,
    UniformValues,
    ValueSizeDistribution,
)
from repro.workloads.ycsb import WorkloadSpec, YcsbWorkload
from repro.workloads.zipf import ZipfSampler, pin_hot_ranks

__all__ = ["DRIVERS"]

_SEQ = struct.Struct("<Q")


# ----------------------------------------------------------------------
# raw-verbs: §2.2 synchronous one-sided loops
# ----------------------------------------------------------------------


def run_raw_verbs(ctx: ConditionContext) -> Mapping[str, object]:
    """Bare in-bound (client reads) or out-bound (server writes) IOPS,
    or the bypass loop of k reads per logical request (fig. 6)."""
    condition = ctx.condition
    size = condition.workload.value_bytes
    window = condition.scale.window_us
    if condition.paradigm == "bypass":
        mops, _, cluster = _run_bypass(ctx)
        return {
            "mops": mops,
            "inbound_mops": cluster.server.rnic.in_pipeline.operations / window,
        }
    if condition.paradigm == "outbound":
        mops = measure_outbound_iops(
            condition.topology.server_threads,
            size=size,
            window_us=window,
            sim=ctx.make_simulator(),
        )
    elif condition.paradigm == "inbound":
        mops = measure_inbound_iops(
            condition.topology.client_threads,
            size=size,
            window_us=window,
            sim=ctx.make_simulator(),
        )
    else:
        raise ExpError(
            f"raw-verbs paradigm must be 'inbound', 'outbound' or 'bypass', "
            f"got {condition.paradigm!r}"
        )
    return {"mops": mops}


def _run_bypass(ctx: ConditionContext) -> Tuple[float, int, Cluster]:
    """Server-bypass with k one-sided reads per logical request; returns
    request MOPS, completions, and the cluster (for its server NIC)."""
    condition = ctx.condition
    amplification = int(condition.settings.get("amplification", 3))
    sim = ctx.make_simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    region = cluster.server.register_memory(1 << 20)
    window = condition.scale.window_us
    warmup = window * condition.scale.warmup_fraction
    meter = ThroughputMeter(window_start=warmup, window_end=window)

    def loop(sim, client):
        while True:
            yield from client.request()
            meter.record(sim.now)

    machines = cluster.client_machines
    for index in range(condition.topology.client_threads):
        client = SyntheticBypassClient(
            sim, machines[index % len(machines)], cluster, region, amplification
        )
        sim.process(loop(sim, client))
    sim.run(until=window)
    return meter.mops(elapsed=window - warmup), meter.completions, cluster


# ----------------------------------------------------------------------
# paradigm: the Table 1 grid (controlled echo RPC + bypass corner)
# ----------------------------------------------------------------------

#: Table 1 row -> (controlled-run mode, forced process time or None).
_PARADIGM_MODES = {
    "RFP": ("rfp", None),
    "rfp": ("rfp", None),
    "rfp-no-switch": ("rfp-no-switch", None),
    "server-reply": ("serverreply", None),
    "serverreply": ("serverreply", None),
    # Server bypassed for processing yet replying out-bound: at best it
    # behaves like server-reply with zero process time, i.e. it inherits
    # the out-bound ceiling with no compensation.
    "meaningless": ("serverreply", 0.0),
}


def _rfp_config(settings: Mapping[str, object]) -> Optional[RfpConfig]:
    """``fetch_size`` -> the condition's RfpConfig (None: the default)."""
    fetch = settings.get("fetch_size")
    return None if fetch is None else RfpConfig(fetch_size=int(fetch))


def _run_herd(ctx: ConditionContext) -> Mapping[str, object]:
    """HERD-style UC-request/UD-reply echo RPC, optionally lossy."""
    condition = ctx.condition
    process_us = condition.workload.process_us
    sim = ctx.make_simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    server = HerdServer(
        sim,
        cluster,
        handler=lambda payload, context: (payload, process_us),
        threads=condition.topology.server_threads,
        loss_probability=float(condition.settings.get("loss_probability", 0.0)),
    )
    window = condition.scale.window_us
    warmup = window * condition.scale.warmup_fraction
    meter = ThroughputMeter(window_start=warmup, window_end=window)
    clients = []

    def loop(sim, client):
        while True:
            yield from client.call(bytes(16))
            meter.record(sim.now)

    machines = cluster.client_machines
    for index in range(condition.topology.client_threads):
        client = server.connect(machines[index % len(machines)])
        clients.append(client)
        sim.process(loop(sim, client))
    sim.run(until=window)
    return {
        "mops": meter.mops(elapsed=window - warmup),
        "operations": meter.completions,
        "retransmits": sum(client.stats.retransmits.value for client in clients),
    }


def run_paradigm(ctx: ConditionContext) -> Mapping[str, object]:
    condition = ctx.condition
    if condition.paradigm == "server-bypass":
        mops, completions, _ = _run_bypass(ctx)
        return {"mops": mops, "operations": completions}
    if condition.paradigm == "herd":
        return _run_herd(ctx)
    entry = _PARADIGM_MODES.get(condition.paradigm)
    if entry is None:
        raise ExpError(
            f"unknown paradigm {condition.paradigm!r}; options: "
            f"{sorted(_PARADIGM_MODES) + ['herd', 'server-bypass']}"
        )
    mode, forced_process_us = entry
    process_us = (
        forced_process_us
        if forced_process_us is not None
        else float(condition.workload.process_us)
    )
    result = run_controlled_process_time(
        mode,
        process_us,
        server_threads=condition.topology.server_threads,
        client_threads=condition.topology.client_threads,
        scale=condition.scale,
        response_bytes=condition.workload.response_bytes,
        config=_rfp_config(condition.settings),
        sim=ctx.make_simulator(),
    )
    metrics: Dict[str, object] = {
        "mops": result.throughput_mops,
        "operations": result.operations_completed,
        "replies_sent": result.replies_sent,
        "requests_served": result.requests_served,
        "clients_in_reply_mode": result.extras.get("clients_in_reply_mode", 0.0),
    }
    if condition.settings.get("client_cpu"):
        metrics["client_cpu_percent"] = 100.0 * result.client_cpu_utilization
    return metrics


# ----------------------------------------------------------------------
# kv: one closed-loop KV run
# ----------------------------------------------------------------------


#: ``cluster`` setting -> the testbed the kv driver builds.
CLUSTERS: Dict[str, ClusterSpec] = {
    "eurosys17": CLUSTER_EUROSYS17,
    # The paper's 20 Gbps / 6-machine setup of the Pilaf comparison.
    "20gbps": ClusterSpec(
        machine=MachineSpec(nic=CONNECTX2, cores=16, memory_gb=96), machines=6
    ),
    # A hypothetical NIC whose issue path is as fast as its serve path:
    # both pipelines at the CX-3 *out-bound* rate, so neither side gets
    # the asymmetry windfall (the ablation of Observation 1).
    "symmetric": ClusterSpec(
        machine=MachineSpec(
            nic=NicSpec(
                name="symmetric-hypothetical",
                bandwidth_gbps=40.0,
                inbound_peak_mops=2.11,
                outbound_peak_mops=2.11,
                read_extra_us=0.0,
            ),
            cores=16,
            memory_gb=96,
        ),
        machines=8,
    ),
}

#: Latency percentiles every kv condition reports (the CDF figures).
PERCENTILES = (5, 15, 25, 50, 75, 90, 95, 99)


def _value_sizes(value_bytes: object) -> ValueSizeDistribution:
    """An int is a fixed size; ``"LO-HI mix"`` is uniform over [LO, HI]."""
    if isinstance(value_bytes, str):
        low, high = value_bytes.split()[0].split("-")
        return UniformValues(int(low), int(high))
    return FixedValues(int(value_bytes))


def _kv_config(condition: Condition) -> Optional[RfpConfig]:
    """``fetch_size``; ``"fit"`` is the pre-run selection that grows F to
    cover a fixed response in one read (§3.2)."""
    if condition.settings.get("fetch_size") == "fit":
        size = int(condition.workload.value_bytes)
        return RfpConfig(fetch_size=max(256, min(1024, size + 48)))
    return _rfp_config(condition.settings)


def run_kv_condition(ctx: ConditionContext) -> Mapping[str, object]:
    condition = ctx.condition
    value_bytes = condition.workload.value_bytes
    workload = WorkloadSpec(
        records=condition.workload.resolve_records(condition.scale),
        get_fraction=condition.workload.get_fraction,
        distribution=condition.workload.distribution,
        value_sizes=_value_sizes(value_bytes),
        seed=condition.workload.seed,
    )
    cluster_spec = CLUSTERS[str(condition.settings.get("cluster", "eurosys17"))]
    if condition.paradigm == "drtm":
        return _run_drtm(ctx, workload, cluster_spec)
    # Pilaf's fixed record slots are sized to the workload's values.
    slots = (
        {"value_limit": max(256, int(value_bytes))}
        if condition.paradigm == "pilaf"
        else {}
    )
    result = run_kv(
        condition.paradigm,
        workload,
        server_threads=condition.topology.server_threads,
        client_threads=condition.topology.client_threads,
        scale=condition.scale,
        config=_kv_config(condition),
        cluster_spec=cluster_spec,
        sim=ctx.make_simulator(),
        **slots,
    )
    ctx.series["latency_us"] = result.latency_us
    attempts = np.asarray(result.fetch_attempts, dtype=int)
    metrics: Dict[str, object] = {
        "mops": result.throughput_mops,
        "operations": result.operations_completed,
        "mean_latency_us": result.mean_latency(),
    }
    for percentile in PERCENTILES:
        metrics[f"p{percentile}_latency_us"] = result.percentile_latency(percentile)
    metrics["client_cpu_utilization"] = result.client_cpu_utilization
    # Table 3: share of calls needing more than one fetch, and the worst.
    metrics["slow_fetch_percent"] = (
        float(np.mean(attempts > 1) * 100.0) if len(attempts) else 0.0
    )
    metrics["max_fetch_attempts"] = int(attempts.max()) if len(attempts) else 0
    return metrics


def _run_drtm(
    ctx: ConditionContext, workload: WorkloadSpec, cluster_spec: ClusterSpec
) -> Mapping[str, object]:
    """DrTM-style CAS-locked bypass store: 3+ one-sided verbs per op,
    plus CAS retries on contended keys."""
    condition = ctx.condition
    sim = ctx.make_simulator()
    cluster = build_cluster(sim, cluster_spec)
    server = DrtmServer(sim, cluster, capacity=workload.records * 2)
    generator = YcsbWorkload(workload)
    server.preload(generator.dataset())
    window = condition.scale.window_us
    warmup = window * condition.scale.warmup_fraction
    meter = ThroughputMeter(window_start=warmup, window_end=window)
    clients = []

    def loop(sim, client, operations):
        for op in operations:
            if op.is_get:
                yield from client.get(op.key)
            else:
                yield from client.put(op.key, op.value[: server.max_value_bytes])
            meter.record(sim.now)

    machines = cluster.client_machines
    for index in range(condition.topology.client_threads):
        client = server.connect(machines[index % len(machines)])
        clients.append(client)
        sim.process(loop(sim, client, generator.operations(f"c{index}")))
    sim.run(until=window)
    retries = sum(client.stats.cas_retries.value for client in clients)
    return {
        "mops": meter.mops(elapsed=window - warmup),
        "operations": meter.completions,
        "cas_retries_per_op": retries / max(1, meter.completions),
    }


# ----------------------------------------------------------------------
# cluster: sharded RfpCluster with phases, faults, and audits
# ----------------------------------------------------------------------


@dataclass
class _ClusterRun:
    """Everything the audit suites interrogate after the window closes."""

    ctx: ConditionContext
    service: RfpCluster
    plan: Optional[FaultPlan]
    victim: Optional[str]
    acked: Dict[bytes, int]
    pre_crash_ring: List[str]
    phase_mops: Dict[str, float]
    phase_bounds: Dict[str, Tuple[float, float]]
    replication_factor: int

    def checker(self, name: str):
        checker = self.ctx.checkers.get(name)
        if checker is None:
            raise ExpError(
                f"audit needs the {name!r} invariant checker — run under "
                "an InvariantObserver (repro.exp.runner.default_observers)"
            )
        return checker


def _seq_value(sequence: int, value_bytes: int) -> bytes:
    return _SEQ.pack(sequence) + b"\x00" * (value_bytes - _SEQ.size)


def _stored_seq(value: bytes) -> int:
    return _SEQ.unpack_from(value)[0]


def _ledger_workload(
    records: int, clients: int
) -> Tuple[List[bytes], Dict[int, List[bytes]]]:
    """All keys, plus each client's disjoint set of *write* keys.

    Disjoint write ownership makes the acknowledged-write ledger exact:
    per key, the owner's latest acked sequence number is the durability
    obligation, with no cross-client ordering to reason about.
    """
    keys = [f"key{i:06d}".encode() for i in range(records)]
    per_client = max(1, records // clients)
    owned = {
        c: keys[c * per_client : (c + 1) * per_client] for c in range(clients)
    }
    return keys, owned


def run_cluster(ctx: ConditionContext) -> Mapping[str, object]:
    condition = ctx.condition
    topology = condition.topology
    workload = condition.workload
    scale = condition.scale
    settings = condition.settings
    window = scale.window_us
    phases = phases_of(condition)
    audit = settings.get("audit")
    if audit not in (None, "failover", "rejoin", "rebalance"):
        raise ExpError(f"unknown cluster audit {audit!r}")

    sim = ctx.make_simulator()
    cluster_spec = ClusterSpec(
        machine=CLUSTER_EUROSYS17.machine,
        machines=topology.machines,
        switch_hop_us=CLUSTER_EUROSYS17.switch_hop_us,
    )
    cluster = build_cluster(sim, cluster_spec)

    slow_calls = settings.get("consecutive_slow_calls")
    rfp_config = (
        RfpConfig(consecutive_slow_calls=int(slow_calls))
        if slow_calls is not None
        else None
    )
    cluster_tracer = None
    shard_tracers = None
    if settings.get("tracing", False):
        cluster_tracer = ctx.publish_tracer(
            "cluster", Tracer(sim, categories=["cluster"]), "cluster"
        )
        shard_tracers = {
            f"shard{i}": ctx.publish_tracer(
                f"shard{i}",
                Tracer(sim, capacity=1),
                "shard",
                rfp_config=RfpConfig(consecutive_slow_calls=int(slow_calls))
                if slow_calls is not None
                else None,
            )
            for i in range(topology.shards)
        }
    config_kwargs: Dict[str, object] = {
        "replication_factor": topology.replication_factor
    }
    if settings.get("op_timeout_us") is not None:
        config_kwargs["op_timeout_us"] = float(settings["op_timeout_us"])
    service = RfpCluster(
        sim,
        cluster,
        shards=topology.shards,
        server_threads=topology.server_threads,
        rfp_config=rfp_config,
        cost_model=StoreCostModel(jitter_probability=0.0)
        if settings.get("zero_jitter", False)
        else None,
        cluster_config=ClusterConfig(**config_kwargs),  # type: ignore[arg-type]
        tracer=cluster_tracer,
        shard_tracers=shard_tracers,
    )

    records = workload.resolve_records(scale)
    acked: Dict[bytes, int] = {}
    meters = [
        ThroughputMeter(
            window_start=window * phase.start_frac,
            window_end=window * phase.end_frac,
            name=phase.name,
        )
        for phase in phases
    ]

    if workload.kind == "ycsb":
        generator = YcsbWorkload(
            WorkloadSpec(
                records=records,
                get_fraction=workload.get_fraction,
                distribution=workload.distribution,
                value_sizes=FixedValues(workload.value_bytes),
                seed=workload.seed,
            )
        )
        service.preload(generator.dataset())

        def make_loop(client, client_id: int):
            operations = generator.operations(f"c{client_id}")

            def loop(sim, client, operations):
                for op in operations:
                    if op.is_get:
                        yield from client.get(op.key)
                    else:
                        yield from client.put(op.key, op.value)
                    now = sim.now
                    for meter in meters:
                        meter.record(now)

            return loop(sim, client, operations)

    elif workload.kind == "ledger":
        keys, owned_writes = _ledger_workload(records, topology.client_threads)
        value_bytes = workload.value_bytes
        put_every = workload.put_every
        service.preload([(key, _seq_value(0, value_bytes)) for key in keys])

        # The skew scenario (rebalance bench): GETs draw Zipf *ranks*,
        # and the rank->key table is rotated so the hottest ranks all
        # live on one shard.  Writes keep their disjoint uniform
        # ownership, so the durability ledger is unchanged.
        hot_shard = settings.get("hot_shard")
        if hot_shard is not None:
            get_keys = pin_hot_ranks(
                keys,
                service.ring.lookup,
                str(hot_shard),
                int(settings.get("hot_ranks", 16)),
            )
            sampler: Optional[ZipfSampler] = ZipfSampler(
                len(keys), float(settings.get("zipf_exponent", 0.99))
            )
        else:
            get_keys = keys
            sampler = None

        def make_loop(client, client_id: int):
            def loop(sim, client, client_id):
                rng = seeded_rng(client_id)
                my_keys = owned_writes[client_id]
                sequence = 0
                while True:
                    turn = sequence % put_every
                    if turn == put_every - 1:
                        key = my_keys[(sequence // put_every) % len(my_keys)]
                        sequence += 1
                        yield from client.put(key, _seq_value(sequence, value_bytes))
                        acked[key] = max(acked.get(key, 0), sequence)
                    else:
                        sequence += 1
                        if sampler is not None:
                            key = get_keys[int(sampler.sample(rng, 1)[0])]
                        else:
                            key = keys[int(rng.integers(len(keys)))]
                        yield from client.get(key)
                    now = sim.now
                    for meter in meters:
                        meter.record(now)

            return loop(sim, client, client_id)

    else:
        raise ExpError(
            f"cluster driver workload kind must be 'ycsb' or 'ledger', "
            f"got {workload.kind!r}"
        )

    pre_crash_ring = list(service.ring.nodes)
    slot_start = (
        topology.client_slot_start
        if topology.client_slot_start is not None
        else topology.shards
    )
    span = topology.machines - slot_start
    for index in range(topology.client_threads):
        machine = cluster.machines[slot_start + index % span]
        client = service.connect(machine, name=f"c{index}")
        sim.process(make_loop(client, index))

    plan: Optional[FaultPlan] = None
    victim: Optional[str] = None
    if condition.faults:
        plan = FaultPlan([point.resolve(window) for point in condition.faults])
        plan.arm(sim, service)
        victim = condition.faults[0].shard

    if settings.get("rebalance"):
        # Start the load-aware controller after the pre phase has
        # established the skewed baseline, and stop it before the post
        # phase so the measured steady state is migration-free.
        rebalancer_box: List[object] = []

        def _start_rebalancer() -> None:
            threshold = settings.get("rebalance_threshold")
            config = (
                RebalanceConfig(imbalance_threshold=float(threshold))
                if threshold is not None
                else None
            )
            rebalancer_box.append(service.start_rebalancer(config))

        sim.schedule(
            window * float(settings.get("rebalance_start_frac", 0.25)),
            _start_rebalancer,
        )
        stop_frac = settings.get("rebalance_stop_frac")
        if stop_frac is not None:

            def _stop_rebalancer() -> None:
                for controller in rebalancer_box:
                    controller.stop()

            sim.schedule(window * float(stop_frac), _stop_rebalancer)
    sim.run(until=window)

    phase_mops: Dict[str, float] = {}
    phase_bounds: Dict[str, Tuple[float, float]] = {}
    metrics: Dict[str, object] = {}
    for phase, meter in zip(phases, meters):
        start = window * phase.start_frac
        end = window * phase.end_frac
        mops = meter.mops(elapsed=end - start)
        phase_mops[phase.name] = mops
        phase_bounds[phase.name] = (start, end)
        metrics[f"{phase.name}_mops"] = mops
    metrics["dispatched"] = sim.dispatched

    if audit is not None:
        state = _ClusterRun(
            ctx=ctx,
            service=service,
            plan=plan,
            victim=victim,
            acked=acked,
            pre_crash_ring=pre_crash_ring,
            phase_mops=phase_mops,
            phase_bounds=phase_bounds,
            replication_factor=topology.replication_factor,
        )
        if audit == "failover":
            metrics.update(_audit_failover(state))
        elif audit == "rejoin":
            metrics.update(_audit_rejoin(state))
        else:
            metrics.update(_audit_rebalance(state))
    return metrics


def _lost_on_surviving_replica(state: _ClusterRun) -> int:
    """Acked writes unreadable from *every* surviving replica."""
    lost = 0
    for key, sequence in state.acked.items():
        stored = max(
            _stored_seq(
                state.service.peek(name, key) or _seq_value(0, 8)
            )
            for name in state.service.ring.lookup_replicas(
                key, state.replication_factor
            )
        )
        if stored < sequence:
            lost += 1
    return lost


def _audit_failover(state: _ClusterRun) -> Dict[str, object]:
    """The ``ext-cluster-failover`` claims: zero lost acked writes,
    exactly one failover, protocol + NIC-silence invariants everywhere."""
    service = state.service
    lost = _lost_on_surviving_replica(state)
    state.checker("cluster").assert_clean()
    failed_over = {event.shard for event in service.failover.events}
    if failed_over != {state.victim}:
        raise BenchError(
            f"expected exactly one failover of {state.victim}: {failed_over}"
        )
    for name in service.shards:
        checker = state.checker(name)
        handle = service.shards[name]
        # Every shard — dead included — must have stayed in-bound-only:
        # healthy shards because no client ever degraded them, the dead
        # one because a halted server cannot push replies.  Exact
        # in-bound matching is off because the open-loop clients leave
        # posted-but-unserved ops in the NIC pipeline at the window cut.
        checker.check_nic_accounting(
            handle.jakiro.server, expect_inbound_only=True, strict_inbound=False
        )
        checker.assert_clean()
    if lost:
        raise BenchError(f"{lost} acknowledged writes lost across failover")
    return {"lost_acked_writes": lost, "acked_keys": len(state.acked)}


def _audit_rejoin(state: _ClusterRun) -> Dict[str, object]:
    """The ``ext-cluster-rejoin`` claims: completed watermarked cutover
    restoring the pre-crash ring before the post window, per-replica
    durability, donors in-bound-only, rejoiner out-bound = its ranged
    reads, and post-rejoin throughput within 5% of pre-crash."""
    service = state.service
    plan = state.plan
    if plan is None or len(plan.recoveries) != 1:
        raise BenchError(
            f"expected exactly one recovery: "
            f"{plan.recoveries if plan else 'no fault plan'}"
        )
    recovery = plan.recoveries[0]
    if recovery.active or recovery.aborted:
        raise BenchError(f"recovery of {state.victim} did not complete: {recovery!r}")
    cutover_at = recovery.event.finished_at_us
    post_start = state.phase_bounds["post"][0]
    if cutover_at is None or cutover_at >= post_start:
        raise BenchError(
            f"cutover at {cutover_at} missed the post window ({post_start})"
        )
    if service.ring.nodes != state.pre_crash_ring:
        raise BenchError(
            f"rejoin did not restore the pre-crash ring: "
            f"{service.ring.nodes} != {state.pre_crash_ring}"
        )
    # Zero lost acked writes, *per replica*: every key's latest acked
    # sequence must be readable from every final-ring replica, the
    # rejoined shard included (no stale reads below the watermark).
    lost = 0
    for key, sequence in state.acked.items():
        for name in service.ring.lookup_replicas(key, state.replication_factor):
            stored = _stored_seq(service.peek(name, key) or _seq_value(0, 8))
            if stored < sequence:
                lost += 1
    state.checker("cluster").assert_clean()
    for name in service.shards:
        checker = state.checker(name)
        handle = service.shards[name]
        if name == state.victim:
            # The rejoiner's only out-bound verbs are its ranged-read
            # requests — one per transfer batch.
            outbound = handle.machine.rnic.outbound_ops
            if outbound != recovery.event.batches:
                raise BenchError(
                    f"rejoiner posted {outbound} out-bound ops; expected "
                    f"{recovery.event.batches} ranged reads"
                )
        else:
            # Donors served the transfer stream *in-bound*, alongside
            # live traffic: the paper's server NIC profile survives
            # recovery.
            checker.check_nic_accounting(
                handle.jakiro.server, expect_inbound_only=True, strict_inbound=False
            )
        checker.assert_clean()
    if lost:
        raise BenchError(f"{lost} acknowledged writes lost across the cycle")
    pre_mops = state.phase_mops["pre"]
    post_mops = state.phase_mops["post"]
    if post_mops < 0.95 * pre_mops:
        raise BenchError(
            f"post-rejoin throughput {post_mops:.3f} MOPS fell below "
            f"95% of pre-crash {pre_mops:.3f} MOPS"
        )
    return {
        "lost_acked_writes": lost,
        "acked_keys": len(state.acked),
        "handoff_at_us": cutover_at,
        "transferred_keys": recovery.event.transferred_keys,
        "catchup_keys": recovery.event.catchup_keys,
        "batches": recovery.event.batches,
    }


def _audit_rebalance(state: _ClusterRun) -> Dict[str, object]:
    """The ``ext-cluster-rebalance`` claims: every launched vnode
    migration cut over cleanly before the window closed, zero lost
    acked writes under live migration, donors in-bound-only throughout
    (each shard's only out-bound verbs are the ranged reads of the
    migrations *it received*), and the baseline condition moved
    nothing — so the throughput delta is attributable to the moves."""
    service = state.service
    enabled = bool(state.ctx.condition.settings.get("rebalance", False))
    state.checker("cluster").assert_clean()
    if service.active_migrations:
        raise BenchError(
            f"migrations still active at the window cut: "
            f"{[m.migration_key for m in service.active_migrations]}"
        )
    migrations = list(service.migrations)
    for migration in migrations:
        if migration.active or migration.aborted:
            raise BenchError(
                f"vnode migration {migration.migration_key} did not "
                f"complete cleanly: {migration.event!r}"
            )
    if enabled and not migrations:
        raise BenchError("rebalancing enabled but no vnode migration ran")
    if not enabled and migrations:
        raise BenchError(
            f"baseline run unexpectedly migrated vnodes: {len(migrations)}"
        )
    lost = _lost_on_surviving_replica(state)
    pulled: Dict[str, int] = {}
    for migration in migrations:
        pulled[migration.shard] = (
            pulled.get(migration.shard, 0) + migration.event.batches
        )
    for name in service.shards:
        checker = state.checker(name)
        handle = service.shards[name]
        # Recipients pull; everyone else — donors under live load
        # included — must never post an out-bound verb.
        outbound = handle.machine.rnic.outbound_ops
        expected = pulled.get(name, 0)
        if outbound != expected:
            raise BenchError(
                f"shard {name} posted {outbound} out-bound ops; expected "
                f"{expected} ranged reads (donors stay in-bound-only)"
            )
        if expected == 0:
            checker.check_nic_accounting(
                handle.jakiro.server, expect_inbound_only=True, strict_inbound=False
            )
        checker.assert_clean()
    if lost:
        raise BenchError(f"{lost} acknowledged writes lost across the moves")
    return {
        "lost_acked_writes": lost,
        "acked_keys": len(state.acked),
        "migrations": len(migrations),
        "moved_vnodes": sum(len(m.tokens) for m in migrations),
        "migrated_keys": sum(m.event.transferred_keys for m in migrations),
        "catchup_keys": sum(m.event.catchup_keys for m in migrations),
    }


# ----------------------------------------------------------------------
# txn-structures: multi-key transactions + the twice-built FIFO queue
# ----------------------------------------------------------------------


def run_txn_structures(ctx: ConditionContext) -> Mapping[str, object]:
    """One ``ext-txn-structures`` condition: bounded work, exact audits.

    Unlike the open-loop cluster driver, every client here runs a
    *bounded* script and the run must quiesce before the window closes.
    That buys exact end-state audits with no window-cut races: every
    acked multi-PUT sequence is the stored value on every replica
    (zero partially-applied transactions, zero lost acked writes),
    every enqueued item is dequeued exactly once (conservation), the
    queue host posts zero out-bound verbs (both builds), and zero lock
    leases survive the run.
    """
    condition = ctx.condition
    topology = condition.topology
    scale = condition.scale
    settings = condition.settings
    window = scale.window_us

    structure = str(settings.get("structure", "one-sided"))
    if structure not in ("one-sided", "rfp"):
        raise ExpError(
            f"txn-structures structure must be 'one-sided' or 'rfp', "
            f"got {structure!r}"
        )
    queue_clients = int(settings.get("queue_clients", 4))
    if queue_clients < 2:
        raise ExpError("txn-structures needs >= 2 queue clients (1 per role)")
    producers = queue_clients // 2
    consumers = queue_clients - producers
    # Total queue items: enough to expose CAS-contention amplification,
    # few enough that the slowest condition still drains well inside the
    # window (quiescence is asserted below).
    total_items = int(settings.get("queue_items", 192)) * (4 if scale.full else 1)

    sim = ctx.make_simulator()
    cluster_spec = ClusterSpec(
        machine=CLUSTER_EUROSYS17.machine,
        machines=topology.machines,
        switch_hop_us=CLUSTER_EUROSYS17.switch_hop_us,
    )
    cluster = build_cluster(sim, cluster_spec)
    cluster_tracer = ctx.publish_tracer(
        "cluster", Tracer(sim, categories=["cluster"]), "cluster"
    )
    # No faults in this experiment: an astronomically high slow-call
    # threshold keeps the hybrid rule from degrading merely-busy shards,
    # so the in-bound-only NIC audits stay exact.
    quiet = RfpConfig(consecutive_slow_calls=1_000_000)
    service = RfpCluster(
        sim,
        cluster,
        shards=topology.shards,
        rfp_config=quiet,
        cost_model=StoreCostModel(jitter_probability=0.0),
        cluster_config=ClusterConfig(
            replication_factor=topology.replication_factor
        ),
        tracer=cluster_tracer,
    )

    # --- transactional ledger: disjoint groups + one contended group ---
    value_bytes = condition.workload.value_bytes
    txn_clients = topology.client_threads
    group_count = int(settings.get("txn_groups", 8))
    keys_per_group = int(settings.get("group_keys", 3))
    txn_rounds = int(settings.get("txn_rounds", 32))
    group_keys = [
        [b"txng%02d-%02d" % (group, item) for item in range(keys_per_group)]
        for group in range(group_count)
    ]
    for keys in group_keys:
        service.preload([(key, _seq_value(0, value_bytes)) for key in keys])
    shared_group = group_count - 1
    acked: Dict[int, set] = {group: {0} for group in range(group_count)}
    expected_final: Dict[int, int] = {group: 0 for group in range(group_count)}
    finished: List[str] = []
    done_box: Dict[str, float] = {"txn": 0.0, "queue": 0.0}

    def txn_loop(client, client_id: int):
        # Disjoint ownership by residue, plus clients 0 and 1 both
        # writing the shared group — genuine cross-client lock
        # contention on the headline path.
        my_groups = [
            group
            for group in range(group_count)
            if group % txn_clients == client_id
        ]
        if client_id in (0, 1) and shared_group not in my_groups:
            my_groups.append(shared_group)
        base = (client_id + 1) * 1_000_000
        for round_no in range(txn_rounds):
            group = my_groups[round_no % len(my_groups)]
            sequence = base + round_no + 1
            try:
                yield from client.multi_put(
                    [
                        (key, _seq_value(sequence, value_bytes))
                        for key in group_keys[group]
                    ]
                )
            except ClusterError:
                continue  # lock-contention abort: provably no effect
            acked[group].add(sequence)
            if group != shared_group:
                expected_final[group] = sequence
        finished.append(f"txn{client_id}")
        done_box["txn"] = max(done_box["txn"], sim.now)

    slot_start = (
        topology.client_slot_start
        if topology.client_slot_start is not None
        else topology.shards + 1
    )
    for client_id in range(txn_clients):
        machine = cluster.machines[slot_start + client_id % txn_clients]
        client = service.connect(machine, name=f"t{client_id}")
        sim.process(txn_loop(client, client_id))

    # --- the twice-built FIFO queue ---------------------------------
    host_machine = cluster.machines[topology.shards]
    item_bytes = int(settings.get("queue_item_bytes", 16))
    if structure == "one-sided":
        region = QueueRegion(
            sim,
            cluster,
            machine=host_machine,
            capacity=1 << 17,
            max_item_bytes=item_bytes,
        )
        connect_queue = region.connect
        queue_residue = lambda: region.snapshot()[1] - region.snapshot()[0]
    else:
        rfp_queue = RfpQueue(sim, cluster, machine=host_machine, config=quiet)
        connect_queue = rfp_queue.connect
        queue_residue = lambda: len(rfp_queue.items)

    queue_slot = slot_start + txn_clients
    queue_span = topology.machines - queue_slot
    queue_handles = [
        connect_queue(
            cluster.machines[queue_slot + index % queue_span], name=f"q{index}"
        )
        for index in range(queue_clients)
    ]
    per_producer = [
        total_items // producers + (1 if p < total_items % producers else 0)
        for p in range(producers)
    ]
    enqueued: List[bytes] = []
    dequeued: List[bytes] = []
    drained = {"count": 0}
    backoff_us = float(settings.get("empty_backoff_us", 2.0))

    def produce(queue, producer_id: int, count: int):
        for item_no in range(count):
            item = b"%02d:%08d" % (producer_id, item_no)
            yield from queue.enqueue(item)
            enqueued.append(item)
        finished.append(f"prod{producer_id}")
        done_box["queue"] = max(done_box["queue"], sim.now)

    def consume(queue, consumer_id: int):
        while drained["count"] < total_items:
            value = yield from queue.dequeue()
            if value is None:
                yield sim.timeout(backoff_us)
            else:
                drained["count"] += 1
                dequeued.append(value)
        finished.append(f"cons{consumer_id}")
        done_box["queue"] = max(done_box["queue"], sim.now)

    for producer_id in range(producers):
        sim.process(
            produce(
                queue_handles[producer_id],
                producer_id,
                per_producer[producer_id],
            )
        )
    for consumer_id in range(consumers):
        sim.process(consume(queue_handles[producers + consumer_id], consumer_id))

    sim.run(until=window)

    # --- quiescence, then exact audits ------------------------------
    expected_done = txn_clients + producers + consumers
    if len(finished) != expected_done:
        raise BenchError(
            f"run did not quiesce inside the {window}us window: "
            f"{len(finished)}/{expected_done} client scripts finished "
            f"({sorted(finished)})"
        )
    checker = ctx.checkers.get("cluster")
    if checker is None:
        raise ExpError(
            "txn-structures audit needs the 'cluster' invariant checker — "
            "run under an InvariantObserver (repro.exp.runner.default_observers)"
        )
    checker.assert_clean()
    # Quiesced run: every transaction closed, so any surviving lease is
    # a leak (the conftest gate's rule, enforced in the bench too).
    checker.assert_no_leaked_leases()

    torn_groups = 0
    lost_acked = 0
    for group, keys in enumerate(group_keys):
        stored = {
            service.peek(shard, key)
            for key in keys
            for shard in service.replicas_for(key)
        }
        if len(stored) != 1:
            torn_groups += 1
            continue
        (value,) = stored
        sequence = _stored_seq(value)
        if sequence not in acked[group]:
            lost_acked += 1
        elif group != shared_group and sequence != expected_final[group]:
            lost_acked += 1
    if torn_groups:
        raise BenchError(
            f"{torn_groups} key groups are torn across keys/replicas — "
            "a partially-applied multi-PUT escaped"
        )
    if lost_acked:
        raise BenchError(
            f"{lost_acked} key groups do not hold their last acked "
            "transaction's value"
        )

    residue = queue_residue()
    if sorted(dequeued) != sorted(enqueued) or residue != 0:
        raise BenchError(
            f"queue conservation broken: {len(enqueued)} enqueued, "
            f"{len(dequeued)} dequeued, {residue} left in the ring"
        )
    # The bypass claim (one-sided) and the §3.2 in-bound-reply claim
    # (RFP) agree on the observable: the host NIC posts nothing.
    host_outbound = host_machine.rnic.outbound_ops
    if host_outbound != 0:
        raise BenchError(
            f"queue host posted {host_outbound} out-bound verbs; both "
            "builds must keep the host NIC in-bound-only"
        )

    queue_ops = sum(handle.stats.ops for handle in queue_handles)
    remote_ops = sum(
        handle.stats.remote_ops.value for handle in queue_handles
    )
    committed = service.txns.committed
    queue_done = done_box["queue"]
    txn_done = done_box["txn"]
    return {
        "queue_mops": 2 * total_items / max(queue_done, 1e-9),
        "queue_done_us": queue_done,
        "queue_items": total_items,
        "queue_ops": queue_ops,
        "queue_remote_ops": remote_ops,
        "remote_ops_per_op": remote_ops / max(queue_ops, 1),
        "cas_retries": sum(
            handle.stats.cas_retries.value for handle in queue_handles
        ),
        "ready_polls": sum(
            handle.stats.ready_polls.value for handle in queue_handles
        ),
        "empty_polls": sum(
            handle.stats.empties.value for handle in queue_handles
        ),
        "txn_mops": committed / max(txn_done, 1e-9),
        "txn_committed": committed,
        "txn_aborted": service.txns.aborted,
        "torn_groups": torn_groups,
        "lost_acked_writes": lost_acked,
        "acked_groups": group_count,
        "dispatched": sim.dispatched,
    }


# ----------------------------------------------------------------------
# params: the §3.2 selection of (R, F) from measured curves
# ----------------------------------------------------------------------

#: The size sweep [L, H] is read from (a fig. 5 in-bound line).
_PARAMS_SIZES = (32, 64, 128, 192, 256, 384, 512, 640, 768, 1024, 2048, 4096, 8192)


def run_params(ctx: ConditionContext) -> Mapping[str, object]:
    """N from the fig. 9 crossover, [L, H] from the in-bound size curve,
    then Eq. 2's (R, F) for 32 B values and for a 32 B-8 KB mix."""
    from repro.exp.library import SPECS
    from repro.exp.runner import ExperimentRunner
    from repro.exp.tables import tabulate

    scale = ctx.condition.scale
    curve = inbound_iops_curve(_PARAMS_SIZES, window_us=scale.window_us * 0.6)
    lower, upper = derive_size_bounds([s for s, _ in curve], [r for _, r in curve])
    fig9 = tabulate(ExperimentRunner().run(SPECS["fig9"], scale))
    retry_bound, crossover = derive_retry_bound(
        [row[0] for row in fig9.rows],
        [row[1] for row in fig9.rows],
        [row[2] for row in fig9.rows],
        fetch_round_trip_us=measured_fetch_round_trip_us(),
    )
    iops_at = model_inbound_iops()
    small = select_parameters([32 + 9] * 256, iops_at, retry_bound, lower, upper)
    mixed_sizes = seeded_rng(1).integers(32, 8193, size=512)
    mixed = select_parameters(
        [int(s) for s in mixed_sizes], iops_at, retry_bound, lower, upper
    )
    return {
        "retry_bound": retry_bound,
        "crossover_us": float(crossover),
        "lower_bytes": lower,
        "upper_bytes": upper,
        "small_retry": small.retry_bound,
        "small_fetch": small.fetch_size,
        "mixed_retry": mixed.retry_bound,
        "mixed_fetch": mixed.fetch_size,
    }


# ----------------------------------------------------------------------
# breakdown: per-phase latency of an RFP call
# ----------------------------------------------------------------------


def run_breakdown(ctx: ConditionContext) -> Mapping[str, object]:
    condition = ctx.condition
    phases = measure_breakdown(
        condition.workload.process_us,
        client_threads=condition.topology.client_threads,
        server_threads=condition.topology.server_threads,
        scale=condition.scale,
        response_bytes=condition.workload.response_bytes,
        sim=ctx.make_simulator(),
    )
    return {
        "send_us": phases.send_us,
        "server_us": phases.server_us,
        "fetch_us": phases.fetch_us,
        "total_us": phases.total_us,
        "calls": phases.calls,
    }


DRIVERS: Dict[str, Driver] = {
    "raw-verbs": run_raw_verbs,
    "paradigm": run_paradigm,
    "kv": run_kv_condition,
    "cluster": run_cluster,
    "txn-structures": run_txn_structures,
    "params": run_params,
    "breakdown": run_breakdown,
}
