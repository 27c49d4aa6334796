"""The four benchmark workloads and the episode that runs one of them.

An *episode* builds one workload from its seed, runs it for a fixed
simulated window, and returns the host timings, the deterministic
numbers (modeled throughput and latency, event and layer counts) and
the correctness-check failures.  All clients are closed-loop simulated
processes: each issues its next op only when the previous one returned.
Inputs (keys, mixes, values) are generated in set-up from the seed; the
program under test only sees the generated ops.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import checks
from perfbench.calibrate import HostClock, ReferenceKernel

from repro.bench.systems import build_system
from repro.cluster import ClusterConfig, FaultPlan, RfpCluster
from repro.core.client import RfpClient
from repro.core.config import RfpConfig
from repro.errors import ClusterError, KVError, ProtocolError
from repro.hw.cluster import build_cluster
from repro.hw.specs import CLUSTER_EUROSYS17, ClusterSpec
from repro.kv.store import StoreCostModel
from repro.lint.invariants import (
    ClusterInvariantChecker,
    InvariantViolation,
    RfpInvariantChecker,
)
from repro.sim.core import Simulator
from repro.sim.random import RandomStreams
from repro.sim.trace import Tracer
from repro.workloads.value_sizes import FixedValues, UniformValues
from repro.workloads.ycsb import WorkloadSpec, YcsbWorkload

#: What a client op may raise without being a benchmark bug.
OP_ERRORS = (ClusterError, KVError, ProtocolError)

#: Written-value stamp: writer id, per-writer sequence.
_STAMP = struct.Struct("<II")
#: Ledger value prefix: the writer's sequence number.
_SEQ = struct.Struct("<Q")


@dataclass
class Episode:
    """One built-and-run workload.  Host times are reference-host
    seconds (see :mod:`perfbench.calibrate`) unless named ``raw``."""

    setup: HostClock
    run: HostClock
    attempted: int
    failed: int
    #: Deterministic for a given seed: modeled results and every count.
    det: Dict[str, float]
    failures: List[str]


class _Ops:
    """Op accounting shared by every client loop of one episode."""

    def __init__(self, warmup_us: float, window_us: float) -> None:
        self.warmup_us = warmup_us
        self.window_us = window_us
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.latencies: List[float] = []
        self.exhausted = 0
        self.running = 0

    def done(self, began: float, now: float) -> None:
        if now > self.window_us:
            return  # drained after the window: checked, not measured
        self.completed += 1
        if now >= self.warmup_us:
            self.latencies.append(now - began)

    def modeled(self) -> Dict[str, float]:
        latencies = np.asarray(self.latencies)
        p50, p99 = np.percentile(latencies, [50, 99]) if len(latencies) else (0.0, 0.0)
        return {
            "completed": self.completed,
            "modeled_mops": len(latencies) / (self.window_us - self.warmup_us),
            "modeled_mean_us": float(latencies.mean()) if len(latencies) else 0.0,
            "modeled_p50_us": float(p50),
            "modeled_p99_us": float(p99),
            "latency_samples": len(latencies),
        }


class _Recording:
    """A ``Jakiro.client_class`` stand-in that remembers every transport
    it builds, reconnections included, so core counters cover them all."""

    def __init__(self, cls: type, sink: List[RfpClient]) -> None:
        self.cls = cls
        self.sink = sink

    def __call__(self, *args, **kwargs) -> RfpClient:
        transport = self.cls(*args, **kwargs)
        self.sink.append(transport)
        return transport


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _nic_counts(
    servers, clients, completed: int, window_us: float
) -> Dict[str, float]:
    server_nics = [machine.rnic for machine in servers]
    client_nics = [machine.rnic for machine in clients]
    every_nic = server_nics + client_nics
    return {
        "hw.server_nic.inbound_ops_per_op": _ratio(
            sum(nic.inbound_ops for nic in server_nics), completed
        ),
        "hw.server_nic.outbound_ops_per_op": _ratio(
            sum(nic.outbound_ops for nic in server_nics), completed
        ),
        "hw.client_nic.outbound_ops_per_op": _ratio(
            sum(nic.outbound_ops for nic in client_nics), completed
        ),
        # Payload bytes served by in-bound pipelines: each one-sided
        # transfer is counted once, at the NIC that served it.
        "hw.bytes_per_op": _ratio(sum(nic.inbound_bytes for nic in every_nic), completed),
        "hw.server_nic.in_busy_frac": _ratio(
            sum(nic.in_pipeline.busy_time for nic in server_nics),
            len(server_nics) * window_us,
        ),
        "hw.client_nic.out_busy_frac": _ratio(
            sum(nic.out_pipeline.busy_time for nic in client_nics),
            len(client_nics) * window_us,
        ),
    }


def _core_counts(
    transports: List[RfpClient], servers, client_threads: int, window_us: float
) -> Dict[str, float]:
    calls = sum(t.stats.calls.value for t in transports)
    attempts = [a for t in transports for a in t.stats.fetch_attempts.samples]
    return {
        "core.calls": calls,
        "core.fetch_reads_per_call": float(np.mean(attempts)) if attempts else 0.0,
        "core.remote_reads_per_call": _ratio(
            sum(t.stats.remote_reads.value for t in transports), calls
        ),
        "core.slow_fetch_frac": _ratio(sum(1 for a in attempts if a > 1), len(attempts)),
        "core.reply_waits_per_call": _ratio(
            sum(t.stats.reply_waits.value for t in transports), calls
        ),
        "core.server.replies_sent": sum(s.stats.replies_sent.value for s in servers),
        "core.client_busy_frac": _ratio(
            sum(t.stats.busy.busy_time for t in transports), client_threads * window_us
        ),
    }


_STORE_COUNTERS = ("gets", "hits", "puts", "evictions")


def _store_totals(stores) -> Dict[str, int]:
    return {
        name: sum(getattr(store.counters, name).value for store in stores)
        for name in _STORE_COUNTERS
    }


def _store_counts(stores, before: Dict[str, int]) -> Dict[str, float]:
    """Store counters since ``before`` (so preload puts are excluded)."""
    totals = {name: value - before[name] for name, value in _store_totals(stores).items()}
    return {
        "kv.store.gets": totals["gets"],
        "kv.store.puts": totals["puts"],
        "kv.store.hit_frac": _ratio(totals["hits"], totals["gets"]),
        "kv.store.evictions": totals["evictions"],
    }


#: Counts that read zero on a workload that never enters their layer.
ZERO_COUNTS: Dict[str, float] = {
    "core.calls": 0,
    "core.fetch_reads_per_call": 0.0,
    "core.remote_reads_per_call": 0.0,
    "core.slow_fetch_frac": 0.0,
    "core.reply_waits_per_call": 0.0,
    "core.server.replies_sent": 0,
    "core.client_busy_frac": 0.0,
    "kv.store.gets": 0,
    "kv.store.puts": 0,
    "kv.store.hit_frac": 0.0,
    "kv.store.evictions": 0,
    "baselines.pilaf.reads_per_get": 0.0,
    "baselines.pilaf.crc_retries_per_get": 0.0,
    "cluster.attempts_per_op": 0.0,
    "cluster.timeouts": 0,
    "cluster.failover_ops": 0,
    "cluster.transfer_batches": 0,
    "cluster.transferred_keys": 0,
    "cluster.recoveries": 0,
    "cluster.txn.commit_frac": 0.0,
    "cluster.txn.aborted": 0,
    "cluster.load_imbalance": 0.0,
    "trace.records": 0,
}


# ----------------------------------------------------------------------
# Single-server KV workloads: rfp-get, rfp-put-large, bypass-get
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KvScenario:
    """One closed-loop KV workload against one server machine."""

    name: str
    system: str
    get_fraction: float
    distribution: str
    value_low: int
    value_high: int
    #: Ops generated per client in set-up; no client may run out.
    ops_per_client: int
    records: int = 8192
    server_threads: int = 6
    client_threads: int = 35
    #: Long enough that p99 sits clear of the ~0.7% of rfp-get calls
    #: needing a second fetch: at 2000 us it jumped between seeds.
    window_us: float = 5000.0
    warmup_frac: float = 0.25
    #: Simulated time per timed chunk (see perfbench.calibrate).
    chunk_us: float = 100.0

    def spec(self, seed: int) -> WorkloadSpec:
        if self.value_low == self.value_high:
            sizes = FixedValues(self.value_low)
        else:
            sizes = UniformValues(self.value_low, self.value_high)
        return WorkloadSpec(
            records=self.records,
            get_fraction=self.get_fraction,
            distribution=self.distribution,
            value_sizes=sizes,
            seed=seed,
        )


def stamp(key: bytes, writer: int, sequence: int, size: int) -> bytes:
    """A written value that names its key and write, padded to ``size``."""
    head = key + _STAMP.pack(writer, sequence)
    return head + bytes(size - len(head))


def run_kv(scenario: KvScenario, seed: int, kernel: ReferenceKernel) -> Episode:
    setup = HostClock(kernel)
    opened = setup.start()
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    handle = build_system(
        scenario.system,
        sim,
        cluster,
        scenario.server_threads,
        value_limit=max(scenario.value_high, 64),
        records=scenario.records,
    )
    transports: List[RfpClient] = []
    jakiro = scenario.system == "jakiro"
    if jakiro:
        handle.server.client_class = _Recording(handle.server.client_class, transports)
    workload = YcsbWorkload(scenario.spec(seed))
    preloaded = {key: stamp(key, 0, 0, len(value)) for key, value in workload.dataset()}
    handle.preload(preloaded.items())
    stores = [handle.server.store] if jakiro else []
    store_before = _store_totals(stores)

    window = scenario.window_us
    ops = _Ops(window * scenario.warmup_frac, window)
    writes: Dict[bytes, List[list]] = {}
    reads: List[checks.Read] = []

    def client_loop(sim, client, script):
        for is_get, key, value in script:
            start = sim.now
            ops.attempted += 1
            try:
                if is_get:
                    result = yield from client.get(key)
                    reads.append((key, start, sim.now, result))
                else:
                    write = [start, None, value]
                    writes.setdefault(key, []).append(write)
                    yield from client.put(key, value)
                    write[1] = sim.now
            except OP_ERRORS:
                ops.failed += 1
                continue
            ops.done(start, sim.now)
        ops.exhausted += 1

    clients = []
    machines = cluster.client_machines
    for index in range(scenario.client_threads):
        script = [
            (op.is_get, op.key, None if op.is_get else stamp(op.key, index + 1, n, len(op.value)))
            for n, op in enumerate(
                itertools.islice(workload.operations(f"client-{index}"), scenario.ops_per_client)
            )
        ]
        client = handle.connect(machines[index % len(machines)])
        clients.append(client)
        sim.process(client_loop(sim, client, script), name=f"driver-{index}")
    setup.stop(opened)

    run = HostClock(kernel)
    run.run(sim, window, scenario.chunk_us)

    det = dict(ZERO_COUNTS)
    det.update(ops.modeled())
    det["sim.events"] = sim.dispatched
    det.update(_nic_counts([cluster.server], machines, ops.completed, window))
    if jakiro:
        server = handle.server.server
        det.update(_core_counts(transports, [server], scenario.client_threads, window))
        det.update(_store_counts(stores, store_before))
    else:
        server = handle.server.rpc_server
        # Pilaf builds its PUT transport privately; its counters are core's.
        pilaf_transports = [client._rpc.transport for client in clients]
        det.update(
            _core_counts(pilaf_transports, [server], scenario.client_threads, window)
        )
        gets = sum(client.stats.gets.value for client in clients)
        det["baselines.pilaf.reads_per_get"] = _ratio(
            sum(client.stats.rdma_reads.value for client in clients), gets
        )
        det["baselines.pilaf.crc_retries_per_get"] = _ratio(
            sum(client.stats.checksum_retries.value for client in clients), gets
        )

    failures = []
    if ops.exhausted:
        failures.append(f"{ops.exhausted} clients ran out of generated ops")
    if jakiro:
        failures += checks.check_server_nic(
            cluster.server.rnic.outbound_ops, server.stats.replies_sent.value, scenario.name
        )
    failures += checks.check_reads_see_writes(preloaded, writes, reads)
    return Episode(setup, run, ops.attempted, ops.failed, det, failures)


# ----------------------------------------------------------------------
# cluster-rejoin
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterScenario:
    """Sharded RF=2 cluster on the acknowledged-write ledger through one
    kill/repair cycle, traced with both invariant checkers attached."""

    name: str
    machines: int = 18
    shards: int = 3
    replication_factor: int = 2
    client_threads: int = 24
    records: int = 240
    value_bytes: int = 64
    #: One write every ``put_every`` ops (3:1 GET:PUT).
    put_every: int = 4
    #: Clients with ``id % multi_every == 0`` alternate single PUTs with
    #: 3-key ``multi_put`` over their own keys.  With every 4th client
    #: doing so, p99 fell between two multi_put latency modes and jumped
    #: 12% between seeds; every 8th puts it inside one mode.
    multi_every: int = 8
    group_size: int = 3
    window_us: float = 2500.0
    warmup_frac: float = 0.25
    chunk_us: float = 25.0
    kill_frac: float = 0.4
    repair_frac: float = 0.6
    victim: str = "shard1"
    #: Simulated time after the window for in-flight ops to finish, so
    #: the lease and durability audits see a quiet cluster.
    drain_us: float = 1000.0


def _seq_value(sequence: int, size: int) -> bytes:
    return _SEQ.pack(sequence) + bytes(size - _SEQ.size)


def _stored_seq(value: Optional[bytes]) -> int:
    return -1 if value is None else _SEQ.unpack_from(value)[0]


def run_cluster(scenario: ClusterScenario, seed: int, kernel: ReferenceKernel) -> Episode:
    setup = HostClock(kernel)
    opened = setup.start()
    sim = Simulator()
    cluster = build_cluster(
        sim,
        ClusterSpec(
            machine=CLUSTER_EUROSYS17.machine,
            machines=scenario.machines,
            switch_hop_us=CLUSTER_EUROSYS17.switch_hop_us,
        ),
    )
    # The crash-experiment configuration: one slow call degrades a stuck
    # connection to server-reply, and zero store jitter keeps healthy
    # shards from tripping the same rule.
    rfp_config = RfpConfig(consecutive_slow_calls=1)
    cluster_tracer = Tracer(sim, categories=["cluster"])
    cluster_checker = ClusterInvariantChecker().attach(cluster_tracer)
    shard_names = [f"shard{i}" for i in range(scenario.shards)]
    shard_tracers = {name: Tracer(sim, capacity=1) for name in shard_names}
    shard_checkers = {
        name: RfpInvariantChecker(config=rfp_config).attach(tracer)
        for name, tracer in shard_tracers.items()
    }
    service = RfpCluster(
        sim,
        cluster,
        shards=scenario.shards,
        rfp_config=rfp_config,
        cost_model=StoreCostModel(jitter_probability=0.0),
        cluster_config=ClusterConfig(replication_factor=scenario.replication_factor),
        tracer=cluster_tracer,
        shard_tracers=shard_tracers,
    )
    transports: List[RfpClient] = []
    for shard in service.shards.values():
        shard.jakiro.client_class = _Recording(shard.jakiro.client_class, transports)

    keys = [f"key{i:06d}".encode() for i in range(scenario.records)]
    per_client = scenario.records // scenario.client_threads
    service.preload((key, _seq_value(0, scenario.value_bytes)) for key in keys)
    stores = [shard.jakiro.store for shard in service.shards.values()]
    store_before = _store_totals(stores)
    streams = RandomStreams(seed=seed)

    window = scenario.window_us
    ops = _Ops(window * scenario.warmup_frac, window)
    stop = [False]
    acked: Dict[bytes, int] = {}
    acks: Dict[bytes, List[Tuple[float, int]]] = {}
    reads: List[Tuple[bytes, float, int]] = []
    groups: List[Tuple[Tuple[bytes, ...], int]] = []
    # Upper bound on ops per client: no op completes in under 1 us.
    max_ops = int(math.ceil(window + scenario.drain_us))

    def ack(key: bytes, sequence: int, now: float) -> None:
        acked[key] = sequence
        acks.setdefault(key, []).append((now, sequence))

    def ledger_loop(sim, client, client_id: int, get_picks):
        ops.running += 1
        own = keys[client_id * per_client : (client_id + 1) * per_client]
        multi = client_id % scenario.multi_every == 0
        writes_done = 0
        for n in range(max_ops):
            if stop[0]:
                break
            start = sim.now
            ops.attempted += 1
            try:
                if n % scenario.put_every == scenario.put_every - 1:
                    sequence = n + 1
                    value = _seq_value(sequence, scenario.value_bytes)
                    if multi and writes_done % 2 == 1:
                        first = writes_done % (len(own) - scenario.group_size + 1)
                        group = tuple(own[first : first + scenario.group_size])
                        groups.append((group, sequence))
                        yield from client.multi_put([(key, value) for key in group])
                        for key in group:
                            ack(key, sequence, sim.now)
                    else:
                        key = own[writes_done % len(own)]
                        yield from client.put(key, value)
                        ack(key, sequence, sim.now)
                    writes_done += 1
                else:
                    key = keys[get_picks[n]]
                    value = yield from client.get(key)
                    reads.append((key, start, _stored_seq(value)))
            except OP_ERRORS:
                ops.failed += 1
                continue
            ops.done(start, sim.now)
        else:
            ops.exhausted += 1
        ops.running -= 1

    for index in range(scenario.client_threads):
        picks = streams.stream(f"ledger.c{index}").integers(0, len(keys), size=max_ops)
        machine = cluster.machines[
            scenario.shards + index % (scenario.machines - scenario.shards)
        ]
        client = service.connect(machine, name=f"c{index}")
        sim.process(ledger_loop(sim, client, index, picks.tolist()), name=f"ledger-{index}")
    plan = FaultPlan.kill_then_repair(
        scenario.victim, window * scenario.kill_frac, window * scenario.repair_frac
    )
    plan.arm(sim, service)
    pre_crash_ring = list(service.ring.nodes)
    setup.stop(opened)

    run = HostClock(kernel)
    run.run(sim, window, scenario.chunk_us)

    det = dict(ZERO_COUNTS)
    det.update(ops.modeled())
    det["sim.events"] = sim.dispatched
    servers = [shard.machine for shard in service.shards.values()]
    client_machines = cluster.machines[scenario.shards :]
    det.update(_nic_counts(servers, client_machines, ops.completed, window))
    det.update(
        _core_counts(
            transports,
            [shard.jakiro.server for shard in service.shards.values()],
            scenario.client_threads,
            window,
        )
    )
    det.update(_store_counts(stores, store_before))
    shard_metrics = service.metrics.shards.values()
    routed = sum(m.operations + m.timeouts.value for m in shard_metrics)
    txns = service.txns
    det.update(
        {
            "cluster.attempts_per_op": _ratio(routed, ops.completed),
            "cluster.timeouts": sum(m.timeouts.value for m in shard_metrics),
            "cluster.failover_ops": sum(m.failover_ops.value for m in shard_metrics),
            "cluster.transfer_batches": sum(m.transfer_batches.value for m in shard_metrics),
            "cluster.transferred_keys": sum(m.transferred_keys.value for m in shard_metrics),
            "cluster.recoveries": sum(m.recoveries.value for m in shard_metrics),
            "cluster.txn.commit_frac": _ratio(txns.committed, txns.begun),
            "cluster.txn.aborted": txns.aborted,
            "cluster.load_imbalance": service.metrics.load_imbalance(),
            "trace.records": sum(
                sum(tracer.counts().values())
                for tracer in [cluster_tracer, *shard_tracers.values()]
            ),
        }
    )

    # Drain: no new ops after the window; in-flight ones finish.
    stop[0] = True
    sim.run(until=window + scenario.drain_us)

    failures = []
    if ops.running:
        failures.append(f"{ops.running} clients still mid-op after the drain")
    if ops.exhausted:
        failures.append(f"{ops.exhausted} clients ran out of generated ops")
    failures += _audit_cluster(scenario, service, plan, pre_crash_ring, cluster_checker, shard_checkers)
    rf = scenario.replication_factor
    written = set(acked) | {key for group, _ in groups for key in group}
    replica_seqs = {
        key: [
            (name, _stored_seq(service.peek(name, key)))
            for name in service.ring.lookup_replicas(key, rf)
        ]
        for key in sorted(written)
    }
    failures += checks.check_acked_writes(acked, replica_seqs)
    failures += checks.check_fresh_reads(acks, reads)
    failures += checks.check_groups_whole(groups, replica_seqs)
    return Episode(setup, run, ops.attempted, ops.failed, det, failures)


def _audit_cluster(
    scenario: ClusterScenario,
    service: RfpCluster,
    plan: FaultPlan,
    pre_crash_ring: List[str],
    cluster_checker: ClusterInvariantChecker,
    shard_checkers: Dict[str, RfpInvariantChecker],
) -> List[str]:
    """Rejoin completed, leases released, both checkers clean."""
    failures: List[str] = []
    recoveries = plan.recoveries
    if len(recoveries) != 1 or recoveries[0].active or recoveries[0].aborted:
        failures.append(f"recovery of {scenario.victim} did not complete: {recoveries!r}")
    if service.ring.nodes != pre_crash_ring:
        failures.append(f"ring {service.ring.nodes} is not the pre-crash {pre_crash_ring}")
    leaked = cluster_checker.open_lock_leases()
    if leaked or service.txns.outstanding_locks:
        failures.append(
            f"leaked lock leases: checker {leaked}, table {service.txns.outstanding_locks}"
        )
    audits: List[Tuple[str, Callable[[], None]]] = [
        ("cluster", cluster_checker.assert_clean)
    ]
    for name, checker in sorted(shard_checkers.items()):
        handle = service.shards[name]
        if name == scenario.victim:
            batches = recoveries[0].event.batches if recoveries else 0
            if handle.machine.rnic.outbound_ops != batches:
                failures.append(
                    f"rejoiner {name} posted {handle.machine.rnic.outbound_ops} "
                    f"out-bound ops, expected its {batches} ranged reads"
                )
        else:
            checker.check_nic_accounting(
                handle.jakiro.server, expect_inbound_only=True, strict_inbound=False
            )
        audits.append((name, checker.assert_clean))
    for name, audit in audits:
        try:
            audit()
        except InvariantViolation as violation:
            failures.append(f"{name} checker: {violation}")
    return failures


# ----------------------------------------------------------------------
# The named workloads
# ----------------------------------------------------------------------

SCENARIOS = {
    "rfp-get": KvScenario(
        "rfp-get", "jakiro", 0.95, "uniform", 32, 32, ops_per_client=1500
    ),
    "rfp-put-large": KvScenario(
        "rfp-put-large", "jakiro", 0.5, "zipfian", 32, 4096, ops_per_client=750
    ),
    "bypass-get": KvScenario(
        "bypass-get", "pilaf", 0.95, "uniform", 32, 32, ops_per_client=1500
    ),
    "cluster-rejoin": ClusterScenario("cluster-rejoin"),
}


def run_episode(workload: str, seed: int, kernel: ReferenceKernel) -> Episode:
    scenario = SCENARIOS[workload]
    if isinstance(scenario, KvScenario):
        return run_kv(scenario, seed, kernel)
    return run_cluster(scenario, seed, kernel)
