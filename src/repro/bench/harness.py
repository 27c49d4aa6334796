"""Closed-loop measurement harness.

Every evaluation number in the paper is a closed-loop measurement: N
client threads issue synchronous operations back to back, throughput is
completions per second in a steady-state window, latency the per-op
round trip.  :func:`run_kv` reproduces that for the KV systems;
:func:`run_controlled_process_time` reproduces the RDTSC-controlled
process-time experiments (Figs. 9, 14, 15).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.bench.systems import build_system
from repro.core.client import RfpClient
from repro.core.config import RfpConfig
from repro.core.mode import Mode
from repro.core.server import RfpServer
from repro.errors import BenchError
from repro.hw.cluster import build_cluster
from repro.hw.specs import CLUSTER_EUROSYS17, ClusterSpec
from repro.paradigms.server_reply import ServerReplyClient, ServerReplyServer
from repro.sim.core import Simulator
from repro.sim.monitor import ThroughputMeter
from repro.workloads.ycsb import WorkloadSpec, YcsbWorkload

__all__ = ["Scale", "KvRunResult", "run_kv", "run_controlled_process_time"]


@dataclass(frozen=True)
class Scale:
    """Measurement scale: FAST for tests/benches, FULL for reports.

    ``window_us`` is the simulated measurement window; the first
    ``warmup_fraction`` of it is discarded.  ``records`` scales the
    preloaded dataset (the paper uses 128M pairs; the simulator keeps the
    *behaviour* — hash pressure, LRU churn — at a laptop-friendly count).
    """

    window_us: float = 2500.0
    warmup_fraction: float = 0.25
    records: int = 8192
    full: bool = False

    @classmethod
    def fast(cls) -> "Scale":
        return cls()

    @classmethod
    def full_scale(cls) -> "Scale":
        return cls(window_us=8000.0, records=32768, full=True)


@dataclass
class KvRunResult:
    """Outcome of one closed-loop KV run."""

    system: str
    throughput_mops: float
    latency_us: np.ndarray
    client_cpu_utilization: float
    fetch_attempts: List[int] = field(default_factory=list)
    replies_sent: int = 0
    requests_served: int = 0
    operations_completed: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    def mean_latency(self) -> float:
        return float(np.mean(self.latency_us)) if len(self.latency_us) else 0.0

    def percentile_latency(self, p: float) -> float:
        return float(np.percentile(self.latency_us, p)) if len(self.latency_us) else 0.0


def run_kv(
    system: str,
    workload: WorkloadSpec,
    *,
    server_threads: int = 6,
    client_threads: int = 35,
    scale: Scale = Scale.fast(),
    config: Optional[RfpConfig] = None,
    cluster_spec: ClusterSpec = CLUSTER_EUROSYS17,
    value_limit: int = 16384,
    sim: Optional[Simulator] = None,
) -> KvRunResult:
    """Closed-loop run of one KV system under one workload.

    ``sim`` lets an orchestrator (:mod:`repro.exp`) supply the fresh
    simulator so its observers see it; by default one is created here.
    """
    if client_threads < 1:
        raise BenchError("need at least one client thread")
    if sim is None:
        sim = Simulator()
    cluster = build_cluster(sim, cluster_spec)
    handle = build_system(
        system,
        sim,
        cluster,
        server_threads,
        config=config,
        value_limit=value_limit,
        records=workload.records,
    )
    generator = YcsbWorkload(workload)
    handle.preload(generator.dataset())

    window = scale.window_us
    warmup = window * scale.warmup_fraction
    meter = ThroughputMeter(window_start=warmup, window_end=window)
    latencies: List[float] = []
    clients = []

    def client_loop(sim, client, operations):
        for operation in operations:
            began = sim.now
            if operation.is_get:
                yield from client.get(operation.key)
            else:
                yield from client.put(operation.key, operation.value)
            now = sim.now
            meter.record(now)
            if now >= warmup:
                latencies.append(now - began)

    machines = cluster.client_machines
    for index in range(client_threads):
        client = handle.connect(machines[index % len(machines)])
        clients.append(client)
        operations = generator.operations(f"client-{index}")
        sim.process(client_loop(sim, client, operations), name=f"driver-{index}")
    sim.run(until=window)

    measured = window - warmup
    busy = sum(_client_busy(client) for client in clients)
    cpu = min(1.0, busy / (client_threads * window)) if window > 0 else 0.0
    attempts = list(
        itertools.chain.from_iterable(
            _client_fetch_attempts(client) for client in clients
        )
    )
    server = handle.rfp_server()
    return KvRunResult(
        system=system,
        throughput_mops=meter.mops(elapsed=measured),
        latency_us=np.asarray(latencies, dtype=float),
        client_cpu_utilization=cpu,
        fetch_attempts=attempts,
        replies_sent=getattr(getattr(server, "stats", None), "replies_sent", None).value
        if hasattr(server, "stats")
        else 0,
        requests_served=getattr(getattr(server, "stats", None), "requests", None).value
        if hasattr(server, "stats")
        else 0,
        operations_completed=meter.completions,
    )


def _client_busy(client) -> float:
    """Total busy CPU time of one client thread, whatever its type."""
    if hasattr(client, "busy_time"):  # JakiroClient-style aggregation
        return client.busy_time()
    transport = getattr(client, "transport", None)
    if transport is not None and hasattr(transport, "stats"):
        return transport.stats.busy.busy_time
    stats = getattr(client, "stats", None)
    if stats is not None and hasattr(stats, "busy"):
        return stats.busy.busy_time
    return 0.0


def _client_fetch_attempts(client) -> List[int]:
    if hasattr(client, "fetch_attempt_samples"):
        return [int(a) for a in client.fetch_attempt_samples()]
    transport = getattr(client, "transport", None)
    if transport is not None and hasattr(transport, "stats"):
        return [int(a) for a in transport.stats.fetch_attempts.samples]
    return []


def run_controlled_process_time(
    mode: str,
    process_time_us: float,
    *,
    server_threads: int = 16,
    client_threads: int = 35,
    scale: Scale = Scale.fast(),
    response_bytes: int = 32,
    config: Optional[RfpConfig] = None,
    cluster_spec: ClusterSpec = CLUSTER_EUROSYS17,
    sim: Optional[Simulator] = None,
) -> KvRunResult:
    """The RDTSC-loop experiments: echo RPC with an exact process time.

    ``mode`` is ``"rfp"`` (hybrid on), ``"rfp-no-switch"`` (pure repeated
    remote fetching, the Fig. 9/14 ablation), or ``"serverreply"``.
    ``sim`` lets an orchestrator supply the fresh simulator.
    """
    if sim is None:
        sim = Simulator()
    cluster = build_cluster(sim, cluster_spec)
    response = bytes(response_bytes)

    def handler(payload, ctx):
        return response, process_time_us

    base = config if config is not None else RfpConfig()
    if mode == "rfp":
        server = RfpServer(sim, cluster, cluster.server, handler, server_threads, base)
        client_class = RfpClient
    elif mode == "rfp-no-switch":
        from dataclasses import replace

        base = replace(base, hybrid_enabled=False)
        server = RfpServer(sim, cluster, cluster.server, handler, server_threads, base)
        client_class = RfpClient
    elif mode == "serverreply":
        server = ServerReplyServer(
            sim, cluster, cluster.server, handler, server_threads, base
        )
        client_class = ServerReplyClient
    else:
        raise BenchError(f"unknown mode {mode!r}")

    window = scale.window_us
    warmup = window * scale.warmup_fraction
    meter = ThroughputMeter(window_start=warmup, window_end=window)
    latencies: List[float] = []
    clients = []

    def loop(sim, client):
        payload = bytes(16)
        while True:
            began = sim.now
            yield from client.call(payload)
            now = sim.now
            meter.record(now)
            if now >= warmup:
                latencies.append(now - began)

    for index in range(client_threads):
        machine = cluster.client_machines[index % len(cluster.client_machines)]
        client = client_class(sim, machine, server, base)
        clients.append(client)
        sim.process(loop(sim, client), name=f"driver-{index}")
    sim.run(until=window)

    measured = window - warmup
    busy = sum(c.stats.busy.busy_time for c in clients)
    attempts = [
        int(a) for c in clients for a in c.stats.fetch_attempts.samples
    ]
    in_reply_mode = sum(1 for c in clients if c.policy.mode is Mode.SERVER_REPLY)
    return KvRunResult(
        system=mode,
        throughput_mops=meter.mops(elapsed=measured),
        latency_us=np.asarray(latencies, dtype=float),
        client_cpu_utilization=min(1.0, busy / (client_threads * window)),
        fetch_attempts=attempts,
        replies_sent=server.stats.replies_sent.value,
        requests_served=server.stats.requests.value,
        operations_completed=meter.completions,
        extras={"clients_in_reply_mode": float(in_reply_mode)},
    )
