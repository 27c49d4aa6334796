"""Every workload and metric the benchmark reports, with its meaning.

``BENCHMARK.json`` at the repository root mirrors these tables (the
self-test checks that it does).  Each per-layer metric names the
end-to-end metric it should move and the workload where that shows.
Host times are reference-host seconds (see :mod:`perfbench.calibrate`).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

WORKLOADS: Dict[str, str] = {
    "rfp-get": (
        "Paper default (Fig. 10/13): jakiro, 6 server / 35 client threads, uniform "
        "keys, 95% GET, 32 B values; the headline one-write-one-fetch call path"
    ),
    "rfp-put-large": (
        "Same layers used differently: Zipf(0.99), 50% PUT, 32-4096 B values over "
        "F=256, so GETs take remainder reads and one EREW partition runs hot"
    ),
    "bypass-get": (
        "The paper's comparator: pilaf on rfp-get's exact inputs, ~3 one-sided "
        "reads plus CRC per GET; drives hw and baselines, never core on GETs"
    ),
    "cluster-rejoin": (
        "RfpCluster 3 shards RF=2, 24 ledger clients with 3-key multi_puts, shard1 "
        "killed at 0.4 and repaired at 0.6, tracing and both checkers on"
    ),
}


class EndToEnd(NamedTuple):
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END: Dict[str, EndToEnd] = {
    "sim_ops_per_s": EndToEnd(
        "1/s", "higher", 0.1,
        "client ops completed in the simulated window per reference-host second of "
        "Simulator.run (host time rescaled by perfbench.calibrate; per-chunk medians "
        "over the run's episodes)",
    ),
    "setup_s": EndToEnd(
        "s", "lower", 0.25,
        "reference-host seconds to build the cluster and system, generate and "
        "preload the data and connect clients, up to the first dispatched event "
        "(median over the run's episodes)",
    ),
    "peak_rss_mb": EndToEnd(
        "MB", "lower", 0.1,
        "peak resident memory of the process that ran the workload",
    ),
    "modeled_mops": EndToEnd(
        "MOPS", "higher", 0.1, "simulated throughput over the post-warmup window"
    ),
    "modeled_mean_us": EndToEnd(
        "us", "lower", 0.1,
        "simulated per-op latency, mean (Fig. 13's statistic; the median is printed "
        "but not scored because the model quantizes it to the same value on every seed)",
    ),
    "modeled_p99_us": EndToEnd(
        "us", "lower", 0.1, "simulated per-op latency, 99th percentile"
    ),
    "ok_ops_frac": EndToEnd(
        "fraction", "higher", 0.01,
        "ops that did not raise over ops attempted (1 - failed_ops_frac; a failed "
        "op misses every latency limit)",
    ),
}


class PerLayer(NamedTuple):
    unit: str
    better: str
    #: (end-to-end metric it should move, workloads where that shows).
    moves: Optional[Tuple[str, str]]
    meaning: str


_ALL = "all four"

PER_LAYER: Dict[str, PerLayer] = {
    # sim
    "sim.events": PerLayer(
        "count", "lower", ("sim_ops_per_s", _ALL), "events dispatched in the window"
    ),
    "sim.events_per_op": PerLayer(
        "events/op", "lower", ("sim_ops_per_s", "all four, most rfp-get"),
        "events dispatched per completed op",
    ),
    "sim.self_s": PerLayer(
        "s", "lower", ("sim_ops_per_s", "all four, most rfp-get"),
        "Simulator.run host time outside every wrapped span (engine plus "
        "unwrapped processes such as server threads and heartbeats)",
    ),
    "sim.self_frac": PerLayer(
        "fraction", "lower", ("sim_ops_per_s", _ALL), "sim.self_s over Simulator.run time"
    ),
    # hw
    "hw.server_nic.inbound_ops_per_op": PerLayer(
        "ops/op", "lower", ("modeled_mops", "bypass-get, rfp-get"),
        "verbs served by server NICs per completed op",
    ),
    "hw.server_nic.outbound_ops_per_op": PerLayer(
        "ops/op", "lower", ("modeled_p99_us", "rfp-put-large"),
        "verbs issued by server NICs per completed op (server replies)",
    ),
    "hw.client_nic.outbound_ops_per_op": PerLayer(
        "ops/op", "lower", ("modeled_mops", "bypass-get, rfp-get"),
        "verbs issued by client NICs per completed op",
    ),
    "hw.bytes_per_op": PerLayer(
        "B/op", "lower", ("modeled_mops", "rfp-put-large"),
        "payload bytes served by all in-bound pipelines per completed op",
    ),
    "hw.server_nic.in_busy_frac": PerLayer(
        "fraction", "lower", ("modeled_p99_us", "rfp-get, bypass-get"),
        "server NIC in-bound pipeline busy time over the window",
    ),
    "hw.client_nic.out_busy_frac": PerLayer(
        "fraction", "lower", ("modeled_p99_us", "bypass-get"),
        "client NIC out-bound pipeline busy time over the window",
    ),
    "hw.self_s": PerLayer(
        "s", "lower", ("sim_ops_per_s", "most bypass-get"),
        "host self time of Endpoint.post_* and RNIC.occupy_*",
    ),
    # core
    "core.calls": PerLayer(
        "count", "higher", ("modeled_mops", "rfp-get, rfp-put-large"), "RFP calls completed"
    ),
    "core.fetch_reads_per_call": PerLayer(
        "reads/call", "lower", ("modeled_mean_us", "rfp-put-large"),
        "fetch reads per remote-fetch call (Table 3's N)",
    ),
    "core.remote_reads_per_call": PerLayer(
        "reads/call", "lower", ("modeled_mops", "rfp-put-large"),
        "one-sided reads per call, remainder reads of responses over F included",
    ),
    "core.slow_fetch_frac": PerLayer(
        "fraction", "lower", ("modeled_p99_us", "rfp-put-large"),
        "remote-fetch calls that needed more than one fetch read",
    ),
    "core.reply_waits_per_call": PerLayer(
        "waits/call", "lower", ("modeled_p99_us", "rfp-put-large"),
        "calls that waited for a server-pushed reply (§3.2 fallback), per call",
    ),
    "core.server.replies_sent": PerLayer(
        "count", "lower", ("modeled_mops", "rfp-put-large"), "replies pushed by RFP servers"
    ),
    "core.client_busy_frac": PerLayer(
        "fraction", "lower", ("modeled_mops", "rfp-put-large"),
        "client thread CPU busy time over threads x window",
    ),
    "core.self_s": PerLayer(
        "s", "lower", ("sim_ops_per_s", "rfp-get, rfp-put-large"),
        "host self time of RpcClient.call, RfpClient.call, RpcServer.handle",
    ),
    # kv
    "kv.store.gets": PerLayer(
        "count", "higher", ("modeled_mops", "rfp-put-large"), "store GETs in the window"
    ),
    "kv.store.puts": PerLayer(
        "count", "higher", ("modeled_mops", "rfp-put-large"), "store PUTs in the window"
    ),
    "kv.store.hit_frac": PerLayer(
        "fraction", "higher", ("modeled_mean_us", "rfp-put-large"), "store GET hits over GETs"
    ),
    "kv.store.evictions": PerLayer(
        "count", "lower", ("modeled_mean_us", "rfp-put-large"), "LRU evictions in the window"
    ),
    "kv.self_s": PerLayer(
        "s", "lower", ("sim_ops_per_s", "rfp-put-large"),
        "host self time of JakiroClient.get/put and JakiroStore.get/put",
    ),
    # baselines
    "baselines.pilaf.reads_per_get": PerLayer(
        "reads/get", "lower", ("modeled_mops", "bypass-get only"),
        "one-sided reads per Pilaf GET (index probes + record)",
    ),
    "baselines.pilaf.crc_retries_per_get": PerLayer(
        "retries/get", "lower", ("modeled_mops", "bypass-get only"),
        "CRC-mismatch retries per Pilaf GET",
    ),
    "baselines.self_s": PerLayer(
        "s", "lower", ("sim_ops_per_s", "bypass-get only"),
        "host self time of PilafClient.get/put",
    ),
    # cluster
    "cluster.attempts_per_op": PerLayer(
        "attempts/op", "lower", ("modeled_mops", "cluster-rejoin"),
        "routed shard attempts (replica writes and timeouts included) per completed op",
    ),
    "cluster.timeouts": PerLayer(
        "count", "lower", ("ok_ops_frac", "cluster-rejoin"), "routed attempts that timed out"
    ),
    "cluster.failover_ops": PerLayer(
        "count", "lower", ("modeled_p99_us", "cluster-rejoin"), "ops served on a re-route"
    ),
    "cluster.transfer_batches": PerLayer(
        "count", "lower", ("modeled_mops", "cluster-rejoin"), "recovery batches pulled"
    ),
    "cluster.transferred_keys": PerLayer(
        "count", "lower", ("modeled_mops", "cluster-rejoin"), "keys moved by recovery"
    ),
    "cluster.recoveries": PerLayer(
        "count", "higher", ("ok_ops_frac", "cluster-rejoin"), "completed rejoins"
    ),
    "cluster.txn.commit_frac": PerLayer(
        "fraction", "higher", ("ok_ops_frac", "cluster-rejoin"),
        "multi_put transactions committed over begun",
    ),
    "cluster.txn.aborted": PerLayer(
        "count", "lower", ("ok_ops_frac", "cluster-rejoin"), "multi_put transactions aborted"
    ),
    "cluster.load_imbalance": PerLayer(
        "ratio", "lower", ("modeled_mops", "cluster-rejoin"),
        "max over mean of per-shard routed ops",
    ),
    "cluster.self_s": PerLayer(
        "s", "lower", ("sim_ops_per_s", "cluster-rejoin"),
        "host self time of ClusterClient.get/put/multi_put, RfpCluster.kill/repair, "
        "HashRing.lookup*",
    ),
    # trace
    "trace.records": PerLayer(
        "count", "lower", ("sim_ops_per_s", "cluster-rejoin only"),
        "trace records counted by every tracer",
    ),
    "trace.self_s": PerLayer(
        "s", "lower", ("sim_ops_per_s", "cluster-rejoin only"),
        "host self time of Tracer.record, subscribed checker calls included",
    ),
    # workloads
    "workloads.self_s": PerLayer(
        "s", "lower", ("setup_s", "most rfp-put-large"),
        "host self time of YCSB dataset generation and op-stream steps",
    ),
    # the traced run itself: these describe the measurement, not a layer
    "spans.overhead_x": PerLayer(
        "x", "lower", None, "traced over untraced episode host time"
    ),
    "spans.unattributed_frac": PerLayer(
        "fraction", "lower", None,
        "share of Simulator.run host time not joined to a client op id",
    ),
}
