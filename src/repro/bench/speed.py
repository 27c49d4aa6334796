"""Engine speed benchmarks — the repo's perf-trajectory artifact.

``python -m repro.exp speed --json`` times the fast engine against the
retained pre-PR engine (``Simulator(reference=True)``) on four scenarios
and writes ``BENCH_sim_speed.json`` at the repo root:

- ``event-churn`` — a zero-delay completion cascade under a large
  parked-timer backlog.  This is the regime the ready deque exists for:
  the reference engine pays two ``O(log n)`` heap operations per
  same-timestamp dispatch with ``n`` in the hundreds of thousands (real
  cluster runs hold one armed deadline timer per in-flight op), the fast
  engine pays two deque operations.
- ``timeout-storm`` — thousands of concurrent processes sleeping on
  staggered timers: the slotted :class:`~repro.sim.core.Timeout` fast
  path versus the reference engine's Event + callbacks list + zero-delay
  heap round trip per wake.
- ``fig03-replay`` — the full §2.2 in-bound IOPS microbenchmark replay
  (35 client threads of synchronous RDMA Reads), timed end to end.
- ``cluster-replay`` — an end-to-end ``RfpCluster`` failover run (3
  shards, RF=2, mid-run shard kill) in the two configurations that
  bracket this PR: the *pre-PR* shape (reference engine, tracing on,
  invariant checkers subscribed — the only shape the old engine
  offered) versus the *post-PR* default perf shape (fast engine, cold
  tracers; invariant checking is opt-in and exercised by the tier-1
  failover bench and the golden-trace test instead of being paid on
  every op here).

Every scenario is deterministic in simulated time: the dispatched-event
counts and the modeled throughput are bit-for-bit reproducible and are
pinned by ``tests/bench/test_speed_bench.py``.  Wall-clock seconds and
events/sec depend on the host and are recorded, never asserted.

Methodology: each (scenario, engine) cell is run ``repetitions`` times
in-process and the best wall time is kept — standard microbenchmark
practice to suppress scheduler/cache noise; the dispatch count must be
identical across repetitions or the run aborts.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import BenchError
from repro.sim.core import Event, Simulator

__all__ = [
    "SCHEMA_VERSION",
    "ARTIFACT_NAME",
    "SpeedResult",
    "run_speed_suite",
    "format_speed_report",
    "write_artifact",
]

SCHEMA_VERSION = "repro.bench.speed/v2"
ARTIFACT_NAME = "BENCH_sim_speed.json"

#: Best-of-N wall-clock repetitions per (scenario, engine) cell.
REPETITIONS = 3

#: The cluster-replay scenario measured at the seed commit, before any of
#: this PR's engine or hot-path work existed.  The in-process reference
#: cell above runs the *current* model code under the old engine shape,
#: which understates the end-to-end win (the hot-path restructuring —
#: ``occupy()`` verbs, header helpers, direct delays — speeds both cells
#: up); this block records the honest end-to-end comparator.  Measured on
#: the same container as the checked-in artifact, best-of-N of the
#: identical scenario (same constants, same seeds, same modeled result:
#: the seed tree reproduces modeled_mops bit-for-bit).  Wall seconds are
#: host-dependent: comparisons against this number are only meaningful
#: for artifacts regenerated on comparable hardware.
FROZEN_BASELINE = {
    "scenario": "cluster-replay",
    "commit": "460b18c",
    "wall_s": 4.165,
    "modeled_mops": 6.694,
    "shape": (
        "seed-commit engine (pure heap, no ready deque, Event-based "
        "timeouts) with always-on tracing and subscribed invariant "
        "checkers — the only configuration the seed tree offered"
    ),
    "protocol": "best-of-N sim.run wall time, same scenario constants",
}

# Scenario sizing — deliberately module-level constants so the pinned
# dispatch counts in the artifact and the tier-1 gate have one source.
CHURN_ROUNDS = 400_000
CHURN_BACKLOG = 1_000_000
STORM_PROCESSES = 2_000
STORM_WINDOW_US = 300.0
FIG03_THREADS = 35
FIG03_WINDOW_US = 3_000.0
CLUSTER_CLIENTS = 24
CLUSTER_RECORDS = 240
CLUSTER_WINDOW_US = 2_500.0


@dataclass
class SpeedResult:
    """One scenario's measurement (both engines)."""

    name: str
    description: str
    repetitions: int
    dispatched_fast: int
    dispatched_reference: int
    wall_s_fast: float
    wall_s_reference: float
    #: Deterministic scenario fingerprint beyond the dispatch count
    #: (modeled MOPS for the replays, 0.0 for pure microbenches).
    modeled_mops: float

    @property
    def speedup(self) -> float:
        if self.wall_s_fast <= 0:
            return 0.0
        return self.wall_s_reference / self.wall_s_fast

    @property
    def events_per_sec_fast(self) -> float:
        if self.wall_s_fast <= 0:
            return 0.0
        return self.dispatched_fast / self.wall_s_fast

    @property
    def events_per_sec_reference(self) -> float:
        if self.wall_s_reference <= 0:
            return 0.0
        return self.dispatched_reference / self.wall_s_reference

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "repetitions": self.repetitions,
            "dispatched_fast": self.dispatched_fast,
            "dispatched_reference": self.dispatched_reference,
            "modeled_mops": round(self.modeled_mops, 6),
            "wall_s_fast": round(self.wall_s_fast, 4),
            "wall_s_reference": round(self.wall_s_reference, 4),
            "events_per_sec_fast": round(self.events_per_sec_fast),
            "events_per_sec_reference": round(self.events_per_sec_reference),
            "speedup": round(self.speedup, 2),
        }


def _timed_run(sim: Simulator, until: float) -> float:
    """Time exactly the ``sim.run`` call — setup (cluster build, parked
    backlog arming, preload) is excluded so the measurement is the
    dispatch loop, not scenario construction."""
    # Host wall time measuring the benchmark itself — never feeds the
    # model.
    started = time.perf_counter()  # lint: disable=no-wall-clock
    sim.run(until=until)
    return time.perf_counter() - started  # lint: disable=no-wall-clock


def _time_cell(
    build_and_run: Callable[[bool], Tuple[float, int, float]],
    reference: bool,
    repetitions: int,
) -> Tuple[float, int, float]:
    """Best-of-N wall time for one (scenario, engine) cell.

    ``build_and_run(reference)`` constructs a fresh simulator, runs the
    scenario timing its own ``sim.run`` window (via :func:`_timed_run`),
    and returns ``(wall_s, dispatched, modeled_mops)``.
    """
    best = float("inf")
    dispatched = -1
    mops = 0.0
    for _ in range(repetitions):
        elapsed, got_dispatched, got_mops = build_and_run(reference)
        if dispatched >= 0 and got_dispatched != dispatched:
            raise BenchError(
                f"non-deterministic dispatch count: {dispatched} then "
                f"{got_dispatched}"
            )
        dispatched = got_dispatched
        mops = got_mops
        best = min(best, elapsed)
    return best, dispatched, mops


def _measure(
    name: str,
    description: str,
    build_and_run: Callable[[bool], Tuple[float, int, float]],
    repetitions: int = REPETITIONS,
    require_equal_dispatch: bool = True,
) -> SpeedResult:
    wall_fast, dispatched_fast, mops_fast = _time_cell(
        build_and_run, False, repetitions
    )
    wall_ref, dispatched_ref, mops_ref = _time_cell(
        build_and_run, True, repetitions
    )
    if require_equal_dispatch and dispatched_fast != dispatched_ref:
        raise BenchError(
            f"{name}: engines dispatched different event counts "
            f"({dispatched_fast} fast vs {dispatched_ref} reference) — "
            "ordering equivalence is broken"
        )
    if mops_fast != mops_ref:
        raise BenchError(
            f"{name}: engines disagree on modeled throughput "
            f"({mops_fast} vs {mops_ref})"
        )
    return SpeedResult(
        name=name,
        description=description,
        repetitions=repetitions,
        dispatched_fast=dispatched_fast,
        dispatched_reference=dispatched_ref,
        wall_s_fast=wall_fast,
        wall_s_reference=wall_ref,
        modeled_mops=mops_fast,
    )


# ----------------------------------------------------------------------
# Scenario 1: zero-delay event churn under a parked-timer backlog
# ----------------------------------------------------------------------


def _run_event_churn(reference: bool) -> Tuple[float, int, float]:
    sim = Simulator(reference=reference)
    # Parked backlog: armed timers resident in the heap for the whole
    # run, the way a cluster run holds one deadline timer per in-flight
    # op.  They never fire inside the window; their only effect is the
    # heap depth every reference-engine zero-delay entry must traverse.
    for index in range(CHURN_BACKLOG):
        sim.timeout(1e9 + index)
    done = Event(sim).trigger()
    remaining = [CHURN_ROUNDS]

    def fire(event: Event) -> None:
        left = remaining[0]
        if left > 0:
            remaining[0] = left - 1
            done.wait(fire)

    done.wait(fire)
    wall = _timed_run(sim, until=1.0)
    return wall, sim.dispatched, 0.0


# ----------------------------------------------------------------------
# Scenario 2: timeout storm
# ----------------------------------------------------------------------


def _run_timeout_storm(reference: bool) -> Tuple[float, int, float]:
    sim = Simulator(reference=reference)

    def sleeper(delay: float):
        while True:
            yield sim.timeout(delay)

    for index in range(STORM_PROCESSES):
        # Staggered periods keep the heap mixed instead of firing in
        # lockstep waves.
        sim.process(sleeper(0.5 + (index % 16) * 0.25))
    wall = _timed_run(sim, until=STORM_WINDOW_US)
    return wall, sim.dispatched, 0.0


# ----------------------------------------------------------------------
# Scenario 3: full fig03 in-bound IOPS replay
# ----------------------------------------------------------------------


def _run_fig03_replay(reference: bool) -> Tuple[float, int, float]:
    from repro.bench.calibration import measure_inbound_iops

    # Host wall time measuring the benchmark itself — never feeds the
    # model.  The whole measurement is timed (cluster build included);
    # it is dominated by the run loop at this thread count.
    started = time.perf_counter()  # lint: disable=no-wall-clock
    mops, dispatched = measure_inbound_iops(
        FIG03_THREADS,
        window_us=FIG03_WINDOW_US,
        reference=reference,
        return_dispatched=True,
    )
    wall = time.perf_counter() - started  # lint: disable=no-wall-clock
    return wall, dispatched, mops


# ----------------------------------------------------------------------
# Scenario 4: end-to-end cluster failover replay
# ----------------------------------------------------------------------

_SEQ = struct.Struct("<Q")


def _seq_value(sequence: int) -> bytes:
    return _SEQ.pack(sequence) + b"\x00" * 56


def _run_cluster_replay(reference: bool) -> Tuple[float, int, float]:
    from repro.cluster import ClusterConfig, RfpCluster
    from repro.core.config import RfpConfig
    from repro.hw.cluster import build_cluster
    from repro.hw.specs import CLUSTER_EUROSYS17, ClusterSpec
    from repro.kv.store import StoreCostModel
    from repro.lint.invariants import ClusterInvariantChecker, RfpInvariantChecker
    from repro.sim.monitor import ThroughputMeter
    from repro.sim.random import seeded_rng
    from repro.sim.trace import Tracer

    shards = 3
    spec = ClusterSpec(
        machine=CLUSTER_EUROSYS17.machine,
        machines=18,
        switch_hop_us=CLUSTER_EUROSYS17.switch_hop_us,
    )
    sim = Simulator(reference=reference)
    cluster = build_cluster(sim, spec)
    if reference:
        # Pre-PR configuration: the old engine had no tracer opt-out, so
        # every cluster bench paid full tracing plus subscribed
        # invariant checkers on every op.
        cluster_tracer = Tracer(sim, categories=["cluster"])
        shard_tracers = {
            f"shard{i}": Tracer(sim, capacity=1) for i in range(shards)
        }
        for tracer in shard_tracers.values():
            RfpInvariantChecker(
                config=RfpConfig(consecutive_slow_calls=1)
            ).attach(tracer)
        ClusterInvariantChecker().attach(cluster_tracer)
    else:
        # Post-PR perf configuration: no tracers at all — every record
        # site is gated on ``tracer is not None`` so the perf loop pays
        # nothing.  Invariant checking still runs at 100% coverage where
        # it matters — the tier-1 failover bench and the golden-trace
        # test — instead of inside the perf loop.
        cluster_tracer = None
        shard_tracers = None
    service = RfpCluster(
        sim,
        cluster,
        shards=shards,
        rfp_config=RfpConfig(consecutive_slow_calls=1),
        cost_model=StoreCostModel(jitter_probability=0.0),
        cluster_config=ClusterConfig(replication_factor=2),
        tracer=cluster_tracer,
        shard_tracers=shard_tracers,
    )
    keys = [f"key{i:06d}".encode() for i in range(CLUSTER_RECORDS)]
    per_client = max(1, CLUSTER_RECORDS // CLUSTER_CLIENTS)
    owned = {
        c: keys[c * per_client : (c + 1) * per_client]
        for c in range(CLUSTER_CLIENTS)
    }
    service.preload([(key, _seq_value(0)) for key in keys])
    window = CLUSTER_WINDOW_US
    meter = ThroughputMeter(window_start=window * 0.25, window_end=window)

    def loop(sim: Simulator, client: Any, client_id: int):
        rng = seeded_rng(client_id)
        mine = owned[client_id]
        sequence = 0
        while True:
            if sequence % 4 == 3:
                key = mine[(sequence // 4) % len(mine)]
                sequence += 1
                yield from client.put(key, _seq_value(sequence))
            else:
                sequence += 1
                key = keys[int(rng.integers(len(keys)))]
                yield from client.get(key)
            meter.record(sim.now)

    for index in range(CLUSTER_CLIENTS):
        machine = cluster.machines[shards + index % (spec.machines - shards)]
        client = service.connect(machine, name=f"c{index}")
        sim.process(loop(sim, client, index))
    sim.schedule(window * 0.5, service.kill, "shard1")
    wall = _timed_run(sim, until=window)
    return wall, sim.dispatched, meter.mops(elapsed=window * 0.75)


# ----------------------------------------------------------------------
# Suite driver, report, artifact
# ----------------------------------------------------------------------


def run_speed_suite(repetitions: int = REPETITIONS) -> List[SpeedResult]:
    """Run all scenarios; returns one :class:`SpeedResult` each."""
    return [
        _measure(
            "event-churn",
            "zero-delay completion cascade under a "
            f"{CHURN_BACKLOG // 1000}k parked-timer backlog",
            _run_event_churn,
            repetitions,
        ),
        _measure(
            "timeout-storm",
            f"{STORM_PROCESSES} concurrent processes on staggered timers",
            _run_timeout_storm,
            repetitions,
        ),
        _measure(
            "fig03-replay",
            f"full fig3 in-bound IOPS replay ({FIG03_THREADS} client threads)",
            _run_fig03_replay,
            repetitions,
        ),
        _measure(
            "cluster-replay",
            "end-to-end RfpCluster failover replay: pre-PR shape "
            "(reference engine, always-on tracing + checkers) vs post-PR "
            "perf shape (fast engine, tracing off)",
            _run_cluster_replay,
            repetitions,
        ),
    ]


def format_speed_report(results: List[SpeedResult]) -> str:
    lines = [
        "sim speed suite (best of "
        f"{results[0].repetitions if results else REPETITIONS}; "
        "wall seconds are host-dependent)",
        f"{'scenario':16s} {'events':>9s} {'fast s':>8s} {'ref s':>8s} "
        f"{'fast ev/s':>11s} {'speedup':>8s}",
    ]
    for result in results:
        lines.append(
            f"{result.name:16s} {result.dispatched_fast:9d} "
            f"{result.wall_s_fast:8.3f} {result.wall_s_reference:8.3f} "
            f"{result.events_per_sec_fast:11.0f} {result.speedup:7.2f}x"
        )
    return "\n".join(lines)


def write_artifact(results: List[SpeedResult], path: str = ARTIFACT_NAME) -> str:
    """Write the perf-trajectory artifact; returns the path written.

    Schema v2 stamps provenance: the git SHA/dirty flag the suite ran at
    and the scale of the headline (cluster-replay) scenario, so two
    artifacts can be compared knowing they measured the same tree at the
    same scenario size.
    """
    from repro.provenance import git_provenance

    payload = {
        "schema": SCHEMA_VERSION,
        "note": (
            "dispatched counts and modeled_mops are deterministic and "
            "pinned by tests/bench/test_speed_bench.py; wall_s/events_per_sec"
            "/speedup are host-dependent and recorded for trajectory only"
        ),
        "provenance": {
            **git_provenance(),
            "scale": {
                "window_us": CLUSTER_WINDOW_US,
                "warmup_fraction": 0.25,
                "records": CLUSTER_RECORDS,
                "full": False,
            },
        },
        "repetitions": results[0].repetitions if results else REPETITIONS,
        "scenarios": [result.to_json() for result in results],
        "frozen_baseline": dict(FROZEN_BASELINE),
    }
    for result in results:
        if result.name == FROZEN_BASELINE["scenario"] and result.wall_s_fast > 0:
            payload["frozen_baseline"]["speedup_vs_fast"] = round(
                FROZEN_BASELINE["wall_s"] / result.wall_s_fast, 2
            )
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=2, sort_keys=False)
        sink.write("\n")
    return path
