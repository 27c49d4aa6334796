"""Shard recovery & rejoin: crash, stream ranges back, re-enter the ring.

Deterministic crash/rejoin cycles driven by :class:`repro.cluster.FaultPlan`
— the same harness the property tests and the ``ext-cluster-rejoin``
benchmark use — with the cluster invariant checker attached to every run
(via the always-on ``cluster_invariants`` fixture) and the RFP protocol
checkers opt-in via ``--rfp-invariants``.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    Fault,
    FaultPlan,
    Membership,
    MigrationConfig,
    RfpCluster,
    ShardStatus,
)
from repro.core.config import RfpConfig
from repro.errors import ClusterError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv.store import StoreCostModel
from repro.sim import Simulator, Tracer

KEYS = [f"key{i:04d}".encode() for i in range(40)]


def make_service(attach_checker=None, shards=3):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    tracer = Tracer(sim, categories=["cluster"])
    if attach_checker is not None:
        attach_checker(tracer)
    service = RfpCluster(
        sim,
        cluster,
        shards=shards,
        rfp_config=RfpConfig(consecutive_slow_calls=1),
        cost_model=StoreCostModel(jitter_probability=0.0),
        cluster_config=ClusterConfig(replication_factor=2),
        tracer=tracer,
    )
    service.preload([(key, b"v" * 32) for key in KEYS])
    return sim, cluster, tracer, service


def writer_clients(sim, cluster, service, clients=4):
    """Closed-loop GET/PUT clients; returns the acked-write ledger."""
    acked = {}

    def body(client, my_keys):
        sequence = 0
        while True:
            key = my_keys[sequence % len(my_keys)]
            if sequence % 3 == 2:
                sequence += 1
                value = b"w%04d" % sequence
                yield from client.put(key, value)
                acked[key] = value
            else:
                sequence += 1
                yield from client.get(key)

    for index in range(clients):
        client = service.connect(cluster.machines[3 + index], name=f"c{index}")
        sim.process(body(client, KEYS[index::4]))
    return acked


def cluster_labels(tracer):
    return [event.label for event in tracer.events()]


class TestFullCycle:
    """kill -> repair -> transfer -> cutover restores the exact ring."""

    def run_cycle(self, attach_checker, until=1500.0):
        sim, cluster, tracer, service = make_service(attach_checker)
        pre_ring = list(service.ring.nodes)
        pre_placement = {key: service.replicas_for(key) for key in KEYS}
        acked = writer_clients(sim, cluster, service)
        plan = FaultPlan.kill_then_repair("shard1", 400.0, 800.0)
        plan.arm(sim, service, recovery_config=MigrationConfig(batch_keys=8))
        sim.run(until=until)
        return sim, service, tracer, plan, pre_ring, pre_placement, acked

    def test_ring_restored_exactly(self, cluster_invariants):
        _, service, _, plan, pre_ring, pre_placement, _ = self.run_cycle(
            cluster_invariants
        )
        recovery = plan.recoveries[0]
        assert not recovery.active and not recovery.aborted
        assert service.ring.nodes == pre_ring
        assert {key: service.replicas_for(key) for key in KEYS} == pre_placement
        assert service.membership.status("shard1") is ShardStatus.HEALTHY
        assert [event.shard for event in service.failover.reinstatements] == [
            "shard1"
        ]

    def test_watermark_reaches_target(self, cluster_invariants):
        _, service, _, plan, _, _, _ = self.run_cycle(cluster_invariants)
        recovery = plan.recoveries[0]
        assert recovery.target > 0
        assert recovery.watermark == recovery.target
        assert recovery.event.batches > 1  # actually streamed, not one blob
        metrics = service.metrics.shard("shard1")
        assert metrics.transfer_batches.value == recovery.event.batches
        assert metrics.transferred_keys.value == recovery.event.transferred_keys
        assert metrics.transferred_bytes.value == recovery.event.transferred_bytes
        assert metrics.recoveries.value == 1

    def test_acked_writes_readable_from_every_replica(self, cluster_invariants):
        _, service, _, _, _, _, acked = self.run_cycle(cluster_invariants)
        assert acked  # writers made progress
        for key, value in acked.items():
            for shard in service.replicas_for(key):
                stored = service.peek(shard, key)
                # The stored value may be *newer* than the last ack (a
                # write in flight at the window cut) but never older.
                assert stored is not None
                assert stored >= value, (key, shard, stored, value)

    def test_trace_has_rejoin_transfer_handoff_sequence(self, cluster_invariants):
        _, _, tracer, _, _, _, _ = self.run_cycle(cluster_invariants)
        labels = cluster_labels(tracer)
        assert labels.index("dead") < labels.index("rejoin")
        assert labels.index("rejoin") < labels.index("migrate_start")
        assert labels.index("migrate_start") < labels.index("migrate_batch")
        assert labels.index("migrate_batch") < labels.index("migrate_cutover")
        assert "migrate_abort" not in labels
        reasons = {
            event.data["reason"]
            for event in tracer.events()
            if event.label.startswith("migrate_")
        }
        assert reasons == {"recovery"}

    def test_rejoiner_pulls_donors_stay_inbound_only(
        self, cluster_invariants, rfp_invariants
    ):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        cluster_tracer = Tracer(sim, categories=["cluster"])
        cluster_invariants(cluster_tracer)
        shard_tracers = {f"shard{i}": Tracer(sim, capacity=1) for i in range(3)}
        for tracer in shard_tracers.values():
            rfp_invariants(tracer, config=RfpConfig(consecutive_slow_calls=1))
        service = RfpCluster(
            sim,
            cluster,
            shards=3,
            rfp_config=RfpConfig(consecutive_slow_calls=1),
            cost_model=StoreCostModel(jitter_probability=0.0),
            cluster_config=ClusterConfig(replication_factor=2),
            tracer=cluster_tracer,
            shard_tracers=shard_tracers,
        )
        service.preload([(key, b"v" * 32) for key in KEYS])
        writer_clients(sim, cluster, service)
        plan = FaultPlan.kill_then_repair("shard1", 400.0, 800.0)
        plan.arm(sim, service)
        sim.run(until=1500.0)
        recovery = plan.recoveries[0]
        assert not recovery.active and not recovery.aborted
        # The rejoiner's only out-bound verbs are its ranged reads.
        rejoiner_nic = service.shards["shard1"].machine.rnic
        assert rejoiner_nic.outbound_ops == recovery.event.batches
        # Donors served the stream in-bound: zero out-bound verbs ever.
        for donor in ("shard0", "shard2"):
            assert service.shards[donor].machine.rnic.outbound_ops == 0


class TestRehaltMidTransfer:
    """A second crash mid-transfer aborts: donors keep ownership."""

    def run_rehalt(self, attach_checker, until=2000.0):
        sim, cluster, tracer, service = make_service(attach_checker)
        writer_clients(sim, cluster, service)
        # pace_us=150 stretches the transfer so the second kill at 900
        # lands mid-stream (lease expiry re-declares DEAD by ~1000).
        plan = FaultPlan(
            [
                Fault(400.0, "kill", "shard1"),
                Fault(800.0, "repair", "shard1"),
                Fault(900.0, "kill", "shard1"),
            ]
        )
        plan.arm(sim, service, recovery_config=MigrationConfig(pace_us=150.0))
        sim.run(until=until)
        return sim, service, tracer, plan

    def test_abort_leaves_donors_owning(self, cluster_invariants):
        _, service, tracer, plan = self.run_rehalt(cluster_invariants)
        recovery = plan.recoveries[0]
        assert recovery.aborted and not recovery.active
        assert service.membership.status("shard1") is ShardStatus.DEAD
        # The ring was never touched: no reinstatement, no cutover, and
        # the survivors still own every range.
        assert service.ring.nodes == ["shard0", "shard2"]
        assert service.failover.reinstatements == []
        labels = cluster_labels(tracer)
        assert "migrate_cutover" not in labels
        assert "migrate_abort" in labels
        assert service.metrics.shard("shard1").recoveries.value == 0

    def test_no_duplicate_handoff_on_second_repair(self, cluster_invariants):
        """After an abort, a fresh repair runs a whole new recovery and
        performs exactly one cutover."""
        sim, service, tracer, plan = self.run_rehalt(cluster_invariants)
        second = service.repair("shard1")
        sim.run(until=3500.0)
        assert not second.active and not second.aborted
        assert service.ring.nodes == ["shard0", "shard1", "shard2"]
        assert service.membership.status("shard1") is ShardStatus.HEALTHY
        assert [event.shard for event in service.failover.reinstatements] == [
            "shard1"
        ]
        assert cluster_labels(tracer).count("migrate_cutover") == 1
        assert service.metrics.shard("shard1").recoveries.value == 1


class TestTopologyChangeMidTransfer:
    """The ring changing under a live transfer re-plans it (a stale plan
    would make the rejoiner routable while missing keys the actual ring
    places on it)."""

    def run_second_failure(self, attach_checker, until=4000.0):
        sim, cluster, tracer, service = make_service(attach_checker)
        writer_clients(sim, cluster, service)
        plan = FaultPlan(
            [
                Fault(400.0, "kill", "shard1"),
                Fault(800.0, "repair", "shard1"),
                # shard2 dies mid-transfer: its failover shrinks the ring
                # shard1's plan and restored ring were computed against.
                Fault(900.0, "kill", "shard2"),
            ]
        )
        plan.arm(
            sim,
            service,
            recovery_config=MigrationConfig(pace_us=150.0, batch_keys=4),
        )
        sim.run(until=until)
        return sim, service, tracer, plan

    def test_replan_restores_the_actual_ring(self, cluster_invariants):
        _, service, tracer, plan = self.run_second_failure(cluster_invariants)
        recovery = plan.recoveries[0]
        assert not recovery.active and not recovery.aborted
        assert "migrate_replan" in cluster_labels(tracer)
        # The cutover re-entered the ring that actually exists — the
        # two-survivor one — not the stale three-shard restored ring.
        assert recovery.restored_ring.nodes == ["shard0", "shard1"]
        assert service.ring.nodes == ["shard0", "shard1"]
        assert service.membership.status("shard1") is ShardStatus.HEALTHY
        assert service.membership.status("shard2") is ShardStatus.DEAD

    def test_rejoiner_holds_every_key_the_ring_places_on_it(
        self, cluster_invariants
    ):
        """The moment the cutover makes the shard routable, it must hold
        every acked key the actual (two-node, RF=2) ring places on it —
        i.e. every acked key its donor holds.  Peeking at the cutover
        instant matters: later write traffic would wash out a stale plan
        (the shard would be routable-but-behind only transiently)."""
        sim, cluster, tracer, service = make_service(cluster_invariants)
        acked = writer_clients(sim, cluster, service)
        missing_at_cutover = []

        def snapshot(event):
            if event.category == "cluster" and event.label == "migrate_cutover":
                missing_at_cutover.append(
                    [
                        key
                        for key in acked
                        if service.peek("shard0", key) is not None
                        and service.peek("shard1", key) is None
                    ]
                )

        tracer.subscribe(snapshot)
        plan = FaultPlan(
            [
                Fault(400.0, "kill", "shard1"),
                Fault(800.0, "repair", "shard1"),
                Fault(900.0, "kill", "shard2"),
            ]
        )
        plan.arm(
            sim,
            service,
            recovery_config=MigrationConfig(pace_us=150.0, batch_keys=4),
        )
        sim.run(until=4000.0)
        assert not plan.recoveries[0].active
        assert missing_at_cutover == [[]]

    def test_concurrent_recoveries_replan_on_each_others_handoff(
        self, cluster_invariants
    ):
        """Two shards recover at once: the first cutover grows the ring
        under the second transfer, which must re-plan against it (its
        restored ring was computed while the first was still out)."""
        sim, cluster, tracer, service = make_service(cluster_invariants)
        writer_clients(sim, cluster, service)
        plan = FaultPlan(
            [
                Fault(400.0, "kill", "shard1"),
                Fault(500.0, "kill", "shard2"),
                Fault(800.0, "repair", "shard1"),
                Fault(860.0, "repair", "shard2"),
            ]
        )
        plan.arm(
            sim,
            service,
            recovery_config=MigrationConfig(pace_us=100.0, batch_keys=8),
        )
        sim.run(until=5000.0)
        assert len(plan.recoveries) == 2
        for recovery in plan.recoveries:
            assert not recovery.active and not recovery.aborted
        assert "migrate_replan" in cluster_labels(tracer)
        assert service.ring.nodes == ["shard0", "shard1", "shard2"]
        for shard in service.shards:
            assert service.membership.status(shard) is ShardStatus.HEALTHY


class TestKillInHandoffWindow:
    """A kill landing after the last batch but before the lease expires
    must not hand off: the abort flag only flips on the DEAD transition,
    and promoting a halted shard would make every route to it time out."""

    def test_no_promotion_of_halted_shard(self, cluster_invariants):
        sim, cluster, tracer, service = make_service(cluster_invariants)
        writer_clients(sim, cluster, service)
        # batch_keys=64 -> one batch per donor; pace 400 leaves a wide
        # quiet window after the final batch in which the kill lands,
        # with the cutover (and the lease expiry) still ahead.
        plan = FaultPlan(
            [
                Fault(400.0, "kill", "shard1"),
                Fault(800.0, "repair", "shard1"),
                Fault(1595.0, "kill", "shard1"),
            ]
        )
        plan.arm(
            sim,
            service,
            recovery_config=MigrationConfig(batch_keys=64, pace_us=400.0),
        )
        sim.run(until=2500.0)
        recovery = plan.recoveries[0]
        # The stream had fully caught up — the exact hole the watermark
        # check alone cannot see — yet the shard must not re-enter.
        assert recovery.watermark == recovery.target
        assert recovery.aborted and not recovery.active
        assert service.membership.status("shard1") is ShardStatus.DEAD
        assert service.ring.nodes == ["shard0", "shard2"]
        assert service.failover.reinstatements == []
        labels = cluster_labels(tracer)
        assert "migrate_cutover" not in labels
        assert "migrate_abort" in labels


class TestPutRecheckIsNotARetry:
    def test_replica_gain_on_final_attempt_still_acks(self):
        """A ring that gains a member between a PUT's last write and its
        ack must not make the client see a failure for a durable write:
        the re-write loop is bookkeeping, not a routing retry."""
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        service = RfpCluster(
            sim,
            cluster,
            shards=2,
            rfp_config=RfpConfig(consecutive_slow_calls=1),
            cost_model=StoreCostModel(jitter_probability=0.0),
            cluster_config=ClusterConfig(replication_factor=2, max_op_retries=1),
        )
        client = service.connect(cluster.machines[3])
        key = b"key0001"
        service.preload([(key, b"seed")])
        real = client._healthy_replicas
        calls = []

        def gains_member_after_first_read(k):
            calls.append(k)
            # First read (the write set): one replica short, as if the
            # cutover had not landed yet; every later read (the ack-time
            # re-check and the re-write round) sees the full set.
            if len(calls) == 1:
                return real(k)[:1]
            return real(k)

        client._healthy_replicas = gains_member_after_first_read
        done = []

        def body():
            yield from client.put(key, b"value-1")
            done.append(True)

        sim.process(body())
        sim.run(until=500.0)
        assert done == [True]
        for shard in service.replicas_for(key):
            assert service.peek(shard, key) == b"value-1"


class TestListenerLifecycle:
    def test_listener_released_after_handoff(self, cluster_invariants):
        sim, cluster, _, service = make_service(cluster_invariants)
        writer_clients(sim, cluster, service)
        baseline = len(service.membership._listeners)
        plan = FaultPlan.kill_then_repair("shard1", 400.0, 800.0)
        plan.arm(sim, service, recovery_config=MigrationConfig(batch_keys=8))
        sim.run(until=1500.0)
        assert not plan.recoveries[0].active
        assert len(service.membership._listeners) == baseline

    def test_listener_released_after_abort(self, cluster_invariants):
        sim, cluster, _, service = make_service(cluster_invariants)
        writer_clients(sim, cluster, service)
        baseline = len(service.membership._listeners)
        plan = FaultPlan(
            [
                Fault(400.0, "kill", "shard1"),
                Fault(800.0, "repair", "shard1"),
                Fault(900.0, "kill", "shard1"),
            ]
        )
        plan.arm(sim, service, recovery_config=MigrationConfig(pace_us=150.0))
        sim.run(until=2000.0)
        assert plan.recoveries[0].aborted
        assert len(service.membership._listeners) == baseline


class TestRepairValidation:
    def test_repair_of_live_shard_rejected(self):
        _, _, _, service = make_service()
        with pytest.raises(ClusterError, match="not dead"):
            service.repair("shard1")

    def test_repair_races_the_detector(self):
        """A halted shard whose lease has not expired yet is not DEAD;
        repairing it would shortcut the failure detector."""
        sim, _, _, service = make_service()
        sim.run(until=100.0)
        service.kill("shard1")
        with pytest.raises(ClusterError, match="races the failure detector"):
            service.repair("shard1")

    def test_double_repair_rejected(self, cluster_invariants):
        sim, _, _, service = make_service(cluster_invariants)
        sim.schedule(400.0, service.kill, "shard1")
        sim.run(until=800.0)
        service.repair("shard1", recovery_config=MigrationConfig(pace_us=500.0))
        with pytest.raises(ClusterError, match="not dead"):
            service.repair("shard1")

    def test_rejoin_requires_dead(self):
        sim = Simulator()
        membership = Membership(sim)
        membership.register("s0")
        with pytest.raises(ClusterError, match="only DEAD shards rejoin"):
            membership.rejoin("s0")


class TestPlantedBug:
    def test_checker_catches_route_below_watermark(self, monkeypatch):
        """Plant the bug the rejoin invariants exist to catch: a router
        that treats RECOVERING as routable (plus an eagerly re-entered
        ring) serves reads from a shard below its watermark.  The
        checker — attached to the *same* live trace the clean tests
        use — must flag it."""
        from repro.lint.invariants import ClusterInvariantChecker

        sim, cluster, tracer, service = make_service()
        checker = ClusterInvariantChecker().attach(tracer)
        writer_clients(sim, cluster, service)
        plan = FaultPlan.kill_then_repair("shard1", 400.0, 800.0)
        # A glacial transfer keeps shard1 RECOVERING for the whole run.
        plan.arm(sim, service, recovery_config=MigrationConfig(pace_us=800.0))
        monkeypatch.setattr(
            Membership,
            "is_routable",
            lambda self, node: self.status(node)
            in (ShardStatus.HEALTHY, ShardStatus.RECOVERING),
        )
        # The buggy "eager rebalance": re-enter the ring before the
        # watermark catches up.
        sim.schedule(850.0, service.failover.reinstate, "shard1")
        sim.run(until=1200.0)
        assert plan.recoveries[0].active  # still mid-transfer
        assert not checker.ok
        assert any("below its watermark" in v for v in checker.violations)


class TestListenerHygiene:
    """Coordinators detach from membership on every recovery exit path.

    The recovery coordinator subscribes a status listener for its
    lifetime; a leak here is invisible to the happy-path tests (a stale
    listener on a finished recovery mostly no-ops) but each leaked
    subscription is a latent callback into dead state.  The atomicity
    analyzer pins the listener bodies (``_on_status_change``) as
    declared-atomic; this test pins the attach/detach accounting.
    """

    def test_handoff_path_detaches(self, cluster_invariants):
        sim, cluster, _, service = make_service(cluster_invariants)
        writer_clients(sim, cluster, service)
        baseline = len(service.membership._listeners)
        plan = FaultPlan.kill_then_repair("shard1", 400.0, 800.0)
        plan.arm(sim, service, recovery_config=MigrationConfig(pace_us=50.0))
        sim.run(until=900.0)  # mid-transfer: the listener is attached
        recovery = plan.recoveries[0]
        assert recovery.active
        assert len(service.membership._listeners) == baseline + 1
        sim.run(until=2500.0)
        assert not recovery.active and not recovery.aborted
        assert len(service.membership._listeners) == baseline

    def test_abort_path_detaches(self, cluster_invariants):
        sim, cluster, _, service = make_service(cluster_invariants)
        writer_clients(sim, cluster, service)
        baseline = len(service.membership._listeners)
        plan = FaultPlan(
            [
                Fault(400.0, "kill", "shard1"),
                Fault(800.0, "repair", "shard1"),
                Fault(900.0, "kill", "shard1"),
            ]
        )
        plan.arm(sim, service, recovery_config=MigrationConfig(pace_us=150.0))
        sim.run(until=2000.0)
        recovery = plan.recoveries[0]
        assert recovery.aborted and not recovery.active
        assert len(service.membership._listeners) == baseline

    def test_repeated_cycles_do_not_accumulate(self, cluster_invariants):
        sim, cluster, _, service = make_service(cluster_invariants)
        writer_clients(sim, cluster, service)
        baseline = len(service.membership._listeners)
        plan = FaultPlan(
            [
                Fault(400.0, "kill", "shard1"),
                Fault(800.0, "repair", "shard1"),
                Fault(2400.0, "kill", "shard1"),
                Fault(2800.0, "repair", "shard1"),
            ]
        )
        plan.arm(sim, service, recovery_config=MigrationConfig(batch_keys=8))
        sim.run(until=4500.0)
        assert len(plan.recoveries) == 2
        for recovery in plan.recoveries:
            assert not recovery.active and not recovery.aborted
        assert len(service.membership._listeners) == baseline
