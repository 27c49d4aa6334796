"""Property-based tests for multi-key transactions & the twice-built queue.

Three families, all leaning on :mod:`tests.property.linearizability`:

- **Multi-PUT atomicity** — full-simulation crash/rejoin cycles at
  random crash/repair times with concurrent transactional writers
  (including two writers contending for one shared key group): after
  the run, every key group is *internally equal* — all keys of a group
  hold the same transaction's value — and that value was acked to some
  client.  A single torn group would mean a reader could observe half a
  transaction.
- **Multi-PUT linearizability** — a recorded history of ``multi_put``
  and ``get`` ops across contending clients spanning a crash/repair
  window must admit a witness order under :class:`MultiRegisterModel`
  (atomic multi-key install).
- **Queue linearizability** — the same concurrent producer/consumer
  schedule runs against both builds — :class:`OneSidedQueue` (verbs)
  and :class:`RfpQueue` (RPC) — while a shard on the shared fabric
  crashes and rejoins; each recorded history must admit a witness order
  under :class:`FifoQueueModel`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    FaultPlan,
    MigrationConfig,
    QueueRegion,
    RfpCluster,
    RfpQueue,
    ShardStatus,
)
from repro.core.config import RfpConfig
from repro.errors import ClusterError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv.store import StoreCostModel
from repro.lint.invariants import ClusterInvariantChecker
from repro.sim import Simulator, Tracer, seeded_rng

from tests.property.linearizability import (
    FifoQueueModel,
    History,
    MultiRegisterModel,
    explain_not_linearizable,
    linearizable,
    recorded,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def make_service(sim, cluster, tracer):
    return RfpCluster(
        sim,
        cluster,
        shards=3,
        rfp_config=RfpConfig(consecutive_slow_calls=1),
        cost_model=StoreCostModel(jitter_probability=0.0),
        cluster_config=ClusterConfig(replication_factor=2),
        tracer=tracer,
    )


class TestMultiPutAtomicity:
    @settings(max_examples=5, deadline=None)
    @given(
        st.floats(min_value=300.0, max_value=500.0),
        st.floats(min_value=400.0, max_value=700.0),
        seeds,
    )
    def test_no_torn_groups_under_random_crash_timing(
        self, kill_at, repair_gap, seed
    ):
        """Whatever the crash/repair timing, a key group written only by
        whole-group transactions is never torn: every key (on every
        final-ring replica) holds the same committed value, and that
        value was acknowledged to the client that wrote it."""
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        tracer = Tracer(sim, categories=["cluster"])
        checker = ClusterInvariantChecker().attach(tracer)
        service = make_service(sim, cluster, tracer)

        initial = b"%02d%06d" % (0, 0)
        groups = [
            [b"txng%d-%02d" % (group, item) for item in range(4)]
            for group in range(4)
        ]
        for group_keys in groups:
            service.preload([(key, initial) for key in group_keys])
        acked = {group: {initial} for group in range(4)}
        rng = seeded_rng(seed)

        def body(client, salt, my_groups):
            sequence = int(rng.integers(100))
            while True:
                group = my_groups[sequence % len(my_groups)]
                sequence += 1
                value = b"%02d%06d" % (salt, sequence)
                try:
                    yield from client.multi_put(
                        [(key, value) for key in groups[group]]
                    )
                except ClusterError:
                    continue  # lock timeout / mid-crash abort: no effect
                acked[group].add(value)

        # Clients 1 and 2 both write group 3: genuine lock contention.
        ownership = [(1, (0, 3)), (2, (1, 3)), (3, (2,))]
        for salt, my_groups in ownership:
            client = service.connect(cluster.machines[2 + salt], name=f"w{salt}")
            sim.process(body(client, salt, my_groups))

        repair_at = kill_at + repair_gap
        plan = FaultPlan.kill_then_repair("shard1", kill_at, repair_at)
        plan.arm(sim, service, recovery_config=MigrationConfig(batch_keys=8))
        sim.run(until=repair_at + 700.0)

        recovery = plan.recoveries[0]
        assert not recovery.active and not recovery.aborted
        assert service.membership.status("shard1") is ShardStatus.HEALTHY
        assert service.ring.nodes == ["shard0", "shard1", "shard2"]
        assert service.txns.committed > 0
        checker.assert_clean()
        # NOTE: no leaked-lease audit here — the run cuts mid-flight
        # transactions at `until`, which legitimately leaves open leases.

        for group, group_keys in enumerate(groups):
            stored = {
                service.peek(shard, key)
                for key in group_keys
                for shard in service.replicas_for(key)
            }
            assert len(stored) == 1, (
                f"group {group} is torn across keys/replicas: {stored!r}"
            )
            (value,) = stored
            assert value in acked[group], (
                f"group {group} holds unacked value {value!r}"
            )


class TestMultiPutLinearizability:
    @settings(max_examples=3, deadline=None)
    @given(st.floats(min_value=250.0, max_value=450.0), seeds)
    def test_history_admits_witness_order(self, kill_at, seed):
        """A recorded multi_put/get history spanning a crash/repair
        window linearizes under the atomic multi-register model."""
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        tracer = Tracer(sim, categories=["cluster"])
        checker = ClusterInvariantChecker().attach(tracer)
        service = make_service(sim, cluster, tracer)

        keys = [b"lin-a", b"lin-b", b"lin-c"]
        initial = {key: b"00" for key in keys}
        service.preload(sorted(initial.items()))
        history = History(sim)
        rng = seeded_rng(seed)

        def writer(client, salt, rounds):
            for round_no in range(rounds):
                yield sim.timeout(float(rng.integers(1, 120)))
                value = b"%d%d" % (salt, round_no)
                items = [(key, value) for key in keys]
                op_id = history.invoke("multi_put", tuple(items))
                try:
                    yield from client.multi_put(items)
                except ClusterError:
                    history.discard(op_id)  # aborted: provably no effect
                else:
                    history.complete(op_id, None)

        def reader(client, rounds):
            for round_no in range(rounds):
                yield sim.timeout(float(rng.integers(1, 120)))
                key = keys[round_no % len(keys)]
                value = yield from recorded(
                    history, "get", key, client.get(key)
                )
                assert value is not None

        sim.process(writer(service.connect(cluster.machines[3], name="w0"), 1, 4))
        sim.process(writer(service.connect(cluster.machines[4], name="w1"), 2, 4))
        sim.process(reader(service.connect(cluster.machines[5], name="r0"), 8))

        plan = FaultPlan.kill_then_repair("shard1", kill_at, kill_at + 400.0)
        plan.arm(sim, service, recovery_config=MigrationConfig(batch_keys=8))
        sim.run(until=kill_at + 400.0 + 2_000.0)

        assert service.membership.status("shard1") is ShardStatus.HEALTHY
        assert history.pending == 0, "a client body never finished"
        ops = history.ops()
        assert any(op.kind == "multi_put" for op in ops)
        checker.assert_clean()
        model = MultiRegisterModel(initial)
        assert linearizable(ops, model), explain_not_linearizable(ops)


class TestQueueLinearizability:
    """The same fault-shadowed producer/consumer schedule, both builds."""

    def _run_history(self, connect_clients):
        """Drive 2 producers + 2 consumers against queue clients built
        by ``connect_clients(sim, cluster, tracer)``, while a cluster
        shard on the same fabric crashes and rejoins."""
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        tracer = Tracer(sim, categories=["cluster"])
        checker = ClusterInvariantChecker().attach(tracer)
        service = make_service(sim, cluster, tracer)
        clients = connect_clients(sim, cluster, tracer)
        history = History(sim)

        def producer(queue, salt, count, start_at):
            yield sim.timeout(start_at)
            for item_no in range(count):
                item = b"%d:%d" % (salt, item_no)
                yield from recorded(
                    history, "enqueue", item, queue.enqueue(item)
                )
                yield sim.timeout(3.0)

        def consumer(queue, want, start_at):
            yield sim.timeout(start_at)
            got = 0
            while got < want:
                value = yield from recorded(
                    history, "dequeue", None, queue.dequeue()
                )
                if value is None:
                    yield sim.timeout(7.0)
                else:
                    got += 1

        sim.process(producer(clients[0], 1, 4, 5.0))
        sim.process(producer(clients[1], 2, 4, 9.0))
        sim.process(consumer(clients[2], 4, 40.0))
        sim.process(consumer(clients[3], 4, 44.0))

        plan = FaultPlan.kill_then_repair("shard1", 30.0, 430.0)
        plan.arm(sim, service, recovery_config=MigrationConfig(batch_keys=8))
        sim.run(until=2_000.0)

        assert service.membership.status("shard1") is ShardStatus.HEALTHY
        checker.assert_clean()
        assert history.pending == 0, "a queue client never finished"
        ops = history.ops()
        dequeued = [
            op.result
            for op in ops
            if op.kind == "dequeue" and op.result is not None
        ]
        assert sorted(dequeued) == sorted(
            b"%d:%d" % (salt, item_no) for salt in (1, 2) for item_no in range(4)
        )
        assert linearizable(ops, FifoQueueModel()), explain_not_linearizable(ops)

    def test_one_sided_queue_linearizes_under_crash_repair(self):
        def connect(sim, cluster, tracer):
            host = QueueRegion(
                sim, cluster, machine=cluster.machines[7], capacity=64,
                max_item_bytes=16,
            )
            return [
                host.connect(cluster.machines[3 + index], name=f"osq{index}")
                for index in range(4)
            ]

        self._run_history(connect)

    def test_rfp_queue_linearizes_under_crash_repair(self):
        def connect(sim, cluster, tracer):
            queue = RfpQueue(sim, cluster, machine=cluster.machines[7])
            return [
                queue.connect(cluster.machines[3 + index], name=f"rfpq{index}")
                for index in range(4)
            ]

        self._run_history(connect)
