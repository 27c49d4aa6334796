"""Property-based tests for shard recovery & ring rejoin.

Two families:

- **Placement restoration** — placement is a pure function of
  membership, so remove + re-add restores the exact pre-crash ring for
  arbitrary shard counts, vnode counts, and victims.  This is the
  algebraic fact the recovery coordinator's "restored ring" planning
  leans on.
- **Linearizability-lite** — full-simulation crash/rejoin cycles at
  random crash/repair times: every write acknowledged before the
  window cut is readable from every final-ring replica afterwards, and
  the run's cluster trace satisfies the rejoin invariants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    FaultPlan,
    HashRing,
    MigrationConfig,
    RfpCluster,
    ShardStatus,
)
from repro.core.config import RfpConfig
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv.store import StoreCostModel
from repro.lint.invariants import ClusterInvariantChecker
from repro.sim import Simulator, Tracer, seeded_rng

node_counts = st.integers(min_value=2, max_value=8)
vnode_counts = st.integers(min_value=16, max_value=256)
victims = st.integers(min_value=0, max_value=7)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def nodes(count):
    return [f"shard{i}" for i in range(count)]


def random_keys(seed, count=1000):
    rng = seeded_rng(seed)
    return [bytes(row) for row in rng.integers(0, 256, size=(count, 12), dtype="u1")]


class TestPlacementRestoration:
    @settings(max_examples=25, deadline=None)
    @given(node_counts, vnode_counts, victims, seeds)
    def test_remove_then_readd_restores_placement(
        self, count, vnodes, victim, seed
    ):
        """Crash + rejoin is a no-op on placement: every key's full
        replica list is byte-identical to before the crash."""
        victim_name = nodes(count)[victim % count]
        ring = HashRing(nodes(count), vnodes=vnodes)
        keys = random_keys(seed)
        factor = min(2, count)
        before = {key: ring.lookup_replicas(key, factor) for key in keys}
        ring.remove_node(victim_name)
        ring.add_node(victim_name)
        assert ring.nodes == sorted(nodes(count))
        after = {key: ring.lookup_replicas(key, factor) for key in keys}
        assert after == before

    @settings(max_examples=25, deadline=None)
    @given(node_counts, vnode_counts, victims)
    def test_with_node_previews_the_restored_ring(self, count, vnodes, victim):
        """The coordinator plans against ``with_node`` without mutating
        the live ring; the preview must equal the eventual re-entry."""
        victim_name = nodes(count)[victim % count]
        ring = HashRing(nodes(count), vnodes=vnodes)
        ring.remove_node(victim_name)
        survivors = ring.nodes
        preview = ring.with_node(victim_name)
        assert ring.nodes == survivors  # live ring untouched
        ring.add_node(victim_name)
        keys = random_keys(7, count=300)
        assert [preview.lookup(k) for k in keys] == [ring.lookup(k) for k in keys]


class TestLinearizabilityLite:
    @settings(max_examples=5, deadline=None)
    @given(
        st.floats(min_value=300.0, max_value=500.0),
        st.floats(min_value=400.0, max_value=700.0),
        seeds,
    )
    def test_acked_writes_survive_random_crash_timing(
        self, kill_at, repair_gap, seed
    ):
        """Whatever the crash/repair timing, an acked PUT is never lost:
        after the rejoin it is readable from every final-ring replica."""
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        tracer = Tracer(sim, categories=["cluster"])
        checker = ClusterInvariantChecker().attach(tracer)
        service = RfpCluster(
            sim,
            cluster,
            shards=3,
            rfp_config=RfpConfig(consecutive_slow_calls=1),
            cost_model=StoreCostModel(jitter_probability=0.0),
            cluster_config=ClusterConfig(replication_factor=2),
            tracer=tracer,
        )
        keys = [f"key{i:04d}".encode() for i in range(32)]
        service.preload([(key, b"\x00" * 8) for key in keys])
        rng = seeded_rng(seed)
        acked = {}

        def body(client, my_keys, salt):
            sequence = int(rng.integers(100))
            while True:
                key = my_keys[sequence % len(my_keys)]
                if sequence % 2 == 0:
                    sequence += 1
                    value = b"%4d%4d" % (salt, sequence)
                    yield from client.put(key, value)
                    acked[key] = value
                else:
                    sequence += 1
                    yield from client.get(key)

        for index in range(4):
            client = service.connect(cluster.machines[3 + index], name=f"c{index}")
            sim.process(body(client, keys[index::4], index))

        repair_at = kill_at + repair_gap
        plan = FaultPlan.kill_then_repair("shard1", kill_at, repair_at)
        plan.arm(sim, service, recovery_config=MigrationConfig(batch_keys=8))
        sim.run(until=repair_at + 700.0)

        recovery = plan.recoveries[0]
        assert not recovery.active and not recovery.aborted
        assert service.membership.status("shard1") is ShardStatus.HEALTHY
        assert service.ring.nodes == ["shard0", "shard1", "shard2"]
        checker.assert_clean()
        assert acked
        for key, value in acked.items():
            for shard in service.replicas_for(key):
                stored = service.peek(shard, key)
                assert stored is not None, (key, shard)
                # Single writer per key with a monotone suffix: stored
                # may be newer (an in-flight PUT at the cut), not older.
                assert stored >= value, (key, shard, stored, value)
