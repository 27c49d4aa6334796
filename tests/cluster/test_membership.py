"""Unit tests for heartbeat/lease failure detection."""

import pytest

from repro.cluster import Membership, ShardStatus
from repro.errors import ClusterError
from repro.sim import Simulator, Tracer


def make_membership(**kwargs):
    sim = Simulator()
    tracer = Tracer(sim, categories=["cluster"])
    membership = Membership(sim, tracer=tracer, **kwargs)
    return sim, tracer, membership


def drive(sim, membership, node, beat_every_us, stop_at_us, until_us):
    def beats():
        while sim.now < stop_at_us:
            membership.beat(node)
            yield sim.timeout(beat_every_us)

    membership.start()
    sim.process(beats())
    sim.run(until=until_us)


class TestWiring:
    def test_lease_must_exceed_heartbeat(self):
        with pytest.raises(ClusterError):
            make_membership(heartbeat_interval_us=20.0, lease_timeout_us=20.0)

    def test_double_register_rejected(self):
        _, _, membership = make_membership()
        membership.register("s0")
        with pytest.raises(ClusterError):
            membership.register("s0")

    def test_unknown_shard_rejected(self):
        _, _, membership = make_membership()
        with pytest.raises(ClusterError):
            membership.status("ghost")


class TestDetection:
    def test_beating_shard_stays_healthy(self):
        sim, _, membership = make_membership(
            heartbeat_interval_us=20.0, lease_timeout_us=60.0
        )
        membership.register("s0")
        drive(sim, membership, "s0", 20.0, stop_at_us=1000.0, until_us=500.0)
        assert membership.status("s0") is ShardStatus.HEALTHY
        assert membership.is_routable("s0")

    def test_silent_shard_declared_dead_after_lease(self):
        sim, tracer, membership = make_membership(
            heartbeat_interval_us=20.0, lease_timeout_us=60.0
        )
        membership.register("s0")
        drive(sim, membership, "s0", 20.0, stop_at_us=200.0, until_us=500.0)
        assert membership.status("s0") is ShardStatus.DEAD
        (death,) = tracer.events(label="dead")
        # Last beat at t=180, lease 60 -> dead on the first detector tick
        # after t=240.
        assert 240.0 <= death.at_us <= 280.0

    def test_suspect_heals_on_next_beat(self):
        sim, tracer, membership = make_membership()
        membership.register("s0")
        membership.report_suspect("s0", reason="op timed out")
        assert membership.status("s0") is ShardStatus.SUSPECT
        assert not membership.is_routable("s0")
        membership.beat("s0")
        assert membership.status("s0") is ShardStatus.HEALTHY
        assert [e.label for e in tracer.events()] == ["suspect", "recovered"]

    def test_dead_is_sticky(self):
        _, _, membership = make_membership()
        membership.register("s0")
        membership.mark_dead("s0", reason="killed")
        membership.beat("s0")
        membership.report_suspect("s0")
        assert membership.status("s0") is ShardStatus.DEAD

    def test_suspect_only_from_healthy(self):
        _, tracer, membership = make_membership()
        membership.register("s0")
        membership.report_suspect("s0")
        membership.report_suspect("s0")  # second report is a no-op
        assert len(tracer.events(label="suspect")) == 1

    def test_listeners_see_transitions(self):
        _, _, membership = make_membership()
        membership.register("s0")
        seen = []
        membership.subscribe(lambda node, status: seen.append((node, status)))
        membership.report_suspect("s0")
        membership.mark_dead("s0")
        assert seen == [
            ("s0", ShardStatus.SUSPECT),
            ("s0", ShardStatus.DEAD),
        ]

    def test_healthy_nodes_sorted(self):
        _, _, membership = make_membership()
        for name in ("s2", "s0", "s1"):
            membership.register(name)
        membership.mark_dead("s1")
        assert membership.healthy_nodes() == ["s0", "s2"]


class TestRejoin:
    """DEAD -> RECOVERING -> HEALTHY without weakening lease semantics."""

    def test_rejoin_only_from_dead(self):
        _, _, membership = make_membership()
        membership.register("s0")
        with pytest.raises(ClusterError, match="only DEAD shards rejoin"):
            membership.rejoin("s0")
        membership.report_suspect("s0")
        with pytest.raises(ClusterError, match="only DEAD shards rejoin"):
            membership.rejoin("s0")
        membership.mark_dead("s0")
        membership.rejoin("s0", reason="repaired")
        assert membership.status("s0") is ShardStatus.RECOVERING

    def test_recovering_is_not_routable(self):
        _, _, membership = make_membership()
        membership.register("s0")
        membership.mark_dead("s0")
        membership.rejoin("s0")
        assert not membership.is_routable("s0")
        assert membership.healthy_nodes() == []

    def test_promote_only_from_recovering(self):
        _, _, membership = make_membership()
        membership.register("s0")
        with pytest.raises(ClusterError, match="only RECOVERING shards promote"):
            membership.promote("s0")
        membership.mark_dead("s0")
        with pytest.raises(ClusterError, match="only RECOVERING shards promote"):
            membership.promote("s0")
        membership.rejoin("s0")
        membership.promote("s0")
        assert membership.status("s0") is ShardStatus.HEALTHY
        assert membership.is_routable("s0")

    def test_promotion_is_silent_but_notifies_listeners(self):
        """The coordinator traces the paired ``migrate_cutover`` instead; the
        membership itself records no ``recovered`` event on promotion."""
        _, tracer, membership = make_membership()
        membership.register("s0")
        membership.mark_dead("s0")
        membership.rejoin("s0")
        seen = []
        membership.subscribe(lambda node, status: seen.append((node, status)))
        membership.promote("s0")
        assert seen == [("s0", ShardStatus.HEALTHY)]
        assert tracer.events(label="recovered") == []

    def test_beat_refreshes_recovering_lease_without_transition(self):
        sim, tracer, membership = make_membership(
            heartbeat_interval_us=20.0, lease_timeout_us=60.0
        )
        membership.register("s0")
        membership.mark_dead("s0")
        membership.rejoin("s0")
        drive(sim, membership, "s0", 20.0, stop_at_us=1000.0, until_us=500.0)
        # Beats kept the lease alive but never changed the status.
        assert membership.status("s0") is ShardStatus.RECOVERING
        assert len(tracer.events(label="rejoin")) == 1
        assert tracer.events(label="recovered") == []

    def test_recovering_lease_expiry_redeclares_dead(self):
        """A shard that goes silent mid-recovery falls back to DEAD —
        the rejoin path does not weaken the failure detector."""
        sim, tracer, membership = make_membership(
            heartbeat_interval_us=20.0, lease_timeout_us=60.0
        )
        membership.register("s0")
        membership.mark_dead("s0")
        membership.rejoin("s0")
        membership.start()
        sim.run(until=500.0)  # no beats at all after the rejoin
        assert membership.status("s0") is ShardStatus.DEAD
        redeclared = tracer.events(label="dead", since_us=1.0)
        assert len(redeclared) == 1
        assert "lease expired" in redeclared[0].data["reason"]

    def test_dead_still_sticky_after_rejoin_cycle(self):
        """Regression: adding the rejoin exit from DEAD must not let
        beats or suspect reports resurrect a dead shard."""
        _, _, membership = make_membership()
        membership.register("s0")
        membership.mark_dead("s0")
        membership.rejoin("s0")
        membership.promote("s0")
        membership.mark_dead("s0", reason="second crash")
        membership.beat("s0")
        membership.report_suspect("s0")
        assert membership.status("s0") is ShardStatus.DEAD
