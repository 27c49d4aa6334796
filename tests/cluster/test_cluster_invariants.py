"""Planted-violation tests for :class:`ClusterInvariantChecker`.

Each test emits a hand-crafted ``cluster`` trace that breaks exactly one
rule and asserts the checker names it; the clean sequence (the one the
real router produces) must pass untouched.  The watermark rules are one
rule set for both migration reasons, so their tests run once per
``reason`` (a recovery onto a rejoined shard, a rebalance onto a healthy
one) over the same event sequence.
"""

import pytest

from repro.lint import ClusterInvariantChecker, InvariantViolation
from repro.sim import Simulator, Tracer


def make_rig(halt_on_violation=False):
    sim = Simulator()
    tracer = Tracer(sim, categories=["cluster"])
    checker = ClusterInvariantChecker(halt_on_violation=halt_on_violation)
    checker.attach(tracer)
    return tracer, checker


def emit(tracer, label, **data):
    tracer.record("cluster", label, **data)


REASONS = ("recovery", "rebalance")


def start(tracer, reason, shard="s1", donors="s0", target=16):
    emit(
        tracer,
        "migrate_start",
        shard=shard,
        reason=reason,
        donors=donors,
        vnodes=1,
        target=target,
    )


def open_migration(tracer, reason, shard="s1", target=16):
    """Give ``shard`` the status ``reason`` requires, then start a
    migration onto it: a recovery needs a dead-then-rejoined recipient,
    a rebalance a healthy one."""
    if reason == "recovery":
        emit(tracer, "dead", shard=shard)
        emit(tracer, "rejoin", shard=shard, reason="repaired")
    start(tracer, reason, shard=shard, target=target)


def batch(tracer, reason, watermark, target, donor="s0", shard="s1"):
    emit(
        tracer,
        "migrate_batch",
        shard=shard,
        reason=reason,
        donor=donor,
        watermark=watermark,
        target=target,
    )


def cutover(tracer, reason, watermark, target, shard="s1", **extra):
    emit(
        tracer,
        "migrate_cutover",
        shard=shard,
        reason=reason,
        watermark=watermark,
        target=target,
        **extra,
    )


def replan(tracer, reason, watermark, target, shard="s1"):
    emit(
        tracer,
        "migrate_replan",
        shard=shard,
        reason=reason,
        watermark=watermark,
        target=target,
    )


def abort(tracer, reason, watermark, target, shard="s1"):
    emit(
        tracer,
        "migrate_abort",
        shard=shard,
        reason=reason,
        watermark=watermark,
        target=target,
    )


class TestCleanSequence:
    def test_healthy_lifecycle_passes(self):
        tracer, checker = make_rig()
        emit(tracer, "route", shard="s0", op="get", client="c0")
        emit(tracer, "suspect", shard="s0", reason="op timed out")
        emit(tracer, "recovered", shard="s0", reason="beat")
        emit(tracer, "route", shard="s0", op="get", client="c0")
        checker.assert_clean()
        assert checker.ok
        assert checker.events_checked == 4
        assert checker.routes_per_shard == {"s0": 2}

    def test_full_failover_sequence_passes(self):
        tracer, checker = make_rig()
        emit(tracer, "route", shard="s1", op="put", client="c0")
        emit(tracer, "suspect", shard="s1", reason="op timed out")
        emit(tracer, "dead", shard="s1", reason="lease expired")
        emit(tracer, "failover", shard="s1", successors="s0,s2")
        emit(tracer, "rebalance", removed="s1", survivors="s0,s2")
        emit(tracer, "route", shard="s0", op="put", client="c0")
        checker.assert_clean()

    def test_unknown_labels_ignored(self):
        tracer, checker = make_rig()
        emit(tracer, "shard_killed", shard="s1")
        emit(tracer, "route_timeout", shard="s1")
        assert checker.events_checked == 0

    def test_full_rejoin_sequence_passes(self):
        tracer, checker = make_rig()
        emit(tracer, "suspect", shard="s1")
        emit(tracer, "dead", shard="s1")
        emit(tracer, "failover", shard="s1", successors="s0,s2")
        emit(tracer, "rebalance", removed="s1", survivors="s0,s2")
        emit(tracer, "rejoin", shard="s1", reason="repaired")
        start(tracer, "recovery", donors="s0,s2")
        batch(tracer, "recovery", watermark=8, target=16)
        batch(tracer, "recovery", watermark=16, target=16, donor="s2")
        cutover(tracer, "recovery", watermark=16, target=16, ring="s0,s1,s2")
        emit(tracer, "route", shard="s1", op="get", client="c0")
        checker.assert_clean()

    def test_target_may_grow_between_batches(self):
        """Catch-up writes extend the plan mid-transfer; a growing
        target is legal as long as the watermark tracks it."""
        for reason in REASONS:
            tracer, checker = make_rig()
            open_migration(tracer, reason)
            batch(tracer, reason, watermark=8, target=16)
            batch(tracer, reason, watermark=18, target=18)
            cutover(tracer, reason, watermark=18, target=18)
            checker.assert_clean()

    def test_refailover_after_rejoin_cycle_passes(self):
        """A rejoined shard may crash and fail over again: the cutover
        resets the once-per-incarnation failover bookkeeping."""
        tracer, checker = make_rig()
        emit(tracer, "dead", shard="s1")
        emit(tracer, "failover", shard="s1", successors="s0,s2")
        emit(tracer, "rejoin", shard="s1")
        start(tracer, "recovery", donors="s0,s2", target=0)
        cutover(tracer, "recovery", watermark=0, target=0, ring="s0,s1,s2")
        emit(tracer, "route", shard="s1", op="get", client="c0")
        emit(tracer, "dead", shard="s1", reason="second crash")
        emit(tracer, "failover", shard="s1", successors="s0,s2")
        checker.assert_clean()

    def test_abort_after_redeclared_death_passes(self):
        tracer, checker = make_rig()
        open_migration(tracer, "recovery")
        batch(tracer, "recovery", watermark=4, target=16)
        emit(tracer, "dead", shard="s1", reason="re-halted mid-transfer")
        abort(tracer, "recovery", watermark=4, target=16)
        checker.assert_clean()

    def test_suspect_donor_is_legal(self):
        """A single op timeout makes a donor transiently SUSPECT while
        its transfer stream is still perfectly legal; the checker must
        not flag it (it heals on the next beat)."""
        for reason in REASONS:
            tracer, checker = make_rig()
            open_migration(tracer, reason)
            emit(tracer, "suspect", shard="s0", reason="op timed out under load")
            batch(tracer, reason, watermark=8, target=16)
            emit(tracer, "recovered", shard="s0", reason="heartbeat resumed")
            batch(tracer, reason, watermark=16, target=16)
            cutover(tracer, reason, watermark=16, target=16)
            checker.assert_clean()

    def test_replan_rebases_watermark_and_target(self):
        """A ring change mid-transfer re-plans the stream: the re-based
        (watermark, target) pair — even a shrinking target — is the new
        monotonicity baseline.  Only a recovery may re-plan (any
        membership change aborts a vnode move first), so the rebalance
        run flags the re-plan itself and nothing after it."""
        for reason in REASONS:
            tracer, checker = make_rig()
            open_migration(tracer, reason)
            batch(tracer, reason, watermark=8, target=16)
            emit(tracer, "dead", shard="s2", reason="second failure mid-transfer")
            emit(tracer, "failover", shard="s2", successors="s0")
            emit(tracer, "rebalance", removed="s2", survivors="s0")
            replan(tracer, reason, watermark=5, target=10)
            batch(tracer, reason, watermark=10, target=10)
            cutover(tracer, reason, watermark=10, target=10, ring="s0,s1")
            if reason == "recovery":
                checker.assert_clean()
            else:
                assert checker.violations == [
                    "t=0.000 [migrate_replan] rebalance onto 's1' re-planned"
                ]


class TestPlantedViolations:
    def test_route_to_suspect_shard_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "suspect", shard="s0", reason="op timed out")
        emit(tracer, "route", shard="s0", op="get", client="c0")
        assert not checker.ok
        assert "SUSPECT" in checker.violations[0]

    def test_route_after_failover_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "suspect", shard="s1")
        emit(tracer, "dead", shard="s1")
        emit(tracer, "failover", shard="s1", successors="s0")
        emit(tracer, "route", shard="s1", op="get", client="c0")
        assert any("after its failover" in v for v in checker.violations)

    def test_failover_without_death_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "failover", shard="s2", successors="s0,s1")
        assert any("never declared dead" in v for v in checker.violations)

    def test_double_failover_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "dead", shard="s1")
        emit(tracer, "failover", shard="s1", successors="s0")
        emit(tracer, "failover", shard="s1", successors="s0")
        assert any("second failover" in v for v in checker.violations)

    def test_dead_shard_in_successors_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "dead", shard="s1")
        emit(tracer, "failover", shard="s1", successors="s0,s1")
        assert any("include the dead shard" in v for v in checker.violations)

    def test_recovery_from_dead_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "suspect", shard="s0")
        emit(tracer, "dead", shard="s0")
        emit(tracer, "recovered", shard="s0")
        assert any("DEAD is sticky" in v for v in checker.violations)

    def test_double_death_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "dead", shard="s0")
        emit(tracer, "dead", shard="s0")
        assert any("dead twice" in v for v in checker.violations)

    def test_rebalance_without_failover_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "dead", shard="s1")
        emit(tracer, "rebalance", removed="s1", survivors="s0")
        assert any("without a failover" in v for v in checker.violations)

    def test_removed_shard_among_survivors_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "dead", shard="s1")
        emit(tracer, "failover", shard="s1", successors="s0")
        emit(tracer, "rebalance", removed="s1", survivors="s0,s1")
        assert any("still contains the removed" in v for v in checker.violations)

    def test_rejoin_from_healthy_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "rejoin", shard="s0")
        assert any(
            "must not shortcut the failure detector" in v
            for v in checker.violations
        )

    def test_rejoin_from_suspect_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "suspect", shard="s0")
        emit(tracer, "rejoin", shard="s0")
        assert any("rejoined from SUSPECT" in v for v in checker.violations)

    def test_transfer_while_not_recovering_trips(self):
        tracer, checker = make_rig()
        batch(tracer, "recovery", watermark=4, target=8)
        assert any(
            "recovery migrate_batch for shard 's1' while it is HEALTHY" in v
            for v in checker.violations
        )

    def test_transfer_from_dead_donor_trips(self):
        for reason in REASONS:
            tracer, checker = make_rig()
            open_migration(tracer, reason)
            emit(tracer, "dead", shard="s2")
            batch(tracer, reason, watermark=4, target=16, donor="s2")
            assert any(
                "only live shards donate" in v for v in checker.violations
            ), reason

    def test_transfer_from_recovering_donor_trips(self):
        """A donor that is itself catching up is below its own watermark
        and must not donate."""
        for reason in REASONS:
            tracer, checker = make_rig()
            open_migration(tracer, reason)
            emit(tracer, "dead", shard="s2")
            emit(tracer, "rejoin", shard="s2")
            batch(tracer, reason, watermark=4, target=16, donor="s2")
            assert any(
                "donor 's2' is RECOVERING" in v for v in checker.violations
            ), reason

    def test_self_donation_trips(self):
        for reason in REASONS:
            tracer, checker = make_rig()
            open_migration(tracer, reason)
            batch(tracer, reason, watermark=4, target=16, donor="s1")
            assert any(
                "donate ranges to itself" in v for v in checker.violations
            ), reason

    def test_watermark_regression_trips(self):
        for reason in REASONS:
            tracer, checker = make_rig()
            open_migration(tracer, reason)
            batch(tracer, reason, watermark=8, target=16)
            batch(tracer, reason, watermark=6, target=16)
            assert any("regressed 8 -> 6" in v for v in checker.violations), reason

    def test_watermark_overflow_trips(self):
        for reason in REASONS:
            tracer, checker = make_rig()
            open_migration(tracer, reason)
            batch(tracer, reason, watermark=20, target=16)
            assert any(
                "overflows its target" in v for v in checker.violations
            ), reason

    def test_shrinking_target_trips(self):
        for reason in REASONS:
            tracer, checker = make_rig()
            open_migration(tracer, reason)
            batch(tracer, reason, watermark=4, target=16)
            batch(tracer, reason, watermark=8, target=12)
            assert any("shrank 16 -> 12" in v for v in checker.violations), reason

    def test_handoff_below_watermark_trips(self):
        for reason in REASONS:
            tracer, checker = make_rig()
            open_migration(tracer, reason)
            batch(tracer, reason, watermark=8, target=16)
            cutover(tracer, reason, watermark=8, target=16, ring="s0,s1")
            assert any(
                "cutover for shard 's1' below its watermark (8/16" in v
                for v in checker.violations
            ), reason

    def test_handoff_after_abort_trips(self):
        """Once the membership re-declared the shard dead, a late
        cutover is illegal — the donors kept ownership."""
        tracer, checker = make_rig()
        open_migration(tracer, "recovery")
        emit(tracer, "dead", shard="s1", reason="re-halted")
        abort(tracer, "recovery", watermark=4, target=16)
        cutover(tracer, "recovery", watermark=4, target=4, ring="s0,s1")
        assert any(
            "recovery migrate_cutover for shard 's1' while it is DEAD" in v
            for v in checker.violations
        )

    def test_handoff_ring_missing_shard_trips(self):
        tracer, checker = make_rig()
        open_migration(tracer, "recovery", target=0)
        cutover(tracer, "recovery", watermark=0, target=0, ring="s0,s2")
        assert any("does not contain the shard" in v for v in checker.violations)

    def test_route_to_recovering_shard_trips_with_watermark(self):
        """The planted-bug shape: a read served below the watermark."""
        tracer, checker = make_rig()
        open_migration(tracer, "recovery")
        batch(tracer, "recovery", watermark=8, target=16)
        emit(tracer, "route", shard="s1", op="get", client="c0")
        assert any(
            "RECOVERING shard 's1' below its watermark (8/16" in v
            for v in checker.violations
        )

    def test_replan_while_not_recovering_trips(self):
        tracer, checker = make_rig()
        replan(tracer, "recovery", watermark=0, target=8, shard="s0")
        assert any(
            "recovery migrate_replan for shard 's0' while it is HEALTHY" in v
            for v in checker.violations
        )

    def test_replan_watermark_overflow_trips(self):
        tracer, checker = make_rig()
        open_migration(tracer, "recovery")
        replan(tracer, "recovery", watermark=12, target=10)
        assert any(
            "re-planned watermark for 's1' overflows" in v
            for v in checker.violations
        )

    def test_abort_without_redeclared_death_trips(self):
        tracer, checker = make_rig()
        open_migration(tracer, "recovery")
        abort(tracer, "recovery", watermark=4, target=16)
        assert any(
            "recovery abort follows a re-declared DEAD" in v
            for v in checker.violations
        )

    def test_unknown_migration_reason_trips(self):
        tracer, checker = make_rig()
        start(tracer, "defrag")
        assert any(
            "unknown reason 'defrag'" in v for v in checker.violations
        )

    def test_halt_on_violation_raises_immediately(self):
        tracer, _ = make_rig(halt_on_violation=True)
        with pytest.raises(InvariantViolation):
            emit(tracer, "failover", shard="s9", successors="s0")

    def test_assert_clean_reports_all(self):
        tracer, checker = make_rig()
        emit(tracer, "dead", shard="s0")
        emit(tracer, "dead", shard="s0")
        with pytest.raises(InvariantViolation, match="1 cluster invariant"):
            checker.assert_clean()
