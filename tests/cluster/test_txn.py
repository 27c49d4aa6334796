"""Multi-key transactions: end-to-end paths, leases, drain, planted bug.

Covers the :mod:`repro.cluster.txn` layer the way ``test_migration.py``
covers the migration engine: clean end-to-end commits and aborts under
the always-on invariant gate, the lease-break/steal protocol at the
:class:`TxnManager` level, the migration drain interaction, the
planted-bug fixture proving the new ``txn_*`` checker rules catch a
commit with an unlocked participant, and synthetic-trace units for each
individual rule.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    RfpCluster,
    TxnConfig,
    TxnManager,
)
from repro.core.config import RfpConfig
from repro.errors import ClusterError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv.store import StoreCostModel
from repro.lint import ClusterInvariantChecker, InvariantViolation
from repro.sim import Simulator, Tracer


def make_service(attach_checker=None, replication_factor=2, txn_config=None):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    tracer = Tracer(sim, categories=["cluster"])
    if attach_checker is not None:
        attach_checker(tracer)
    service = RfpCluster(
        sim,
        cluster,
        shards=3,
        rfp_config=RfpConfig(consecutive_slow_calls=1_000_000),
        cost_model=StoreCostModel(jitter_probability=0.0),
        cluster_config=ClusterConfig(replication_factor=replication_factor),
        txn_config=txn_config,
        tracer=tracer,
    )
    return sim, cluster, tracer, service


def distinct_primary_keys(service, count=2):
    """``count`` ascending keys whose primaries are pairwise distinct —
    a transaction that genuinely fans out across shards."""
    keys, primaries = [], set()
    index = 0
    while len(keys) < count:
        key = b"txnkey%03d" % index
        index += 1
        primary = service.ring.lookup(key)
        if primary not in primaries:
            primaries.add(primary)
            keys.append(key)
    return keys


def labels(tracer):
    return [event.label for event in tracer.events()]


class TestMultiPutEndToEnd:
    def test_commit_installs_on_every_replica(self, cluster_invariants):
        sim, cluster, tracer, service = make_service(cluster_invariants)
        keys = distinct_primary_keys(service)
        service.preload([(key, b"old") for key in keys])
        client = service.connect(cluster.machines[4], name="c0")

        sim.process(client.multi_put([(key, b"new") for key in keys]))
        sim.run(until=300.0)

        for key in keys:
            for shard in service.replicas_for(key):
                assert service.peek(shard, key) == b"new", (key, shard)
        txns = service.txns
        assert (txns.begun, txns.committed, txns.aborted) == (1, 1, 0)
        assert txns.active_count == 0 and txns.outstanding_locks == 0
        seen = labels(tracer)
        assert seen.count("txn_begin") == 1
        assert seen.count("txn_lock") == len(keys)
        assert seen.count("txn_commit") == 1

    def test_duplicate_keys_rejected(self):
        _, cluster, _, service = make_service()
        client = service.connect(cluster.machines[4])
        gen = client.multi_put([(b"dup", b"a"), (b"dup", b"b")])
        with pytest.raises(ClusterError, match="distinct"):
            next(gen)

    def test_begin_requires_strictly_ascending_keys(self):
        _, _, _, service = make_service()
        with pytest.raises(ClusterError, match="strictly ascending"):
            service.txns.begin("c0", [b"b", b"a"])
        with pytest.raises(ClusterError, match="at least one key"):
            service.txns.begin("c0", [])

    def test_contending_transactions_serialize(self, cluster_invariants):
        """Two transactions over the same key group both commit — the
        loser of the lock race retries, never deadlocks — and the final
        group state is one transaction's writes in full."""
        sim, cluster, _, service = make_service(cluster_invariants)
        keys = distinct_primary_keys(service)
        service.preload([(key, b"old") for key in keys])
        for index, value in ((0, b"AA"), (1, b"BB")):
            client = service.connect(cluster.machines[4 + index], name=f"c{index}")
            sim.process(client.multi_put([(key, value) for key in keys]))
        sim.run(until=500.0)

        txns = service.txns
        assert (txns.committed, txns.aborted) == (2, 0)
        assert txns.outstanding_locks == 0
        stored = {service.peek(service.ring.lookup(key), key) for key in keys}
        assert len(stored) == 1  # the group is whole . . .
        assert stored <= {b"AA", b"BB"}  # . . . and is one txn's writes

    def test_lock_timeout_aborts_without_side_effects(self, cluster_invariants):
        """A dead primary shows up as exhausted lock attempts; the
        transaction aborts before anything became visible."""
        sim, cluster, tracer, service = make_service(
            cluster_invariants,
            txn_config=TxnConfig(lock_attempts=2, lock_retry_us=5.0),
        )
        keys = distinct_primary_keys(service)
        service.preload([(key, b"old") for key in keys])
        victim = service.ring.lookup(keys[1])
        client = service.connect(cluster.machines[4], name="c0")
        errors = []

        def killer():
            yield sim.timeout(1.0)
            service.kill(victim)

        def body():
            yield sim.timeout(2.0)
            try:
                yield from client.multi_put([(key, b"new") for key in keys])
            except ClusterError as exc:
                errors.append(exc)

        sim.process(killer())
        sim.process(body())
        sim.run(until=300.0)  # long enough for the failover to settle

        assert errors and "gave up locking" in str(errors[0])
        txns = service.txns
        assert (txns.committed, txns.aborted) == (0, 1)
        assert txns.outstanding_locks == 0
        aborts = [e for e in tracer.events() if e.label == "txn_abort"]
        assert [e.data["reason"] for e in aborts] == ["lock-timeout"]
        # The failover may have appointed a fresh backup that never got
        # the preload (no repair ran), so a hole is legal — but nothing
        # anywhere may hold the aborted transaction's value.
        for key in keys:
            for shard in service.shards:
                assert service.peek(shard, key) in (b"old", None), (key, shard)


class TestTxnConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("lock_lease_us", 0.0, "lock lease must be positive", id="lease=0"),
            pytest.param("lock_rtt_us", -1.0, "lock_rtt_us must be >= 0", id="rtt<0"),
            pytest.param("lock_retry_us", 0.0, "lock_retry_us must be > 0", id="retry=0"),
            pytest.param("lock_retry_us", -5.0, "lock_retry_us must be > 0", id="retry<0"),
            pytest.param("lock_attempts", 0, "lock_attempts must be >= 1", id="attempts=0"),
        ],
    )
    def test_bad_timings_rejected_at_construction(self, field, value, message):
        """A bad timing fails with one clear line when the config is
        built, not partway through a run (a negative delay at the first
        ``sim.timeout``, or a zero back-off that never advances time)."""
        with pytest.raises(ClusterError, match=message):
            TxnConfig(**{field: value})

    def test_zero_rtt_is_allowed(self):
        assert TxnConfig(lock_rtt_us=0.0).lock_rtt_us == 0.0


class TestLockLeases:
    def test_expired_lease_is_broken_and_holder_aborts(self, cluster_invariants):
        """The lease protocol end to end at the manager level: a live
        lease blocks a waiter; an expired one is stolen; the original
        holder's commit fails its lease re-check and aborts."""
        sim, _, _, service = make_service(cluster_invariants)
        txns = service.txns
        key = b"leasekey"
        outcomes = {}

        def driver():
            first = txns.begin("a", [key])
            assert txns.grant(first, key, "shard0")
            second = txns.begin("b", [key])
            assert not txns.grant(second, key, "shard0")  # live lease
            yield sim.timeout(txns.config.lock_lease_us + 1.0)
            assert txns.grant(second, key, "shard0")  # expired: broken
            txns.stage(second, key, b"winner", service.replicas_for(key))
            outcomes["first"] = txns.commit(first)
            outcomes["second"] = txns.commit(second)

        sim.process(driver())
        sim.run(until=txns.config.lock_lease_us + 50.0)

        assert outcomes == {"first": "aborted", "second": "committed"}
        assert txns.outstanding_locks == 0
        assert service.peek(service.ring.lookup(key), key) == b"winner"


class TestMigrationDrain:
    def test_vnode_move_completes_under_back_to_back_transactions(
        self, cluster_invariants
    ):
        """The starvation case the admission gate exists for: a writer
        issuing multi-PUTs back to back (zero sim time between commit
        and the next begin) must not hold the cutover hostage."""
        sim, cluster, _, service = make_service(
            cluster_invariants, replication_factor=1
        )
        keys = distinct_primary_keys(service)
        service.preload([(key, b"\x00" * 8) for key in keys])
        token = service.ring.token_of(keys[0])
        donor = service.ring.owner_of(token)
        recipient = sorted(n for n in service.shards if n != donor)[0]
        client = service.connect(cluster.machines[4], name="w0")

        def writer():
            for round_no in range(30):
                value = b"%08d" % round_no
                yield from client.multi_put([(key, value) for key in keys])

        sim.process(writer())
        migration = service.move_vnodes([token], recipient)
        sim.run(until=5_000.0)

        assert not migration.active and not migration.aborted
        assert migration.watermark == migration.target
        assert service.ring.owner_of(token) == recipient
        txns = service.txns
        assert (txns.committed, txns.aborted) == (30, 0)
        assert txns.active_count == 0 and not txns.draining
        # The writer's last value followed the range to its new owner.
        assert service.peek(recipient, keys[0]) == b"%08d" % 29


class TestPlantedBug:
    def test_checker_flags_commit_with_unlocked_participant(self, monkeypatch):
        """Plant the bug the txn invariants exist to catch: a lock
        manager that *claims* a grant without installing it commits a
        transaction while one participant was never actually locked —
        atomicity now rests on luck.  The checker, attached to the same
        live trace the clean tests use, must flag the commit."""
        sim, cluster, tracer, service = make_service()
        checker = ClusterInvariantChecker().attach(tracer)
        keys = distinct_primary_keys(service)
        service.preload([(key, b"old") for key in keys])
        skipped = keys[1]
        real_grant = TxnManager.grant

        def leaky_grant(self, txn_id, key, shard):
            if key == skipped:
                return True  # the planted bug: grant without a lease
            return real_grant(self, txn_id, key, shard)

        monkeypatch.setattr(TxnManager, "grant", leaky_grant)
        monkeypatch.setattr(
            TxnManager, "_all_locked", lambda self, state: True
        )
        client = service.connect(cluster.machines[4], name="c0")
        sim.process(client.multi_put([(key, b"new") for key in keys]))
        sim.run(until=300.0)

        # The bug is real: the transaction committed anyway.
        assert service.txns.committed == 1
        assert not checker.ok
        assert any(
            "commits with only 1/2 participants locked" in violation
            for violation in checker.violations
        )


def make_rig():
    sim = Simulator()
    tracer = Tracer(sim, categories=["cluster"])
    checker = ClusterInvariantChecker().attach(tracer)
    return tracer, checker


def emit(tracer, label, **data):
    tracer.record("cluster", label, **data)


class TestTxnCheckerRules:
    """Synthetic-trace units, one per ``txn_*`` rule (the idiom of
    ``test_cluster_invariants.py``)."""

    def test_clean_txn_sequence_passes(self):
        tracer, checker = make_rig()
        emit(tracer, "txn_begin", txn=1, client="c0", keys=2, participants="s0,s1")
        emit(tracer, "txn_lock", txn=1, key="aa", shard="s0", order=1)
        emit(tracer, "txn_lock", txn=1, key="bb", shard="s1", order=2)
        emit(tracer, "txn_commit", txn=1, locks=2, keys=2)
        emit(tracer, "txn_begin", txn=2, client="c1", keys=1, participants="s0")
        emit(tracer, "txn_lock", txn=2, key="aa", shard="s0", order=1)
        emit(tracer, "txn_abort", txn=2, locks=1, reason="lock-timeout")
        checker.assert_clean()
        checker.assert_no_leaked_leases()
        assert checker.events_checked == 7

    def test_txn_id_reuse_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "txn_begin", txn=1, client="c0", keys=1, participants="s0")
        emit(tracer, "txn_abort", txn=1, locks=0, reason="lock-timeout")
        emit(tracer, "txn_begin", txn=1, client="c1", keys=1, participants="s0")
        assert any("txn id 1 reused" in v for v in checker.violations)

    def test_lock_out_of_order_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "txn_begin", txn=1, client="c0", keys=2, participants="s0")
        emit(tracer, "txn_lock", txn=1, key="bb", shard="s0", order=1)
        emit(tracer, "txn_lock", txn=1, key="aa", shard="s0", order=2)
        assert any("lock ordering violated" in v for v in checker.violations)

    def test_lock_for_unopened_txn_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "txn_lock", txn=9, key="aa", shard="s0", order=1)
        assert any("not open" in v for v in checker.violations)

    def test_lock_order_field_mismatch_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "txn_begin", txn=1, client="c0", keys=2, participants="s0")
        emit(tracer, "txn_lock", txn=1, key="aa", shard="s0", order=2)
        assert any("granted 1 locks" in v for v in checker.violations)

    def test_lock_beyond_declared_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "txn_begin", txn=1, client="c0", keys=1, participants="s0")
        emit(tracer, "txn_lock", txn=1, key="aa", shard="s0", order=1)
        emit(tracer, "txn_lock", txn=1, key="bb", shard="s0", order=2)
        assert any("declared only 1" in v for v in checker.violations)

    def test_commit_with_missing_locks_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "txn_begin", txn=1, client="c0", keys=2, participants="s0")
        emit(tracer, "txn_lock", txn=1, key="aa", shard="s0", order=1)
        emit(tracer, "txn_commit", txn=1, locks=1, keys=2)
        assert any(
            "commits with only 1/2 participants locked" in v
            for v in checker.violations
        )

    def test_commit_locks_field_mismatch_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "txn_begin", txn=1, client="c0", keys=1, participants="s0")
        emit(tracer, "txn_lock", txn=1, key="aa", shard="s0", order=1)
        emit(tracer, "txn_commit", txn=1, locks=0, keys=1)
        assert any("reports 0 locks" in v for v in checker.violations)

    def test_commit_of_unopened_txn_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "txn_commit", txn=5, locks=0, keys=0)
        assert any("not open" in v for v in checker.violations)

    def test_abort_of_unopened_txn_trips(self):
        tracer, checker = make_rig()
        emit(tracer, "txn_abort", txn=5, locks=0, reason="lock-timeout")
        assert any("not open" in v for v in checker.violations)

    def test_leaked_lease_audit_raises(self):
        tracer, checker = make_rig()
        emit(tracer, "txn_begin", txn=1, client="c0", keys=1, participants="s0")
        emit(tracer, "txn_lock", txn=1, key="aa", shard="s0", order=1)
        checker.assert_clean()  # no rule broke . . .
        assert checker.open_lock_leases() == [(1, "aa")]
        with pytest.raises(InvariantViolation, match="leaked lock lease"):
            checker.assert_no_leaked_leases()  # . . . but the lease leaked
