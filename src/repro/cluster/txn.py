"""Multi-key atomic operations over the sharded cluster.

:class:`TxnManager` gives the cluster lock-based two-phase multi-PUT:

- **Phase 1 — locks.**  The client (:meth:`TxnManager.multi_put`, behind
  :meth:`ClusterClient.multi_put`) acquires one lease-bounded lock per
  key, strictly in sorted-key order.
  A single global acquisition order means two transactions can never
  hold-and-wait against each other — the classic deadlock-freedom
  argument — and the trace checker enforces the order on the wire
  (``txn_lock`` events must be strictly ascending per transaction).
- **Phase 2 — stage, then commit.**  The key's bytes travel to every
  healthy replica while the locks are held (the same RF>=2 in-bound
  path single-key PUTs ride), but land in a *staging* record instead of
  the store.  :meth:`TxnManager.commit` is the visibility point: an
  :func:`~repro.sim.atomic.atomic_section` that re-verifies every lease,
  re-checks replica coverage against the live ring (the same
  moved-under-the-call hazard ``ClusterClient.put`` re-checks), installs
  every staged value into every replica store, and releases the locks —
  with **no intervening simulated time**, so a concurrent reader sees
  either none of the transaction's writes or all of them.  Abort
  (any participant failure, lock timeout, lost lease) discards the
  staging and releases whatever was granted; nothing becomes visible.

Locks are **leases**: a lock not released within ``lock_lease_us`` of
sim time may be broken by a waiter, so a transaction wedged on a dead
participant can never wedge the key forever.  The doomed holder's
commit fails its own lease re-check and aborts.

Everything is traced (``txn_begin`` / ``txn_lock`` / ``txn_commit`` /
``txn_abort``) and audited by
:class:`~repro.lint.invariants.ClusterInvariantChecker`: lock order,
commit-only-when-all-locked, and zero leaked lock leases at teardown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ClusterError
from repro.kv.store import partition_of
from repro.sim.atomic import atomic_section
from repro.sim.core import AllOf, Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.router import RfpCluster

__all__ = ["TxnConfig", "TxnManager"]

#: Wire size of one lock request/grant message (key digest + txn id).
_LOCK_WIRE_BYTES = 24

#: Per-key staging overhead on top of the key and value bytes.
_STAGE_OVERHEAD_BYTES = 16

#: :meth:`TxnManager.commit` outcomes.
_COMMITTED = "committed"
_RETRY = "retry"
_ABORTED = "aborted"


@dataclass(frozen=True)
class TxnConfig:
    """Transaction-layer tunables.

    Attributes
    ----------
    lock_lease_us:
        Sim-time lease on a granted lock; an expired lease may be broken
        by a waiter (the stalled holder's commit then fails its lease
        re-check and aborts).  Must sit above the worst-case lock-to-
        commit span of a healthy transaction, or live transactions
        steal each other's locks.
    lock_rtt_us:
        Network round-trip charged per lock request and per staging
        round (on top of the NIC occupancy of the message itself).
    lock_retry_us:
        Back-off before re-requesting a lock that was held or whose
        primary was not serving.
    lock_attempts:
        Lock requests per key before the transaction gives up and
        aborts (participant failure shows up as exhausted attempts).
    """

    lock_lease_us: float = 240.0
    lock_rtt_us: float = 3.0
    lock_retry_us: float = 15.0
    lock_attempts: int = 8

    def __post_init__(self) -> None:
        if self.lock_lease_us <= 0:
            raise ClusterError(f"lock lease must be positive: {self.lock_lease_us}")
        if self.lock_rtt_us < 0:
            raise ClusterError(f"lock_rtt_us must be >= 0, got {self.lock_rtt_us}")
        if self.lock_retry_us <= 0:
            # Zero would let the admission gate's back-off poll spin
            # without simulated time ever advancing.
            raise ClusterError(f"lock_retry_us must be > 0, got {self.lock_retry_us}")
        if self.lock_attempts < 1:
            raise ClusterError(f"lock_attempts must be >= 1, got {self.lock_attempts}")


class _Lock:
    """One granted per-key lock lease."""

    __slots__ = ("txn_id", "shard", "expires_at")

    def __init__(self, txn_id: int, shard: str, expires_at: float) -> None:
        self.txn_id = txn_id
        self.shard = shard
        self.expires_at = expires_at


class _TxnState:
    """Coordinator-side record of one open transaction."""

    __slots__ = ("txn_id", "client", "keys", "key_set", "locked", "staged")

    def __init__(self, txn_id: int, client: str, keys: Sequence[bytes]) -> None:
        self.txn_id = txn_id
        self.client = client
        self.keys: Tuple[bytes, ...] = tuple(keys)
        self.key_set = frozenset(keys)
        #: Keys locked so far, in grant order.
        self.locked: List[bytes] = []
        #: key -> (value, replicas the bytes were staged on).
        self.staged: Dict[bytes, Tuple[bytes, Tuple[str, ...]]] = {}


class TxnManager:
    """Lock table + staging + atomic commit/abort for multi-key PUTs."""

    def __init__(
        self, service: "RfpCluster", config: Optional[TxnConfig] = None
    ) -> None:
        self.service = service
        self.sim = service.sim
        self.config = config if config is not None else TxnConfig()
        self.tracer = service.tracer
        self._next_txn_id = 0
        #: Migrations currently waiting to cut over (see :meth:`draining`).
        self._drain_waiters = 0
        #: key -> its current lock lease.
        self._locks: Dict[bytes, _Lock] = {}
        #: txn id -> open-transaction state.
        self._open: Dict[int, _TxnState] = {}
        self.begun = 0
        self.committed = 0
        self.aborted = 0

    # ------------------------------------------------------------------
    # Introspection (migration drain, teardown audits)
    # ------------------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Open (begun, neither committed nor aborted) transactions."""
        return len(self._open)

    @property
    def outstanding_locks(self) -> int:
        """Lock leases currently installed in the table."""
        return len(self._locks)

    def open_txns(self) -> List[int]:
        return sorted(self._open)

    @property
    def draining(self) -> bool:
        """A migration is waiting to cut over: admission is gated.

        Open transactions run to completion (their leases bound the
        wait), but :meth:`multi_put` holds new ones at the
        door until the cutover lands — without the gate, back-to-back
        transactions could keep ``active_count`` above zero at every
        drain poll and starve the migration forever.
        """
        return self._drain_waiters > 0

    def begin_drain(self) -> None:
        self._drain_waiters += 1

    def end_drain(self) -> None:
        self._drain_waiters -= 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin(self, client: str, keys: Sequence[bytes]) -> int:
        """Open a transaction over ``keys`` (strictly ascending).

        The sorted-key requirement *is* the deadlock-freedom mechanism:
        every transaction walks the same global order, so a cycle of
        hold-and-wait edges cannot form.
        """
        if not keys:
            raise ClusterError("a transaction needs at least one key")
        for previous, current in zip(keys, keys[1:]):
            if current <= previous:
                raise ClusterError(
                    "transaction keys must be strictly ascending "
                    f"({previous!r} then {current!r}) — sorted acquisition "
                    "is the deadlock-freedom invariant"
                )
        self._next_txn_id += 1
        txn_id = self._next_txn_id
        self._open[txn_id] = _TxnState(txn_id, client, keys)
        self.begun += 1
        if self.tracer is not None:
            participants = sorted({self.service.ring.lookup(key) for key in keys})
            self.tracer.record(
                "cluster",
                "txn_begin",
                txn=txn_id,
                client=client,
                keys=len(keys),
                participants=",".join(participants),
            )
        return txn_id

    @atomic_section
    def grant(self, txn_id: int, key: bytes, shard: str) -> bool:
        """Try to grant ``txn_id`` the lock on ``key`` (the lock-grant
        atomic region: table mutation and trace land at one instant).

        Returns ``False`` when another transaction holds an unexpired
        lease — the caller backs off and retries.  An *expired* lease is
        broken: the new lease is installed over it and the old holder's
        commit will fail its lease re-check.
        """
        state = self._require_open(txn_id)
        if key not in state.key_set:
            raise ClusterError(f"txn {txn_id} never declared key {key!r}")
        entry = self._locks.get(key)
        if entry is not None:
            if entry.txn_id == txn_id:
                return True  # already held (idempotent re-request)
            if entry.expires_at > self.sim.now:
                return False  # held by a live transaction
        self._locks[key] = _Lock(txn_id, shard, self.sim.now + self.config.lock_lease_us)
        state.locked.append(key)
        if self.tracer is not None:
            self.tracer.record(
                "cluster",
                "txn_lock",
                txn=txn_id,
                key=key.hex(),
                shard=shard,
                order=len(state.locked),
            )
        return True

    def stage(
        self, txn_id: int, key: bytes, value: bytes, replicas: Sequence[str]
    ) -> None:
        """Record that ``value`` reached ``replicas`` (invisible until
        commit).  Re-staging replaces the record — the commit-retry loop
        refreshes coverage after the ring moves under the transaction."""
        state = self._require_open(txn_id)
        if key not in state.key_set:
            raise ClusterError(f"txn {txn_id} never declared key {key!r}")
        state.staged[key] = (value, tuple(replicas))

    @atomic_section
    def commit(self, txn_id: int) -> str:
        """The commit-apply atomic region — the transaction's visibility
        point.

        Re-verifies every lease, re-checks that every key's *current*
        healthy replica set is covered by its staging (the ring may have
        moved under the call — same hazard the single-key PUT ack
        re-check closes), then installs every staged value into every
        staged replica's store and releases the locks.  No simulated
        time passes, so readers see all of the writes or none.

        Returns ``"committed"``, ``"retry"`` (coverage gap: caller
        re-stages and retries), or ``"aborted"`` (a lease was lost —
        the transaction is closed, nothing was installed).
        """
        state = self._require_open(txn_id)
        held = self._held_count(state)
        if not self._all_locked(state):
            self._finish_abort(state, reason="lease-lost")
            return _ABORTED
        service = self.service
        for key in state.keys:
            if key not in state.staged:
                raise ClusterError(
                    f"txn {txn_id} commit before staging key {key!r}"
                )
            _value, replicas = state.staged[key]
            staged_set = set(replicas)
            for shard_name in service.replicas_for(key):
                if (
                    service.membership.is_routable(shard_name)
                    and shard_name not in staged_set
                ):
                    return _RETRY
        for key in state.keys:
            value, replicas = state.staged[key]
            for shard_name in replicas:
                handle = service.shards[shard_name]
                if not handle.alive:
                    continue
                store = handle.jakiro.store
                store.put(partition_of(key, store.partitions), key, value)
            service.note_put(key, value)
        self._release_locks(state)
        del self._open[txn_id]
        self.committed += 1
        if self.tracer is not None:
            self.tracer.record(
                "cluster",
                "txn_commit",
                txn=txn_id,
                locks=held,
                keys=len(state.keys),
            )
        return _COMMITTED

    @atomic_section
    def abort(self, txn_id: int, reason: str) -> None:
        """The abort-release atomic region: discard staging, release
        every lock still owned, close the transaction."""
        state = self._require_open(txn_id)
        self._finish_abort(state, reason=reason)

    # ------------------------------------------------------------------
    # The client protocol
    # ------------------------------------------------------------------

    def multi_put(
        self,
        client: str,
        items: Sequence[Tuple[bytes, bytes]],
        replicas: Callable[[bytes], List[str]],
    ) -> Generator:
        """Process body: lock-based two-phase multi-PUT for ``client``.

        Phase 1 locks every key strictly in sorted-key order (the global
        acquisition order that makes deadlock impossible); phase 2
        stages each value on every replica ``replicas(key)`` names — the
        client's routing choice; the participant fan-out runs
        per-primary groups concurrently — then :meth:`commit` flips all
        of it visible in one atomic instant.  Any participant failure
        (lock attempts exhausted, no healthy replica while staging, a
        lease lost before commit) aborts: locks release, staging is
        discarded, nothing becomes visible, and :class:`ClusterError`
        propagates to the caller.  Returns the transaction id.
        """
        service = self.service
        ordered = sorted(items, key=lambda pair: pair[0])
        keys = [key for key, _ in ordered]
        if len(set(keys)) != len(keys):
            raise ClusterError("multi_put keys must be distinct")
        while self.draining:
            # A migration is waiting to cut over; hold new transactions
            # at the door so the drain is bounded by the open ones.
            yield self.sim.timeout(self.config.lock_retry_us)
        txn_id = self.begin(client, keys)
        for key, _ in ordered:
            granted = yield from self._lock(txn_id, key)
            if not granted:
                self.abort(txn_id, reason="lock-timeout")
                raise ClusterError(
                    f"txn {txn_id} gave up locking key {key!r} after "
                    f"{self.config.lock_attempts} attempts"
                )
        rounds = 0
        # Each loop-around needs a distinct ring mutation between staging
        # and commit; the bound guards a livelock, not a budget (same
        # argument as the PUT ack re-check).
        max_rounds = service.config.max_op_retries * len(service.shards)
        while True:
            try:
                yield from self._stage(client, txn_id, ordered, replicas)
            except ClusterError:
                self.abort(txn_id, reason="participant-failure")
                raise
            outcome = self.commit(txn_id)
            if outcome == _COMMITTED:
                return txn_id
            if outcome == _ABORTED:
                raise ClusterError(
                    f"txn {txn_id} aborted at commit: a lock lease was lost"
                )
            assert outcome == _RETRY
            rounds += 1
            if rounds > max_rounds:
                self.abort(txn_id, reason="recheck-livelock")
                raise ClusterError(
                    f"txn {txn_id} replica re-check did not converge after "
                    f"{max_rounds} rounds"
                )

    def _lock(self, txn_id: int, key: bytes) -> Generator:
        """One key's lock acquisition: bounded request/back-off rounds.

        Each request is one in-bound message on the current primary
        (dead or unroutable primaries are not asked — the back-off lets
        failover re-point the key to a live replica).  Returns whether
        the lock was granted.
        """
        service = self.service
        config = self.config
        for _attempt in range(config.lock_attempts):
            shard_name = service.ring.lookup(key)
            handle = service.shards[shard_name]
            if handle.alive and service.membership.is_routable(shard_name):
                yield handle.machine.rnic.submit_inbound(_LOCK_WIRE_BYTES)
                yield self.sim.timeout(config.lock_rtt_us)
                if self.grant(txn_id, key, shard_name):
                    return True
            yield self.sim.timeout(config.lock_retry_us)
        return False

    def _stage(
        self,
        client: str,
        txn_id: int,
        ordered: Sequence[Tuple[bytes, bytes]],
        replicas: Callable[[bytes], List[str]],
    ) -> Generator:
        """Replicate each pair's bytes to every replica (the RF>=2 write
        path the commit flips visible), grouped by primary shard so
        different participants stream concurrently."""
        service = self.service
        groups: Dict[str, List[Tuple[bytes, bytes]]] = {}
        for key, value in ordered:
            groups.setdefault(replicas(key)[0], []).append((key, value))
        failures: List[str] = []

        def stage_group(pairs: List[Tuple[bytes, bytes]]) -> Generator:
            for key, value in pairs:
                try:
                    targets = replicas(key)
                except ClusterError as exc:
                    failures.append(str(exc))
                    return
                for shard_name in targets:
                    handle = service.shards[shard_name]
                    yield handle.machine.rnic.submit_inbound(
                        len(key) + len(value) + _STAGE_OVERHEAD_BYTES
                    )
                yield self.sim.timeout(self.config.lock_rtt_us)
                self.stage(txn_id, key, value, targets)

        processes: List[Process] = [
            self.sim.process(stage_group(pairs), name=f"{client}.txn")
            for _shard, pairs in sorted(groups.items())
        ]
        yield AllOf(self.sim, processes)
        if failures:
            raise ClusterError(f"txn {txn_id} staging failed: {failures[0]}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_open(self, txn_id: int) -> _TxnState:
        try:
            return self._open[txn_id]
        except KeyError:
            raise ClusterError(f"txn {txn_id} is not open") from None

    def _held_count(self, state: _TxnState) -> int:
        now = self.sim.now
        held = 0
        for key in state.keys:
            entry = self._locks.get(key)
            if entry is not None and entry.txn_id == state.txn_id:
                if entry.expires_at > now:
                    held += 1
        return held

    def _all_locked(self, state: _TxnState) -> bool:
        return self._held_count(state) == len(state.keys)

    def _release_locks(self, state: _TxnState) -> None:
        for key in state.locked:
            entry = self._locks.get(key)
            if entry is not None and entry.txn_id == state.txn_id:
                del self._locks[key]

    def _finish_abort(self, state: _TxnState, reason: str) -> None:
        held = self._held_count(state)
        self._release_locks(state)
        del self._open[state.txn_id]
        self.aborted += 1
        if self.tracer is not None:
            self.tracer.record(
                "cluster",
                "txn_abort",
                txn=state.txn_id,
                locks=held,
                reason=reason,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TxnManager({self.active_count} open, "
            f"{self.committed} committed, {self.aborted} aborted)"
        )
