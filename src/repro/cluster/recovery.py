"""Shard recovery: stream ranges back from replicas, re-enter the ring.

Failover makes DEAD shards fall out of the ring; this module is the
other half of the fault cycle.  A repaired shard
(:meth:`RfpCluster.repair`) re-registers with the membership as
``RECOVERING``, and a :class:`RecoveryCoordinator` pulls its key ranges
back before it atomically re-enters the ring.

Recovery is a migration: a :class:`repro.cluster.migration.RangeMigration`
whose target ring is the pre-crash ring and whose cutover is the ring
re-entry.  Everything else — planning, rejoiner-pulled one-sided ranged
reads (donors stay in-bound-only), pacing, write forwarding, the
watermark, re-planning and aborts — is the shared engine's, and so is
the trace: the ``migrate_start`` / ``migrate_batch`` /
``migrate_replan`` / ``migrate_cutover`` / ``migrate_abort`` phases,
tagged ``reason=recovery``.  This module supplies only recovery's
policies:

- **Target ring** — the current ring with the rejoiner re-added.
  Placement of a full membership is a pure function of that membership,
  so this *is* the pre-crash ring.
- **Reaction** — a re-declared ``DEAD`` for the rejoiner aborts the
  stream (the ring was never touched, so donors keep ownership and
  there is nothing to undo).  Any other transition that changed the
  ring — another shard failed over, a concurrent recovery cut over —
  re-plans the stream against the ring that actually exists, so the
  shard never becomes routable while missing keys that ring places on
  it.
- **Cutover** — the watermark check, the reverse ring rebalance
  (:meth:`FailoverCoordinator.reinstate`) and the membership promotion
  out of ``RECOVERING`` happen with no intervening simulated time, so no
  write can slip between "caught up" and "routable".  The router closes
  the other half of that race: a PUT whose replica set changed
  mid-flight re-writes before acknowledging.  A kill landing after the
  last batch but before the lease expires never cuts over: the engine
  waits for the detector to re-declare the shard DEAD and aborts.

Until the cutover the shard is ``RECOVERING``: heartbeating but
unroutable, so it never serves below its watermark.
``repro.lint.ClusterInvariantChecker`` audits all of this from the trace
with the same rule set it applies to vnode moves.
"""

from __future__ import annotations

from repro.cluster.membership import ShardStatus
from repro.cluster.migration import RangeMigration
from repro.cluster.ring import HashRing
from repro.errors import ClusterError
from repro.sim.atomic import atomic_section

__all__ = ["RecoveryCoordinator"]


class RecoveryCoordinator(RangeMigration):
    """Streams one dead shard's ranges back, then re-enters the ring.

    Constructed (and started) by :meth:`RfpCluster.repair` after the
    shard's server restarted with an empty store and the membership
    admitted it as ``RECOVERING``.  A recovery is a
    :class:`RangeMigration` whose target ring is the pre-crash ring
    (the current ring with the rejoiner re-added) and whose cutover is
    the atomic ring re-entry: reinstatement plus membership promotion.
    """

    kind = "recovery"

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------

    @property
    def restored_ring(self) -> HashRing:
        """The ring as it will be once the shard re-enters — placement
        of a full membership is a pure function of that membership, so
        this *is* the pre-crash ring (recomputed on replan if the ring
        changes mid-stream)."""
        return self.target_ring

    def _target_ring(self) -> HashRing:
        return self.service.ring.with_node(self.shard)

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    @atomic_section
    def _on_status_change(self, node: str, status: ShardStatus) -> None:
        """Membership transitions while the transfer runs.

        - The rejoiner itself re-declared DEAD (re-halt): abort without
          touching the ring — donors keep ownership.
        - Any other transition that changed the ring (a failover removed
          a shard; a concurrent recovery's cutover added one): the plan
          and the ``note_write`` placement filter were computed against
          a ring that no longer exists, so the stream re-plans before it
          can cut over a shard that is missing keys the actual ring
          places on it.  The comparison is safe here because the
          failover coordinator subscribed first: by the time this
          listener fires, the ring surgery already happened.
        """
        if not self.active:
            return
        if node == self.shard:
            if status is ShardStatus.DEAD:
                self._aborted = True
            return
        expected = set(self.restored_ring.nodes) - {self.shard}
        if set(self.service.ring.nodes) != expected:
            self._replan_needed = True

    # ------------------------------------------------------------------
    # Endgame
    # ------------------------------------------------------------------

    @atomic_section
    def _cutover(self) -> None:
        """Atomic re-entry: ring surgery + promotion + trace, no yields.

        Nothing can interleave (the simulator only switches at yields),
        so at the instant the shard becomes routable its watermark is at
        target and every later write was forwarded — it never serves
        stale values.
        """
        service = self.service
        if not service.shards[self.shard].alive:  # pragma: no cover - _run gates
            raise ClusterError(f"cutover for halted shard {self.shard!r}")
        expected = set(self.restored_ring.nodes) - {self.shard}
        if set(service.ring.nodes) != expected:  # pragma: no cover - _run gates
            raise ClusterError(
                f"cutover for {self.shard!r} against a drifted ring "
                f"(planned {sorted(expected)}, found {service.ring.nodes})"
            )
        self._close()
        ring = service.failover.reinstate(self.shard)
        service.membership.promote(self.shard)
        service.metrics.record_recovery(self.shard)
        self._trace(
            "migrate_cutover",
            donors=",".join(self.event.donors),
            ring=",".join(ring),
            watermark=self.watermark,
            target=self.target,
        )
