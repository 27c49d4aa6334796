"""Failure handling: replica takeover and ring rebalance on shard death.

With replication factor ≥ 2 every key's backups are its primary's
clockwise successors on the ring (:meth:`HashRing.lookup_replicas`), and
writes are primary-backup: a PUT is acknowledged only after every
healthy replica applied it.  That gives failover a one-move mechanism:
when the membership declares a shard ``DEAD``, the coordinator removes
it from the ring, which re-routes each of its ranges to exactly the
shard that already holds the range's replica — no data motion is needed
for the takeover itself.

Two things make the transition graceful rather than a stall:

- Routers stop sending to a shard the moment it turns ``SUSPECT`` (an
  op timeout is enough), so only the operations already in flight at the
  failure pay the timeout.
- A call stuck against the dead shard degrades by the paper's own §3.2
  hybrid rule instead of spinning: its remote fetches burn through the
  retry bound ``R``, the slow-call streak fires, and the client switches
  that connection to server-reply mode (a cheap blocked wait) exactly as
  it would for an overloaded-but-alive server.  Healthy shards never see
  any of this, so their NICs stay in-bound-only throughout — the
  invariant checker asserts as much.

The coordinator traces ``failover`` (the takeover decision) and
``rebalance`` (the ring mutation) events under the ``cluster`` category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.membership import Membership, ShardStatus
from repro.cluster.ring import HashRing
from repro.errors import ClusterError
from repro.sim.atomic import atomic_section
from repro.sim.core import Simulator
from repro.sim.trace import Tracer

__all__ = ["FailoverEvent", "ReinstateEvent", "FailoverCoordinator"]


@dataclass(frozen=True)
class FailoverEvent:
    """One completed takeover: when, who died, who inherited."""

    at_us: float
    shard: str
    successors: List[str]


@dataclass(frozen=True)
class ReinstateEvent:
    """One completed re-entry: when, who rejoined, the restored ring."""

    at_us: float
    shard: str
    ring: List[str]


class FailoverCoordinator:
    """Turns membership DEAD transitions into ring rebalances."""

    def __init__(
        self,
        sim: Simulator,
        ring: HashRing,
        membership: Membership,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.ring = ring
        self.membership = membership
        self.tracer = tracer
        self.events: List[FailoverEvent] = []
        self.reinstatements: List[ReinstateEvent] = []
        membership.subscribe(self._on_status_change)

    @property
    def last_failover_at_us(self) -> Optional[float]:
        """Simulated time of the most recent takeover, if any."""
        return self.events[-1].at_us if self.events else None

    @atomic_section
    def _on_status_change(self, node: str, status: ShardStatus) -> None:
        if status is not ShardStatus.DEAD or node not in self.ring:
            return
        # Record who inherits before mutating the ring: the successors of
        # the dead shard are simply the survivors (every range falls to
        # its clockwise successor, which held the replica).
        self.ring.remove_node(node)
        survivors = self.ring.nodes
        event = FailoverEvent(self.sim.now, node, survivors)
        self.events.append(event)
        if self.tracer is not None:
            self.tracer.record(
                "cluster",
                "failover",
                shard=node,
                successors=",".join(survivors),
            )
            self.tracer.record(
                "cluster",
                "rebalance",
                removed=node,
                survivors=",".join(survivors),
                vnodes=self.ring.vnodes,
            )

    @atomic_section
    def reinstate(self, node: str) -> List[str]:
        """Reverse rebalance: re-insert a recovered shard's vnodes.

        The exact inverse of the failover surgery — adding ``node`` back
        re-routes precisely the ranges that fell to its successors at
        death (remap minimality), restoring the pre-crash ring, since
        placement is a pure function of membership.  Called by the
        recovery coordinator in the same atomic instant as the membership
        promotion; the coordinator traces the paired ``migrate_cutover``
        event.
        """
        if node in self.ring:
            raise ClusterError(f"shard {node!r} is already on the ring")
        self.ring.add_node(node)
        event = ReinstateEvent(self.sim.now, node, self.ring.nodes)
        self.reinstatements.append(event)
        return event.ring

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FailoverCoordinator({len(self.events)} failovers, "
            f"{len(self.reinstatements)} reinstatements)"
        )
