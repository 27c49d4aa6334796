"""Deterministic fault schedules for crash/rejoin experiments.

A :class:`FaultPlan` is a declarative script of ``kill`` / ``repair``
actions at fixed simulated times.  Because the simulator is
deterministic, the same plan against the same workload produces the same
trace event-for-event — which is what lets the unit tests, the invariant
suite, and the ``ext-cluster-rejoin`` benchmark all share one injection
mechanism instead of each hand-scheduling callbacks.

The plan validates its own shape up front (per-shard actions must
alternate ``kill``, ``repair``, ``kill``, … at strictly increasing
times), so a typo'd schedule fails at construction, not as a confusing
mid-run :class:`~repro.errors.ClusterError`.  Note that :meth:`arm` only
*schedules* the calls: a ``repair`` still requires the membership to
have declared the shard ``DEAD`` by its fire time, so leave at least the
suspect+lease window between a kill and its repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import ClusterError
from repro.sim.core import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.migration import MigrationConfig
    from repro.cluster.recovery import RecoveryCoordinator
    from repro.cluster.router import RfpCluster

__all__ = ["Fault", "FaultPlan"]

_ACTIONS = ("kill", "repair")


@dataclass(frozen=True)
class Fault:
    """One scripted action: ``kill`` or ``repair`` ``shard`` at ``at_us``."""

    at_us: float
    action: str
    shard: str


class FaultPlan:
    """An ordered, validated schedule of :class:`Fault` actions.

    Build once, :meth:`arm` against a live cluster before running the
    simulator.  After the run, :attr:`fired` lists the faults that
    actually executed and :attr:`recoveries` holds the
    :class:`~repro.cluster.recovery.RecoveryCoordinator` spawned by each
    ``repair``, in firing order.
    """

    def __init__(self, faults: Sequence[Fault]) -> None:
        self.faults: List[Fault] = sorted(
            faults, key=lambda f: (f.at_us, f.shard, f.action)
        )
        self.fired: List[Fault] = []
        self.recoveries: List["RecoveryCoordinator"] = []
        self._armed = False
        self._validate()

    def _validate(self) -> None:
        if not self.faults:
            raise ClusterError("a fault plan needs at least one fault")
        per_shard: Dict[str, List[Fault]] = {}
        for fault in self.faults:
            if fault.action not in _ACTIONS:
                raise ClusterError(
                    f"unknown fault action {fault.action!r} "
                    f"(expected one of {_ACTIONS})"
                )
            if fault.at_us < 0:
                raise ClusterError(
                    f"fault time must be >= 0, got {fault.at_us} for "
                    f"{fault.action} {fault.shard!r}"
                )
            per_shard.setdefault(fault.shard, []).append(fault)
        for shard, sequence in per_shard.items():
            last_at = -1.0
            for index, fault in enumerate(sequence):
                expected = _ACTIONS[index % 2]
                if fault.action != expected:
                    raise ClusterError(
                        f"shard {shard!r} fault #{index} is "
                        f"{fault.action!r}; actions must alternate "
                        f"kill, repair, kill, ... per shard"
                    )
                if fault.at_us <= last_at:
                    raise ClusterError(
                        f"shard {shard!r} faults must be at strictly "
                        f"increasing times; {fault.action} at "
                        f"{fault.at_us} does not follow {last_at}"
                    )
                last_at = fault.at_us

    # ------------------------------------------------------------------

    def arm(
        self,
        sim: Simulator,
        service: "RfpCluster",
        recovery_config: Optional["MigrationConfig"] = None,
    ) -> None:
        """Schedule every fault against ``service`` (relative to now).

        ``recovery_config`` is forwarded to every ``repair`` so a test
        can slow the transfer down (e.g. to land a second kill inside
        it) without touching the plan itself.
        """
        if self._armed:
            raise ClusterError("fault plan is already armed")
        self._armed = True
        unknown = {f.shard for f in self.faults} - set(service.shards)
        if unknown:
            raise ClusterError(
                f"fault plan names unknown shards: {sorted(unknown)}"
            )
        for fault in self.faults:
            delay = fault.at_us - sim.now
            if delay < 0:
                raise ClusterError(
                    f"fault at {fault.at_us} is in the past (now={sim.now})"
                )
            sim.schedule(delay, self._fire, service, fault, recovery_config)

    def _fire(
        self,
        service: "RfpCluster",
        fault: Fault,
        recovery_config: Optional["MigrationConfig"],
    ) -> None:
        if fault.action == "kill":
            service.kill(fault.shard)
        else:
            recovery = service.repair(fault.shard, recovery_config=recovery_config)
            self.recoveries.append(recovery)
        self.fired.append(fault)

    # ------------------------------------------------------------------

    @staticmethod
    def kill_then_repair(
        shard: str, kill_at_us: float, repair_at_us: float
    ) -> "FaultPlan":
        """The common one-crash-one-rejoin schedule."""
        return FaultPlan(
            [
                Fault(kill_at_us, "kill", shard),
                Fault(repair_at_us, "repair", shard),
            ]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scripted = ", ".join(
            f"{f.action} {f.shard}@{f.at_us:g}" for f in self.faults
        )
        return f"FaultPlan({scripted})"
