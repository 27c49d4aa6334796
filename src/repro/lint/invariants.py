"""Runtime checking of the RFP protocol state machine (paper §3.2).

:class:`RfpInvariantChecker` subscribes to a :class:`repro.sim.Tracer`
and validates every traced protocol event against the paper's rules:

1. **Result-ready ordering** — a client may only *commit* a fetched
   response after the server published it (payload first, header-with-
   parity last).  A fetch that returns data before the result-ready
   header write is the torn-read bug class one-sided designs are prone
   to (§3.1).
2. **Retry bound** — a switch to server-reply mode happens only after
   the in-flight call burned at least ``R`` failed fetches *and* the
   client saw ``consecutive_slow_calls`` slow calls in a row (§3.2).
3. **Fetch size** — every first fetch reads exactly ``F`` bytes and a
   remainder read moves only the bytes beyond ``F``, within the response
   buffer (§3.2's Eq. 1 accounting depends on this).
4. **Mode legality** — transitions follow the two-state machine of
   ``repro/core/mode.py``: ``REMOTE_FETCH → SERVER_REPLY`` only on slow
   streaks, ``SERVER_REPLY → REMOTE_FETCH`` only after a fast reply; the
   published mode flag always matches the client's decision, and the
   server never pushes a reply to a remote-fetching client.
5. **NIC accounting** (:meth:`check_nic_accounting`) — the server's NIC
   op counters must agree with the traced protocol: out-bound ops equal
   pushed replies (zero while every client remote-fetches — the paper's
   "server sends nothing" claim, §2.2/Fig. 5), in-bound ops equal
   requests + fetches + flag writes.

The checker collects violations by default so a full run can be audited
post-hoc; construct with ``halt_on_violation=True`` to raise at the
exact simulated time the protocol breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import RfpConfig
from repro.core.headers import RESPONSE_HEADER_BYTES
from repro.core.mode import Mode
from repro.errors import ReproError
from repro.sim.trace import TraceEvent, Tracer

__all__ = ["InvariantViolation", "RfpInvariantChecker", "ClusterInvariantChecker"]


class InvariantViolation(ReproError):
    """An RFP protocol invariant was broken during a simulation."""


@dataclass
class _ClientState:
    """Checker-side view of one ⟨client, server⟩ connection."""

    mode: Mode = Mode.REMOTE_FETCH
    server_mode: Mode = Mode.REMOTE_FETCH
    inflight_seq: Optional[int] = None
    fetch_reads: int = 0
    slow_streak: int = 0
    published_seq: Optional[int] = None
    published_size: int = 0
    published_time_us: float = 0.0
    pushed_seq: Optional[int] = None
    # Totals for NIC accounting.
    requests_sent: int = 0
    fetch_reads_total: int = 0
    remainder_reads_total: int = 0
    flags_published: int = 0
    replies_pushed: int = 0


class RfpInvariantChecker:
    """Validates traced RFP protocol events against the §3.2 rules."""

    def __init__(
        self,
        config: Optional[RfpConfig] = None,
        halt_on_violation: bool = False,
        initial_mode: Mode = Mode.REMOTE_FETCH,
    ) -> None:
        """``initial_mode`` is :attr:`Mode.REMOTE_FETCH` for RFP (paper
        default); pass :attr:`Mode.SERVER_REPLY` when checking the pinned
        ServerReply baseline, whose channels never write a mode flag."""
        self.config = config if config is not None else RfpConfig()
        self.halt_on_violation = halt_on_violation
        self.initial_mode = initial_mode
        self.violations: List[str] = []
        self.events_checked = 0
        self._clients: Dict[object, _ClientState] = {}
        self._handlers: Dict[str, Callable[[_ClientState, TraceEvent], None]] = {
            "request_sent": self._on_request_sent,
            "fetch_read": self._on_fetch_read,
            "remainder_read": self._on_remainder_read,
            "fetch_success": self._on_fetch_success,
            "mode_switch": self._on_mode_switch,
            "flag_published": self._on_flag_published,
            "reply_received": self._on_reply_received,
            "call_done": self._on_call_done,
            "response_published": self._on_response_published,
            "reply_pushed": self._on_reply_pushed,
            "mode_flag": self._on_mode_flag,
        }

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, tracer: Tracer) -> "RfpInvariantChecker":
        """Subscribe to ``tracer``; returns self for chaining."""
        tracer.subscribe(self.observe)
        return self

    def observe(self, event: TraceEvent) -> None:
        """Tracer observer entry point; dispatches one protocol event."""
        if event.category not in ("rfp.client", "rfp.server"):
            return
        handler = self._handlers.get(event.label)
        if handler is None:
            return
        key = (
            event.data.get("channel")
            if event.category == "rfp.client"
            else event.data.get("client")
        )
        if key is None:
            return
        state = self._clients.get(key)
        if state is None:
            state = self._clients[key] = _ClientState(
                mode=self.initial_mode, server_mode=self.initial_mode
            )
        self.events_checked += 1
        handler(state, event)

    def _violate(self, event: TraceEvent, message: str) -> None:
        record = f"t={event.at_us:.3f} [{event.label}] {message}"
        self.violations.append(record)
        if self.halt_on_violation:
            raise InvariantViolation(record)

    # ------------------------------------------------------------------
    # Client-side events
    # ------------------------------------------------------------------

    def _on_request_sent(self, state: _ClientState, event: TraceEvent) -> None:
        seq = event.data["seq"]
        if state.inflight_seq is not None:
            self._violate(
                event,
                f"request seq={seq} sent while seq={state.inflight_seq} "
                "is still in flight",
            )
        state.inflight_seq = seq
        state.fetch_reads = 0
        state.requests_sent += 1

    def _on_fetch_read(self, state: _ClientState, event: TraceEvent) -> None:
        seq, size = event.data["seq"], event.data["bytes"]
        if state.mode is not Mode.REMOTE_FETCH:
            self._violate(
                event, f"remote fetch issued while in {state.mode.name} mode"
            )
        if seq != state.inflight_seq:
            self._violate(
                event,
                f"fetch for seq={seq} but in-flight call is "
                f"seq={state.inflight_seq}",
            )
        if size != self.config.fetch_size:
            self._violate(
                event,
                f"fetch read of {size} B violates the F={self.config.fetch_size} "
                "B fetch-size bound",
            )
        state.fetch_reads += 1
        state.fetch_reads_total += 1
        attempt = event.data.get("attempt")
        if attempt is not None and attempt != state.fetch_reads:
            self._violate(
                event,
                f"fetch attempt numbered {attempt}, observed "
                f"{state.fetch_reads} reads this call",
            )

    def _on_remainder_read(self, state: _ClientState, event: TraceEvent) -> None:
        size = event.data["bytes"]
        upper = self.config.response_buffer_bytes - self.config.fetch_size
        if not 0 < size <= upper:
            self._violate(
                event,
                f"remainder read of {size} B outside (0, {upper}] "
                "(response buffer minus F)",
            )
        state.remainder_reads_total += 1

    def _on_fetch_success(self, state: _ClientState, event: TraceEvent) -> None:
        seq = event.data["seq"]
        if state.published_seq != seq:
            self._violate(
                event,
                f"client committed fetched response for seq={seq} before the "
                "server published it (result-ready ordering; last published: "
                f"seq={state.published_seq})",
            )
        attempts = event.data.get("attempts")
        if attempts is not None and attempts != state.fetch_reads:
            self._violate(
                event,
                f"call reported {attempts} fetch attempts, checker observed "
                f"{state.fetch_reads}",
            )
        failed = state.fetch_reads - 1
        if failed >= self.config.retry_bound:
            state.slow_streak += 1
        else:
            state.slow_streak = 0

    def _on_mode_switch(self, state: _ClientState, event: TraceEvent) -> None:
        target = event.data.get("to")
        if target == Mode.SERVER_REPLY.name:
            if state.mode is not Mode.REMOTE_FETCH:
                self._violate(
                    event,
                    f"switch to SERVER_REPLY from {state.mode.name} "
                    "(legal only from REMOTE_FETCH)",
                )
            if state.fetch_reads < self.config.retry_bound:
                self._violate(
                    event,
                    f"switched to SERVER_REPLY after only {state.fetch_reads} "
                    f"failed fetches (retry bound R={self.config.retry_bound})",
                )
            if state.slow_streak + 1 < self.config.consecutive_slow_calls:
                self._violate(
                    event,
                    f"switched to SERVER_REPLY on slow-call streak "
                    f"{state.slow_streak + 1} < "
                    f"{self.config.consecutive_slow_calls}",
                )
            state.mode = Mode.SERVER_REPLY
            state.slow_streak = 0
        elif target == Mode.REMOTE_FETCH.name:
            if state.mode is not Mode.SERVER_REPLY:
                self._violate(
                    event,
                    f"switch to REMOTE_FETCH from {state.mode.name} "
                    "(legal only from SERVER_REPLY)",
                )
            threshold = self.config.switch_back_process_time_us
            if state.published_time_us >= threshold:
                self._violate(
                    event,
                    "switched back to REMOTE_FETCH although the last response "
                    f"took {state.published_time_us:.3f} µs "
                    f"(threshold {threshold} µs)",
                )
            state.mode = Mode.REMOTE_FETCH
        else:
            self._violate(event, f"unknown mode-switch target {target!r}")

    def _on_flag_published(self, state: _ClientState, event: TraceEvent) -> None:
        flagged = event.data.get("mode")
        state.flags_published += 1
        if flagged != state.mode.name:
            self._violate(
                event,
                f"mode flag announces {flagged} but the client decided "
                f"{state.mode.name}",
            )

    def _on_reply_received(self, state: _ClientState, event: TraceEvent) -> None:
        seq, size = event.data["seq"], event.data["bytes"]
        if state.published_seq != seq:
            self._violate(
                event,
                f"client accepted a reply for seq={seq}; server's latest "
                f"published response is seq={state.published_seq}",
            )
        elif size != state.published_size:
            self._violate(
                event,
                f"reply for seq={seq} carried {size} B, server published "
                f"{state.published_size} B",
            )
        if state.pushed_seq != seq:
            self._violate(
                event,
                f"client received a reply for seq={seq} the server never "
                f"pushed (last push: seq={state.pushed_seq})",
            )

    def _on_call_done(self, state: _ClientState, event: TraceEvent) -> None:
        seq = event.data["seq"]
        if seq != state.inflight_seq:
            self._violate(
                event,
                f"call_done for seq={seq}, in-flight call is "
                f"seq={state.inflight_seq}",
            )
        state.inflight_seq = None

    # ------------------------------------------------------------------
    # Server-side events
    # ------------------------------------------------------------------

    def _on_response_published(
        self, state: _ClientState, event: TraceEvent
    ) -> None:
        seq = event.data["seq"]
        expected = (state.published_seq or 0) + 1
        if seq != expected:
            self._violate(
                event,
                f"server published response seq={seq}, expected {expected} "
                "(responses must be per-client monotonic)",
            )
        state.published_seq = seq
        state.published_size = event.data["bytes"]
        state.published_time_us = event.data.get("response_time_us", 0.0)

    def _on_reply_pushed(self, state: _ClientState, event: TraceEvent) -> None:
        seq, size = event.data["seq"], event.data["bytes"]
        if state.server_mode is not Mode.SERVER_REPLY:
            self._violate(
                event,
                f"server pushed a reply (seq={seq}) to a client whose flag "
                f"says {state.server_mode.name} — remote-fetch clients must "
                "see a server that sends nothing",
            )
        if seq != state.published_seq:
            self._violate(
                event,
                f"server pushed seq={seq} but last published is "
                f"seq={state.published_seq}",
            )
        elif size != state.published_size + RESPONSE_HEADER_BYTES:
            self._violate(
                event,
                f"pushed reply of {size} B != published payload "
                f"{state.published_size} B + {RESPONSE_HEADER_BYTES} B header",
            )
        state.pushed_seq = seq
        state.replies_pushed += 1

    def _on_mode_flag(self, state: _ClientState, event: TraceEvent) -> None:
        flagged = event.data.get("mode")
        if flagged == state.server_mode.name:
            self._violate(
                event,
                f"mode flag write repeats the current server-side mode "
                f"{flagged} (flags must alternate)",
            )
        state.server_mode = (
            Mode.SERVER_REPLY
            if flagged == Mode.SERVER_REPLY.name
            else Mode.REMOTE_FETCH
        )

    # ------------------------------------------------------------------
    # Post-run checks
    # ------------------------------------------------------------------

    def check_nic_accounting(
        self,
        server: object,
        expect_inbound_only: bool = False,
        strict_inbound: bool = True,
    ) -> None:
        """Compare the server NIC's op counters with the traced protocol.

        ``expect_inbound_only`` asserts the paradigm's headline claim —
        while every client remote-fetches, the server NIC issues nothing.
        ``strict_inbound`` additionally requires the in-bound op count to
        match the traced client activity exactly; disable it when
        untraced clients share the server.
        """
        nic = server.machine.rnic  # type: ignore[attr-defined]
        pushed = sum(s.replies_pushed for s in self._clients.values())
        if nic.outbound_ops != pushed:
            self.violations.append(
                f"NIC accounting: server NIC issued {nic.outbound_ops} "
                f"out-bound ops, trace shows {pushed} pushed replies"
            )
        if expect_inbound_only and nic.outbound_ops != 0:
            self.violations.append(
                f"NIC accounting: expected an in-bound-only server NIC, "
                f"found {nic.outbound_ops} out-bound ops"
            )
        if strict_inbound:
            expected_in = sum(
                s.requests_sent
                + s.fetch_reads_total
                + s.remainder_reads_total
                + s.flags_published
                for s in self._clients.values()
            )
            if nic.inbound_ops != expected_in:
                self.violations.append(
                    f"NIC accounting: server NIC served {nic.inbound_ops} "
                    f"in-bound ops, trace accounts for {expected_in} "
                    "(requests + fetches + remainders + flag writes)"
                )
        if self.halt_on_violation and self.violations:
            raise InvariantViolation(self.violations[-1])

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolation` if anything was recorded."""
        if self.violations:
            summary = "\n  ".join(self.violations)
            raise InvariantViolation(
                f"{len(self.violations)} RFP invariant violation(s):\n  {summary}"
            )

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RfpInvariantChecker(clients={len(self._clients)}, "
            f"events={self.events_checked}, violations={len(self.violations)})"
        )


class ClusterInvariantChecker:
    """Validates traced ``cluster``-category events from
    :mod:`repro.cluster` against the layer's routing/failover rules.

    Invariants:

    1. **Route health** — operations are routed only to shards the
       membership currently considers ``HEALTHY``; a route to a
       ``SUSPECT`` or ``DEAD`` shard means a router ignored the failure
       detector.
    2. **Status machine** — ``suspect`` only from healthy, ``recovered``
       only from suspect (``DEAD`` is sticky), ``dead`` never twice.
    3. **Failover discipline** — a ``failover`` event names a shard that
       was declared ``dead`` first, happens at most once per live
       incarnation of a shard, and its successor list excludes the dead
       shard; the paired ``rebalance`` event agrees on the survivor set.
    4. **Post-failover silence** — once a shard failed over, no further
       operation is routed to it until a recovery ``migrate_cutover``
       re-admits it.
    5. **Rejoin discipline** — ``rejoin`` is legal only from ``DEAD``
       (the repair path never shortcuts the failure detector).  A route
       to a ``RECOVERING`` shard is flagged as a read below the
       watermark.
    6. **Migration watermark** — one rule set for both migration
       clients, keyed by recipient.  Every ``migrate_*`` event carries a
       ``reason``: ``recovery`` requires the recipient ``RECOVERING``
       throughout, ``rebalance`` requires it ``HEALTHY`` (both ends of a
       vnode move serve live traffic).  ``migrate_start`` opens at most
       one migration per recipient, and its donors — like every
       ``migrate_batch`` donor — must be live shards other than the
       recipient (``HEALTHY`` or transiently ``SUSPECT``; suspicion is a
       reversible hint, ``DEAD``/``RECOVERING`` shards cannot donate).
       Batches, cutovers and aborts need an open migration.  Batches
       never shrink the ``target`` (catch-up writes may grow it) and
       advance the ``watermark`` monotonically up to it.
       ``migrate_replan`` — the ring changed under the stream — re-bases
       both bounds; only a recovery may re-plan.
    7. **Cutover completeness** — ``migrate_cutover`` is legal only at
       ``watermark == target``: changing placement earlier would route
       keys to a shard that does not hold them yet.  A recovery cutover
       must also name a ring containing the shard; it promotes the shard
       to ``HEALTHY`` and ends its post-failover silence.
    8. **Abort discipline** — ``migrate_abort`` closes the migration and
       leaves ownership untouched.  A recovery aborts only after the
       membership re-declared the shard ``DEAD``; *any* transition may
       abort a rebalance.
    9. **Transaction discipline** — a ``txn_begin`` id is never reused;
       ``txn_lock`` grants belong to an open transaction, never exceed
       its declared key count, and arrive in strictly ascending key
       order (the sorted-bytes acquisition order that makes deadlock
       impossible — the hex encoding preserves it); ``txn_commit`` is
       legal only when every declared key was locked
       (commit-only-when-all-locked) and must report the same lock
       count the trace granted; ``txn_abort`` closes an open
       transaction.  Lock leases still open after a run are a leak —
       :meth:`assert_no_leaked_leases` audits them at teardown.

    Like :class:`RfpInvariantChecker`, violations are collected by
    default; ``halt_on_violation=True`` raises at the exact simulated
    time the rule breaks.
    """

    _HEALTHY, _SUSPECT, _DEAD = "HEALTHY", "SUSPECT", "DEAD"
    _RECOVERING = "RECOVERING"

    #: reason -> (recipient status every migrate_* phase requires,
    #: status an abort requires — None when any transition may abort).
    _MIGRATION_RULES: Dict[str, Tuple[str, Optional[str]]] = {
        "recovery": (_RECOVERING, _DEAD),
        "rebalance": (_HEALTHY, None),
    }

    def __init__(self, halt_on_violation: bool = False) -> None:
        self.halt_on_violation = halt_on_violation
        self.violations: List[str] = []
        self.events_checked = 0
        self._status: Dict[str, str] = {}
        self._failed_over: set = set()
        self.routes_per_shard: Dict[str, int] = {}
        #: Last seen (watermark, target) per open migration's recipient.
        self._progress: Dict[str, Tuple[int, int]] = {}
        #: Open txn -> declared key count (from txn_begin).
        self._txn_declared: Dict[int, int] = {}
        #: Open txn -> hex keys locked so far, in grant order.
        self._txn_locked: Dict[int, List[str]] = {}
        #: Every txn id ever closed (commit or abort) — ids never recur.
        self._txn_closed: set = set()
        self._handlers: Dict[str, Callable[[TraceEvent], None]] = {
            "route": self._on_route,
            "suspect": self._on_suspect,
            "recovered": self._on_recovered,
            "dead": self._on_dead,
            "failover": self._on_failover,
            "rebalance": self._on_rebalance,
            "rejoin": self._on_rejoin,
            "migrate_start": self._on_migrate_start,
            "migrate_batch": self._on_migrate_batch,
            "migrate_replan": self._on_migrate_replan,
            "migrate_cutover": self._on_migrate_cutover,
            "migrate_abort": self._on_migrate_abort,
            "txn_begin": self._on_txn_begin,
            "txn_lock": self._on_txn_lock,
            "txn_commit": self._on_txn_commit,
            "txn_abort": self._on_txn_abort,
        }

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, tracer: Tracer) -> "ClusterInvariantChecker":
        """Subscribe to ``tracer``; returns self for chaining."""
        tracer.subscribe(self.observe)
        return self

    def observe(self, event: TraceEvent) -> None:
        """Tracer observer entry point; dispatches one cluster event."""
        if event.category != "cluster":
            return
        handler = self._handlers.get(event.label)
        if handler is None:
            return
        self.events_checked += 1
        handler(event)

    def _violate(self, event: TraceEvent, message: str) -> None:
        record = f"t={event.at_us:.3f} [{event.label}] {message}"
        self.violations.append(record)
        if self.halt_on_violation:
            raise InvariantViolation(record)

    def _state(self, shard: str) -> str:
        return self._status.setdefault(shard, self._HEALTHY)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_route(self, event: TraceEvent) -> None:
        shard = event.data["shard"]
        self.routes_per_shard[shard] = self.routes_per_shard.get(shard, 0) + 1
        status = self._state(shard)
        if status == self._RECOVERING:
            watermark, target = self._progress.get(shard, (0, 0))
            self._violate(
                event,
                f"operation routed to RECOVERING shard {shard!r} below "
                f"its watermark ({watermark}/{target} keys transferred)",
            )
        elif status != self._HEALTHY:
            self._violate(
                event,
                f"operation routed to shard {shard!r} while it is {status}",
            )
        if shard in self._failed_over:
            self._violate(
                event,
                f"operation routed to shard {shard!r} after its failover",
            )

    def _on_suspect(self, event: TraceEvent) -> None:
        shard = event.data["shard"]
        status = self._state(shard)
        if status != self._HEALTHY:
            self._violate(
                event, f"shard {shard!r} marked SUSPECT from {status}"
            )
        self._status[shard] = self._SUSPECT

    def _on_recovered(self, event: TraceEvent) -> None:
        shard = event.data["shard"]
        status = self._state(shard)
        if status != self._SUSPECT:
            self._violate(
                event,
                f"shard {shard!r} recovered from {status} "
                "(legal only from SUSPECT; DEAD is sticky)",
            )
        self._status[shard] = self._HEALTHY

    def _on_dead(self, event: TraceEvent) -> None:
        shard = event.data["shard"]
        if self._state(shard) == self._DEAD:
            self._violate(event, f"shard {shard!r} declared dead twice")
        self._status[shard] = self._DEAD

    def _on_failover(self, event: TraceEvent) -> None:
        shard = event.data["shard"]
        successors = [s for s in event.data.get("successors", "").split(",") if s]
        if self._state(shard) != self._DEAD:
            self._violate(
                event,
                f"failover for shard {shard!r} which was never declared dead",
            )
        if shard in self._failed_over:
            self._violate(event, f"second failover for shard {shard!r}")
        if shard in successors:
            self._violate(
                event,
                f"failover successors for {shard!r} include the dead shard",
            )
        self._failed_over.add(shard)

    def _on_rebalance(self, event: TraceEvent) -> None:
        removed = event.data["removed"]
        survivors = [s for s in event.data.get("survivors", "").split(",") if s]
        if removed not in self._failed_over:
            self._violate(
                event,
                f"ring rebalance removed {removed!r} without a failover",
            )
        if removed in survivors:
            self._violate(
                event,
                f"rebalance survivor set still contains the removed "
                f"shard {removed!r}",
            )

    def _on_rejoin(self, event: TraceEvent) -> None:
        shard = event.data["shard"]
        status = self._state(shard)
        if status != self._DEAD:
            self._violate(
                event,
                f"shard {shard!r} rejoined from {status} "
                "(repair must not shortcut the failure detector)",
            )
        self._status[shard] = self._RECOVERING

    def _check_donor(self, event: TraceEvent, shard: str, donor: str) -> None:
        if donor == shard:
            self._violate(
                event, f"shard {shard!r} cannot donate ranges to itself"
            )
        elif self._state(donor) not in (self._HEALTHY, self._SUSPECT):
            # SUSPECT is a reversible hint (one op timeout under load
            # heals on the next beat); a suspected donor still owns its
            # ranges and donates legally.  DEAD/RECOVERING cannot.
            self._violate(
                event,
                f"migration donor {donor!r} is {self._state(donor)} "
                "(only live shards donate)",
            )

    def _rule(self, event: TraceEvent) -> Optional[Tuple[str, Optional[str]]]:
        reason = event.data.get("reason", "")
        rule = self._MIGRATION_RULES.get(reason)
        if rule is None:
            self._violate(
                event,
                f"migration for {event.data['shard']!r} has unknown "
                f"reason {reason!r}",
            )
        return rule

    def _migration(self, event: TraceEvent) -> Tuple[str, str, int, int]:
        """(shard, reason, watermark, target) of a ``migrate_*`` event,
        after the status rule its reason imposes on the recipient."""
        shard = event.data["shard"]
        reason = event.data.get("reason", "")
        rule = self._rule(event)
        status = self._state(shard)
        if rule is not None and status != rule[0]:
            self._violate(
                event,
                f"{reason} {event.label} for shard {shard!r} while it is "
                f"{status} (a {reason} recipient is {rule[0]})",
            )
        watermark = int(event.data.get("watermark", 0))
        target = int(event.data.get("target", 0))
        return shard, reason, watermark, target

    def _require_open(self, event: TraceEvent, shard: str) -> None:
        if shard not in self._progress:
            self._violate(
                event, f"{event.label} for {shard!r} without a migrate_start"
            )

    def _on_migrate_start(self, event: TraceEvent) -> None:
        shard, _reason, _watermark, target = self._migration(event)
        if shard in self._progress:
            self._violate(
                event, f"second migration onto {shard!r} while one is open"
            )
        for donor in [s for s in event.data.get("donors", "").split(",") if s]:
            self._check_donor(event, shard, donor)
        self._progress[shard] = (0, target)

    def _on_migrate_batch(self, event: TraceEvent) -> None:
        """The monotone watermark rule: the target may *grow* between
        batches (catch-up writes extend the plan) but never shrink —
        keys don't un-own themselves — and the watermark only advances,
        never past the target."""
        shard, _reason, watermark, target = self._migration(event)
        self._require_open(event, shard)
        self._check_donor(event, shard, event.data.get("donor", ""))
        last_watermark, last_target = self._progress.get(shard, (0, 0))
        if target < last_target:
            self._violate(
                event,
                f"migration target for {shard!r} shrank "
                f"{last_target} -> {target}",
            )
        if watermark < last_watermark:
            self._violate(
                event,
                f"migration watermark for {shard!r} regressed "
                f"{last_watermark} -> {watermark}",
            )
        if watermark > target:
            self._violate(
                event,
                f"migration watermark for {shard!r} overflows its target "
                f"({watermark} > {target})",
            )
        self._progress[shard] = (watermark, target)

    def _on_migrate_replan(self, event: TraceEvent) -> None:
        shard, reason, watermark, target = self._migration(event)
        if reason == "rebalance":
            # Any membership transition aborts a vnode move, so it can
            # never reach the replan path.
            self._violate(event, f"rebalance onto {shard!r} re-planned")
        if watermark > target:
            self._violate(
                event,
                f"re-planned watermark for {shard!r} overflows its target "
                f"({watermark} > {target})",
            )
        # The ring changed under the transfer, so the plan was rebuilt
        # against it; the re-based pair becomes the new monotonicity
        # baseline (a shrinking target is legal only through this event).
        self._progress[shard] = (watermark, target)

    def _on_migrate_cutover(self, event: TraceEvent) -> None:
        shard, reason, watermark, target = self._migration(event)
        self._require_open(event, shard)
        if watermark != target:
            # Changing placement before every planned key is resident
            # would route reads to a shard that does not hold the data.
            self._violate(
                event,
                f"cutover for shard {shard!r} below its watermark "
                f"({watermark}/{target} keys transferred)",
            )
        if reason == "recovery":
            ring = [s for s in event.data.get("ring", "").split(",") if s]
            if ring and shard not in ring:
                self._violate(
                    event,
                    f"cutover ring for {shard!r} does not contain the shard",
                )
            self._status[shard] = self._HEALTHY
            self._failed_over.discard(shard)
        self._progress.pop(shard, None)

    def _on_migrate_abort(self, event: TraceEvent) -> None:
        # The ring was never touched; donors keep ownership.  A recovery
        # aborts only after the membership re-declared the shard DEAD;
        # *any* transition sanctions a rebalance abort (the move is pure
        # optimization and always yields to the correctness machinery).
        shard = event.data["shard"]
        rule = self._rule(event)
        self._require_open(event, shard)
        if rule is not None and rule[1] is not None:
            status = self._state(shard)
            if status != rule[1]:
                self._violate(
                    event,
                    f"abort for shard {shard!r} while it is {status} "
                    f"(a {event.data['reason']} abort follows a re-declared "
                    f"{rule[1]})",
                )
        self._progress.pop(shard, None)

    def _on_txn_begin(self, event: TraceEvent) -> None:
        txn = event.data["txn"]
        if txn in self._txn_declared or txn in self._txn_closed:
            self._violate(event, f"txn id {txn} reused")
        self._txn_declared[txn] = event.data["keys"]
        self._txn_locked[txn] = []

    def _on_txn_lock(self, event: TraceEvent) -> None:
        txn = event.data["txn"]
        locked = self._txn_locked.get(txn)
        if locked is None:
            self._violate(event, f"lock granted to txn {txn} which is not open")
            return
        key = event.data["key"]
        if locked and key <= locked[-1]:
            # Hex is 2 chars/byte with a fixed digit order, so string
            # comparison here is bytewise comparison of the raw keys.
            self._violate(
                event,
                f"txn {txn} locked key {key} after {locked[-1]} — "
                "deterministic (sorted-key) lock ordering violated",
            )
        locked.append(key)
        if event.data["order"] != len(locked):
            self._violate(
                event,
                f"txn {txn} lock order {event.data['order']} but the trace "
                f"granted {len(locked)} locks",
            )
        if len(locked) > self._txn_declared.get(txn, 0):
            self._violate(
                event,
                f"txn {txn} locked {len(locked)} keys but declared only "
                f"{self._txn_declared.get(txn, 0)}",
            )

    def _on_txn_commit(self, event: TraceEvent) -> None:
        txn = event.data["txn"]
        locked = self._txn_locked.get(txn)
        if locked is None:
            self._violate(event, f"commit of txn {txn} which is not open")
            return
        declared = self._txn_declared.get(txn, 0)
        if len(locked) != declared:
            self._violate(
                event,
                f"txn {txn} commits with only {len(locked)}/{declared} "
                "participants locked — commit requires every declared "
                "key locked",
            )
        if event.data["locks"] != len(locked):
            self._violate(
                event,
                f"txn {txn} commit reports {event.data['locks']} locks "
                f"held but the trace granted {len(locked)}",
            )
        self._close_txn(txn)

    def _on_txn_abort(self, event: TraceEvent) -> None:
        txn = event.data["txn"]
        if txn not in self._txn_locked:
            self._violate(event, f"abort of txn {txn} which is not open")
            return
        self._close_txn(txn)

    def _close_txn(self, txn: int) -> None:
        self._txn_declared.pop(txn, None)
        self._txn_locked.pop(txn, None)
        self._txn_closed.add(txn)

    # ------------------------------------------------------------------
    # Post-run checks
    # ------------------------------------------------------------------

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolation` if anything was recorded."""
        if self.violations:
            summary = "\n  ".join(self.violations)
            raise InvariantViolation(
                f"{len(self.violations)} cluster invariant violation(s):"
                f"\n  {summary}"
            )

    def open_lock_leases(self) -> List[Tuple[int, str]]:
        """(txn, hex key) for every lock granted but never released by a
        commit or abort — leaked leases, if the run is over."""
        return [
            (txn, key)
            for txn in sorted(self._txn_locked)
            for key in self._txn_locked[txn]
        ]

    def assert_no_leaked_leases(self) -> None:
        """Raise :class:`InvariantViolation` on any still-open lock lease.

        Teardown audit (see ``tests/cluster/conftest.py``): every
        transaction a test opens must have closed — the lock-table
        analogue of the ``Membership.unsubscribe`` listener audit.
        """
        leaked = self.open_lock_leases()
        if leaked:
            summary = ", ".join(f"txn {txn} key {key}" for txn, key in leaked)
            raise InvariantViolation(
                f"{len(leaked)} leaked lock lease(s) after run: {summary}"
            )

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterInvariantChecker(shards={len(self._status)}, "
            f"events={self.events_checked}, violations={len(self.violations)})"
        )
