"""RFP tunables.

``R`` (retry bound) and ``F`` (fetch size) are the two user-visible
parameters the paper's §3.2 is about; the remainder model software costs
of the stub layer and the buffer geometry of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ProtocolError

__all__ = ["RfpConfig"]

#: CPU costs (and the stub jitter bound) that must not be negative: a
#: negative charge would schedule work in the past mid-run.
_NON_NEGATIVE_COSTS = (
    "client_post_cpu_us",
    "client_parse_cpu_us",
    "client_wake_cpu_us",
    "server_poll_cpu_us",
    "server_sw_us",
    "server_sw_jitter_us",
    "reply_send_per_byte_us",
)


@dataclass(frozen=True)
class RfpConfig:
    """Configuration for one RFP client/server pair.

    Attributes
    ----------
    retry_bound:
        ``R`` — failed remote-fetch retries tolerated per call before the
        call counts as *slow* (paper default: 5 for the testbed NIC).
    fetch_size:
        ``F`` — default number of bytes fetched per RDMA Read, header
        included.  One read suffices whenever the whole response fits.
    hybrid_enabled:
        Master switch for the fetch/server-reply hybrid.  ``False`` gives
        the pure repeated-remote-fetching client of Fig. 9 and the
        "Jakiro w/o Switch" ablation of Fig. 14.
    consecutive_slow_calls:
        How many *consecutive* slow calls trigger the switch to
        server-reply (paper §3.2 Discussion: two, so an occasional
        long-running request does not flap the mode).
    switch_back_process_time_us:
        Observed server process time below which a server-reply-mode
        client switches back to remote fetching (the ``time`` header
        field feeds this; paper maps it to P ≈ 7 µs).
    request_buffer_bytes / response_buffer_bytes:
        Per-client buffer sizes on the server (Fig. 7 geometry).
    client_post_cpu_us:
        Client software cost to prepare and post one verb.
    server_sw_jitter_us:
        Per-request uniform noise on the server stub cost.
    client_parse_cpu_us:
        Client software cost to validate a fetched/delivered response.
    client_wake_cpu_us:
        Client cost to notice a server-reply delivery (local poll wake).
    server_poll_cpu_us:
        Server cost to notice a request in its request buffers.
    server_sw_us:
        Server stub cost per request (unpack, dispatch, pack).
    """

    retry_bound: int = 5
    fetch_size: int = 256
    hybrid_enabled: bool = True
    consecutive_slow_calls: int = 2
    switch_back_process_time_us: float = 7.0
    request_buffer_bytes: int = 16384
    response_buffer_bytes: int = 16384
    client_post_cpu_us: float = 0.15
    client_parse_cpu_us: float = 0.05
    client_wake_cpu_us: float = 0.20
    server_poll_cpu_us: float = 0.05
    server_sw_us: float = 0.15
    #: Uniform software-timing noise added to ``server_sw_us`` per request
    #: (cache misses, branch behaviour) — gives latency CDFs their natural
    #: spread instead of a deterministic lockstep.
    server_sw_jitter_us: float = 0.15
    #: Per-byte CPU a server thread burns pushing a reply (staging the
    #: payload, scatter/gather setup, completion handling).  Negligible at
    #: 32 B; at KB-scale values this is why the paper's ServerReply keeps
    #: losing CPU to networking as values grow (§4.4.3, Fig. 17).
    reply_send_per_byte_us: float = 0.0015

    def __post_init__(self) -> None:
        if self.retry_bound < 1:
            raise ProtocolError(f"retry bound R must be >= 1, got {self.retry_bound}")
        if self.fetch_size < 16:
            raise ProtocolError(
                f"fetch size F must cover at least a header, got {self.fetch_size}"
            )
        if self.fetch_size > self.response_buffer_bytes:
            raise ProtocolError("fetch size F cannot exceed the response buffer")
        if self.consecutive_slow_calls < 1:
            raise ProtocolError("consecutive_slow_calls must be >= 1")
        for name in _NON_NEGATIVE_COSTS:
            value = getattr(self, name)
            if value < 0:
                raise ProtocolError(f"{name} must be >= 0, got {value}")

    def with_parameters(self, retry_bound: int, fetch_size: int) -> "RfpConfig":
        """Copy with new (R, F) — output of the §3.2 selection procedure."""
        return replace(self, retry_bound=retry_bound, fetch_size=fetch_size)
