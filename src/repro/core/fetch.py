"""Fetch-size planning (paper §3.2, second challenge).

The client does not know a response's size in advance.  Fetching the size
first would double the RDMA Read count, so RFP reads ``F`` bytes — header
plus the leading payload — in one operation.  Only when the response is
larger than ``F`` does a second read collect the remainder.  These pure
functions compute that plan and are shared by the client and by the
parameter-selection model (Eq. 2's ``F >= S_i`` ⇒ one read, else two).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.headers import RESPONSE_HEADER_BYTES
from repro.errors import ProtocolError

__all__ = [
    "FetchPlan",
    "plan_fetch",
    "reads_required",
    "needs_remainder",
    "payload_capacity",
]


def payload_capacity(fetch_size: int) -> int:
    """Payload bytes a single ``F``-byte read can deliver."""
    return max(0, fetch_size - RESPONSE_HEADER_BYTES)


def needs_remainder(total_payload: int, fetch_size: int) -> bool:
    """Whether a response of ``total_payload`` bytes needs a second read
    after the first ``F``-byte fetch (the allocation-free form of
    ``not plan_fetch(...).complete_after_first``)."""
    if total_payload < 0:
        raise ProtocolError(f"negative payload size: {total_payload}")
    return total_payload > payload_capacity(fetch_size)


@dataclass(frozen=True)
class FetchPlan:
    """Byte ranges to read once the first fetch revealed the true size.

    ``first_covers`` — payload bytes already delivered by the first read;
    ``remainder_offset``/``remainder_bytes`` — the second read, if any.
    """

    total_payload: int
    first_covers: int
    remainder_offset: int
    remainder_bytes: int

    @property
    def complete_after_first(self) -> bool:
        return self.remainder_bytes == 0


def plan_fetch(total_payload: int, fetch_size: int) -> FetchPlan:
    """Plan the reads for a response of ``total_payload`` bytes.

    The first read already moved ``min(total, F - header)`` payload bytes;
    anything beyond needs exactly one more read starting right after the
    bytes already held.
    """
    if needs_remainder(total_payload, fetch_size):
        first = payload_capacity(fetch_size)
    else:
        first = total_payload
    remainder = total_payload - first
    return FetchPlan(
        total_payload=total_payload,
        first_covers=first,
        remainder_offset=RESPONSE_HEADER_BYTES + first,
        remainder_bytes=remainder,
    )


def reads_required(total_payload: int, fetch_size: int) -> int:
    """RDMA Reads needed for a response, assuming the fetch succeeds.

    This is the quantity Eq. 2 models: 1 when ``F`` covers the response,
    2 otherwise.
    """
    return 2 if needs_remainder(total_payload, fetch_size) else 1
