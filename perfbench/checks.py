"""Correctness checks over what one episode observed.

Each check takes plain data (no simulator objects), returns a list of
failure messages (empty means the check passed), and is exercised
against planted faults in :mod:`perfbench.selftest`.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: One write as the checker sees it: (issued at, acked at or None, value).
Write = Tuple[float, Optional[float], bytes]
#: One completed read: (key, issued at, completed at, value or None).
Read = Tuple[bytes, float, float, Optional[bytes]]


def check_reads_see_writes(
    preloaded: Mapping[bytes, bytes],
    writes: Mapping[bytes, Sequence[Write]],
    reads: Iterable[Read],
) -> List[str]:
    """Every GET returns the preloaded value or a write it may see.

    A read may return a write issued before the read completed, unless
    another write to the key started after that write was acked and was
    itself acked before the read began (it is then overwritten for
    good).  The preloaded value is a write acked before time zero.  On a
    key nobody writes, this says: every GET returns its preloaded value.
    """
    failures: List[str] = []
    for key, began, ended, value in reads:
        history = writes.get(key, ())
        # Latest start among writes acked before the read began: anything
        # acked before that start is overwritten for good.
        barrier = max(
            (start for start, acked, _ in history if acked is not None and acked <= began),
            default=None,
        )
        allowed = [] if barrier is not None else [preloaded.get(key)]
        allowed.extend(
            written
            for start, acked, written in history
            if start < ended and (barrier is None or acked is None or acked >= barrier)
        )
        if value not in allowed:
            failures.append(
                f"GET {key!r} at [{began:.3f}, {ended:.3f}] returned a value "
                f"no write explains ({_brief(value)})"
            )
            if len(failures) >= 5:
                break
    return failures


def check_server_nic(outbound_ops: int, replies_sent: int, server: str) -> List[str]:
    """RFP server NICs stay in-bound-only except for §3.2 replies."""
    if outbound_ops != replies_sent:
        return [
            f"{server}: server NIC issued {outbound_ops} out-bound ops but the "
            f"server sent {replies_sent} replies"
        ]
    return []


def check_acked_writes(
    acked: Mapping[bytes, int], replica_seqs: Mapping[bytes, Sequence[Tuple[str, int]]]
) -> List[str]:
    """Every acked write is readable on every final-ring replica."""
    failures: List[str] = []
    for key, sequence in sorted(acked.items()):
        for replica, stored in replica_seqs.get(key, ()):
            if stored < sequence:
                failures.append(
                    f"acked write {key!r}@{sequence} lost on {replica} "
                    f"(holds {stored})"
                )
    return failures


def check_fresh_reads(
    acks: Mapping[bytes, Sequence[Tuple[float, int]]],
    reads: Iterable[Tuple[bytes, float, int]],
) -> List[str]:
    """No GET reads a sequence older than its key's last ack before the
    GET began.  ``acks`` lists (acked at, sequence) per key in time
    order; ``reads`` are (key, issued at, sequence read)."""
    failures: List[str] = []
    times = {key: [at for at, _ in history] for key, history in acks.items()}
    for key, began, sequence in reads:
        history = acks.get(key)
        if not history:
            continue
        position = bisect.bisect_right(times[key], began)
        if position and sequence < history[position - 1][1]:
            failures.append(
                f"GET {key!r} at {began:.3f} read sequence {sequence}, older "
                f"than the ack of {history[position - 1][1]} before it"
            )
    return failures


def check_groups_whole(
    groups: Iterable[Tuple[Sequence[bytes], int]],
    replica_seqs: Mapping[bytes, Sequence[Tuple[str, int]]],
) -> List[str]:
    """No multi_put group is torn on any replica: where one key of a
    group holds the group's sequence, no other key holds an older one."""
    failures: List[str] = []
    for keys, sequence in groups:
        per_replica: Dict[str, List[int]] = {}
        for key in keys:
            for replica, stored in replica_seqs.get(key, ()):
                per_replica.setdefault(replica, []).append(stored)
        for replica, stored in sorted(per_replica.items()):
            if sequence in stored and min(stored) < sequence:
                failures.append(
                    f"multi_put {sequence} over {list(keys)!r} torn on {replica}: "
                    f"{stored}"
                )
    return failures


def _brief(value: Optional[bytes]) -> str:
    if value is None:
        return "None"
    return f"{len(value)} B {value[:24]!r}"
