"""CRC64 (ECMA-182, reflected) — Pilaf's race-detection checksum.

Pilaf validates every remotely-read hash-table entry and data record with
CRC64 so a GET that races an in-progress PUT observes a checksum mismatch
and retries (§1, §2.3).  The implementation is the standard table-driven
reflected CRC-64/XZ variant (polynomial 0x42F0E1EBA9EA3693 reflected to
0xC96C5795D7870F42, init/xorout 0xFFFFFFFFFFFFFFFF).

The byte loop costs about 0.2 µs per byte on the host, and the model
checksums the same small inputs over and over: every key hash (Jakiro's
partition and bucket picks, the cluster ring, Pilaf's cuckoo candidates)
and every Pilaf index entry and record a GET reads back.  So
:func:`crc64` memoizes by content.  It stays a pure function — a hit
returns the value the loop computed for those very bytes, and bytes
never seen before (a genuinely torn read included) miss and are
computed — so the memo changes host time only, never a result.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["crc64", "MEMO_MAX_ENTRIES", "MEMO_MAX_INPUT_BYTES"]

_POLY_REFLECTED = 0xC96C5795D7870F42
_MASK = 0xFFFFFFFFFFFFFFFF

#: Entry cap of the content memo; reaching it clears the memo.  A
#: Pilaf episode of the repository benchmark checksums ~27k distinct
#: inputs (8,192 keys, index entries and records, plus its PUTs).
MEMO_MAX_ENTRIES = 1 << 15
#: Longer inputs are computed every time and never stored.  Keys, Pilaf
#: index-entry bodies (24 B) and small records fit under it.
MEMO_MAX_INPUT_BYTES = 64

#: ``bytes -> CRC`` for inputs of at most MEMO_MAX_INPUT_BYTES.  Worst
#: case at the cap (CPython 3.11, tracemalloc): the dict 1.25 MiB, the
#: 64-bit ints 1.1 MiB, and — when the memo holds the only reference —
#: the 64 B input objects 3.3 MiB (97 B each): about 5.7 MiB in all.
_MEMO: Dict[bytes, int] = {}


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY_REFLECTED
            else:
                crc >>= 1
        table.append(crc)
    return table


_TABLE = _build_table()


def crc64(data: bytes) -> int:
    """CRC-64/XZ of ``data`` as an unsigned 64-bit integer."""
    memoize = len(data) <= MEMO_MAX_INPUT_BYTES and type(data) is bytes
    if memoize:
        cached = _MEMO.get(data)
        if cached is not None:
            return cached
    crc = _MASK
    table = _TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    crc ^= _MASK
    if memoize:
        if len(_MEMO) >= MEMO_MAX_ENTRIES:
            _MEMO.clear()
        _MEMO[data] = crc
    return crc
