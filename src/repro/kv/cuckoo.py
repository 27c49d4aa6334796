"""3-way Cuckoo hash table (Pilaf's index structure, §2.3).

Every key has three candidate slots (three independent hash functions
over a flat slot array).  Insertion places the key in the first free
candidate or kicks a resident key to one of *its* alternates, looping up
to a bound.  Lookup probes the candidates in order — which is exactly
what Pilaf's client does remotely, one RDMA Read per probe; at the
paper-quoted 75% fill the average GET costs ~2.2 index probes plus one
data read ≈ 3.2 RDMA operations.
"""

from __future__ import annotations

from typing import Generic, List, Optional, Tuple, TypeVar

from repro.errors import KVError
from repro.kv.crc import crc64
from repro.sim.random import seeded_rng

__all__ = ["CuckooHashTable", "candidates_of_hash", "cuckoo_candidates"]

V = TypeVar("V")

_MASK64 = 0xFFFFFFFFFFFFFFFF
# Distinct odd constants per way; the finalizer below is nonlinear, so the
# three per-way hashes are effectively independent.  (Naively salting the
# CRC input does NOT work: CRC is linear, so prefix-salted hashes of the
# same key differ by a constant XOR and all three candidates collide
# together, trapping the cuckoo walk at ~50% fill.)
_WAY_SEEDS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)


def _mix64(value: int) -> int:
    """splitmix64 finalizer: a nonlinear 64-bit bijection."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def cuckoo_candidates(key: bytes, capacity: int) -> List[int]:
    """The three candidate slots of ``key`` in a table of ``capacity``.

    A pure function of (key, capacity): the Pilaf *client* computes the
    very same probe sequence locally that the server used for placement,
    which is what makes one-sided index probing possible.
    """
    return candidates_of_hash(crc64(key), capacity)


def candidates_of_hash(base: int, capacity: int) -> List[int]:
    """:func:`cuckoo_candidates` from the key's CRC64 ``base``, for a
    caller that already holds it (Pilaf's GET compares it too)."""
    seen: List[int] = []
    for seed in _WAY_SEEDS:
        index = _mix64(base ^ seed) % capacity
        # Degenerate collisions between ways: shift linearly so each key
        # always has three distinct candidates.
        while index in seen:
            index = (index + 1) % capacity
        seen.append(index)
    return seen


class CuckooHashTable(Generic[V]):
    """An in-memory 3-way cuckoo table mapping ``bytes`` keys to values.

    ``on_slot_update(slot_index, key, value_or_None)`` is invoked for
    every slot mutation, letting Pilaf mirror the logical table into its
    RNIC-registered index region byte for byte.
    """

    WAYS = 3

    def __init__(
        self,
        capacity: int,
        max_kicks: int = 128,
        seed: int = 0,
        on_slot_update=None,
    ) -> None:
        if capacity < self.WAYS:
            raise KVError(f"capacity must be >= {self.WAYS}, got {capacity}")
        self.capacity = capacity
        self.max_kicks = max_kicks
        self._slots: List[Optional[Tuple[bytes, V]]] = [None] * capacity
        self._count = 0
        self._rng = seeded_rng(seed)
        self._on_slot_update = on_slot_update
        self.kick_total = 0

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    def candidates(self, key: bytes) -> List[int]:
        """The three candidate slot indices for ``key``, probe order."""
        return cuckoo_candidates(key, self.capacity)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def lookup(self, key: bytes) -> Tuple[Optional[V], int]:
        """Return ``(value, probes)`` — probes counts candidate slots
        inspected, the quantity that becomes RDMA Reads in Pilaf."""
        probes = 0
        for index in self.candidates(key):
            probes += 1
            slot = self._slots[index]
            if slot is not None and slot[0] == key:
                return slot[1], probes
        return None, probes

    def slot_of(self, key: bytes) -> Optional[int]:
        for index in self.candidates(key):
            slot = self._slots[index]
            if slot is not None and slot[0] == key:
                return index
        return None

    def insert(self, key: bytes, value: V) -> None:
        """Insert or update; raises :class:`KVError` when kicks exhaust."""
        existing = self.slot_of(key)
        if existing is not None:
            self._set(existing, key, value)
            return
        carried_key, carried_value = key, value
        for _ in range(self.max_kicks + 1):
            indices = self.candidates(carried_key)
            for index in indices:
                if self._slots[index] is None:
                    self._set(index, carried_key, carried_value)
                    self._count += 1
                    return
            # All candidates full: evict a random resident to its own
            # alternate location.
            victim_index = int(indices[self._rng.integers(0, len(indices))])
            victim_key, victim_value = self._slots[victim_index]
            self._set(victim_index, carried_key, carried_value)
            carried_key, carried_value = victim_key, victim_value
            self.kick_total += 1
        raise KVError(
            f"cuckoo insertion failed after {self.max_kicks} kicks "
            f"(fill {self.load_factor():.2f})"
        )

    def delete(self, key: bytes) -> bool:
        index = self.slot_of(key)
        if index is None:
            return False
        self._clear(index)
        self._count -= 1
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: bytes) -> bool:
        return self.slot_of(key) is not None

    def load_factor(self) -> float:
        return self._count / self.capacity

    def slot(self, index: int) -> Optional[Tuple[bytes, V]]:
        return self._slots[index]

    def expected_probes(self, keys) -> float:
        """Mean candidate probes a lookup of each key would cost now."""
        total = 0
        for key in keys:
            _, probes = self.lookup(key)
            total += probes
        return total / max(1, len(keys))

    def _set(self, index: int, key: bytes, value: V) -> None:
        self._slots[index] = (key, value)
        if self._on_slot_update is not None:
            self._on_slot_update(index, key, value)

    def _clear(self, index: int) -> None:
        self._slots[index] = None
        if self._on_slot_update is not None:
            self._on_slot_update(index, None, None)
