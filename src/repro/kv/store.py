"""Jakiro's in-memory key-value structure (§4.1).

The structure is an array of buckets, each holding eight slots so that a
bucket of 8-byte slot descriptors fills one cache line.  A full bucket
evicts its strictly least-recently-used slot (GETs refresh recency, like
Memcached).  The whole structure is partitioned across server threads in
EREW (Exclusive Read Exclusive Write): each thread owns a disjoint range
of the key space and only ever touches its own partition, so there is no
locking anywhere on the serving path.

:class:`StoreCostModel` converts each executed operation into the CPU
time the server thread is charged, including a configurable heavy-tail
jitter that reproduces the paper's "0.2% of requests have unexpectedly
long process time" (§3.2, Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import KVError, KeyTooLargeError, ValueTooLargeError
from repro.kv.crc import crc64
from repro.sim.monitor import Counter
from repro.sim.random import BlockDraws

__all__ = ["JakiroStore", "StoreCostModel", "partition_of", "key_hash"]

SLOTS_PER_BUCKET = 8


#: A stable 64-bit key hash (CRC64; deterministic across runs).  Benches
#: route every op's key through it (client-side partition pick +
#: server-side bucket pick) over a bounded working set, so it is the
#: content-memoized :func:`crc64` itself: one memo serves every hash.
key_hash = crc64


def partition_of(key: bytes, partitions: int) -> int:
    """EREW owner partition of ``key`` — shared by clients and server."""
    if partitions < 1:
        raise KVError(f"partitions must be >= 1, got {partitions}")
    return key_hash(key) % partitions


@dataclass
class _Slot:
    key: bytes
    value: bytes
    last_used: int


@dataclass
class StoreCostModel:
    """CPU time charged per executed store operation.

    ``base_us`` covers the hash + bucket walk, ``per_byte_us`` the value
    memcpy (default ≈ 16 GB/s), and with probability ``jitter_probability``
    an exponential tail of mean ``jitter_mean_us`` is added — occasional
    TLB misses / allocation stalls that give Table 3 its retry tail.
    """

    base_us: float = 0.10
    per_byte_us: float = 1.0 / 16384.0
    jitter_probability: float = 0.002
    jitter_mean_us: float = 4.0

    def __post_init__(self) -> None:
        if self.base_us < 0 or self.per_byte_us < 0:
            raise KVError(
                f"store costs must be >= 0, got base_us={self.base_us}, "
                f"per_byte_us={self.per_byte_us}"
            )
        if not 0.0 <= self.jitter_probability <= 1.0:
            raise KVError(
                f"jitter_probability must be in [0, 1], got {self.jitter_probability}"
            )
        if self.jitter_probability > 0 and self.jitter_mean_us <= 0:
            raise KVError(
                f"jitter_mean_us must be > 0 while jitter is on, got {self.jitter_mean_us}"
            )

    def cost(
        self,
        moved_bytes: int,
        rng: Optional[Union[np.random.Generator, BlockDraws]],
    ) -> float:
        cost = self.base_us + moved_bytes * self.per_byte_us
        if rng is not None and self.jitter_probability > 0:
            if rng.random() < self.jitter_probability:
                cost += float(rng.exponential(self.jitter_mean_us))
        return cost


@dataclass
class StoreCounters:
    gets: Counter = field(default_factory=lambda: Counter("gets"))
    hits: Counter = field(default_factory=lambda: Counter("hits"))
    misses: Counter = field(default_factory=lambda: Counter("misses"))
    puts: Counter = field(default_factory=lambda: Counter("puts"))
    updates: Counter = field(default_factory=lambda: Counter("updates"))
    evictions: Counter = field(default_factory=lambda: Counter("evictions"))


class JakiroStore:
    """The partitioned bucket/slot structure with strict per-bucket LRU."""

    def __init__(
        self,
        partitions: int,
        buckets_per_partition: int = 16384,
        max_key_bytes: int = 255,
        max_value_bytes: int = 16384,
        cost_model: Optional[StoreCostModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if partitions < 1:
            raise KVError(f"partitions must be >= 1, got {partitions}")
        if buckets_per_partition < 1:
            raise KVError("need at least one bucket per partition")
        self.partitions = partitions
        self.buckets_per_partition = buckets_per_partition
        self.max_key_bytes = max_key_bytes
        self.max_value_bytes = max_value_bytes
        self.cost_model = cost_model if cost_model is not None else StoreCostModel()
        # The store owns its generator, so the block buffer lives here:
        # one cost model may be shared by several stores.
        self._draws = BlockDraws(rng) if rng is not None else None
        self._clock = 0
        self._buckets: List[List[List[_Slot]]] = [
            [[] for _ in range(buckets_per_partition)] for _ in range(partitions)
        ]
        self.counters = StoreCounters()

    # ------------------------------------------------------------------
    # Operations: each returns (result, charged_cpu_us)
    # ------------------------------------------------------------------

    def get(self, partition: int, key: bytes) -> Tuple[Optional[bytes], float]:
        """Look up ``key`` in its EREW partition; LRU-refresh on hit."""
        bucket = self._bucket(partition, key)
        self.counters.gets.increment()
        self._clock += 1
        for slot in bucket:
            if slot.key == key:
                slot.last_used = self._clock
                self.counters.hits.increment()
                cost = self.cost_model.cost(len(slot.value), self._draws)
                return slot.value, cost
        self.counters.misses.increment()
        return None, self.cost_model.cost(0, self._draws)

    def put(self, partition: int, key: bytes, value: bytes) -> Tuple[bool, float]:
        """Insert or update; returns (evicted_something, cpu_us)."""
        if len(key) > self.max_key_bytes:
            raise KeyTooLargeError(f"key of {len(key)} B > {self.max_key_bytes} B")
        if len(value) > self.max_value_bytes:
            raise ValueTooLargeError(
                f"value of {len(value)} B > {self.max_value_bytes} B"
            )
        bucket = self._bucket(partition, key)
        self.counters.puts.increment()
        self._clock += 1
        cost = self.cost_model.cost(len(value), self._draws)
        for slot in bucket:
            if slot.key == key:
                slot.value = value
                slot.last_used = self._clock
                self.counters.updates.increment()
                return False, cost
        if len(bucket) >= SLOTS_PER_BUCKET:
            victim = min(range(len(bucket)), key=lambda i: bucket[i].last_used)
            bucket.pop(victim)
            self.counters.evictions.increment()
            evicted = True
        else:
            evicted = False
        bucket.append(_Slot(key=key, value=value, last_used=self._clock))
        return evicted, cost

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def size(self) -> int:
        """Total key-value pairs resident across all partitions."""
        return sum(
            len(bucket)
            for partition in self._buckets
            for bucket in partition
        )

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Every resident ``(key, value)`` pair, in deterministic
        (partition, bucket, slot) order — the enumeration the cluster's
        recovery coordinator streams from donor shards.  Charges no cost
        and does not touch LRU recency."""
        for partition in self._buckets:
            for bucket in partition:
                for slot in bucket:
                    yield slot.key, slot.value

    def clear(self) -> None:
        """Drop every resident pair (a cold restart loses host memory);
        counters survive, mirroring persistent monitoring."""
        for partition in self._buckets:
            for index in range(len(partition)):
                partition[index] = []

    def partition_sizes(self) -> Dict[int, int]:
        return {
            index: sum(len(bucket) for bucket in partition)
            for index, partition in enumerate(self._buckets)
        }

    def _bucket(self, partition: int, key: bytes) -> List[_Slot]:
        if not 0 <= partition < self.partitions:
            raise KVError(f"partition {partition} out of range")
        expected = partition_of(key, self.partitions)
        if partition != expected:
            raise KVError(
                f"EREW violation: key belongs to partition {expected}, "
                f"thread touched {partition}"
            )
        index = (key_hash(key) // self.partitions) % self.buckets_per_partition
        return self._buckets[partition][index]
