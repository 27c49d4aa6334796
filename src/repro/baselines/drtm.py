"""A DrTM-style lock-based server-bypass store (§5).

DrTM (Wei et al., SOSP'15) coordinates one-sided access with "explicit
locks" (plus HTM on the server, which has no remote analogue): a client
takes a per-record spinlock with RDMA compare-and-swap, reads or writes
the record with one-sided verbs, and releases the lock with a write.
This baseline reproduces that access pattern — and the cost the paper's
§2.3/§5 charges it with: every logical operation is now 3+ one-sided
verbs, and lock contention on hot keys burns further CAS retries.

Layout: a direct-mapped slot table (linear probing for placement), each
slot ``lock u64 | used u8 | key_len u8 | value_len u16 | pad u32 |
key[kmax] | value[vmax]``.  GETs also take the lock — the simplest
correct protocol (no CRC machinery needed) and the one whose contention
behaviour §5 critiques.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.errors import KVError
from repro.hw.cluster import Cluster
from repro.hw.machine import Machine
from repro.sim.core import Simulator
from repro.sim.monitor import Counter, Tally

__all__ = ["DrtmServer", "DrtmClient"]

_SLOT_HEADER = struct.Struct("<QBBHI")  # lock, used, key_len, value_len, pad
_UNLOCKED = 0


@dataclass
class DrtmStats:
    gets: Counter = field(default_factory=lambda: Counter("gets"))
    puts: Counter = field(default_factory=lambda: Counter("puts"))
    rdma_ops: Counter = field(default_factory=lambda: Counter("rdma_ops"))
    cas_retries: Counter = field(default_factory=lambda: Counter("cas_retries"))
    latency_us: Tally = field(default_factory=lambda: Tally("latency_us"))

    def ops_per_request(self) -> float:
        requests = self.gets.value + self.puts.value
        return self.rdma_ops.value / requests if requests else 0.0


class DrtmServer:
    """Passive host: registers the slot table; its CPU serves nothing."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        machine: Optional[Machine] = None,
        capacity: int = 8192,
        max_key_bytes: int = 16,
        max_value_bytes: int = 64,
        name: str = "drtm",
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.machine = machine if machine is not None else cluster.server
        self.capacity = capacity
        self.max_key_bytes = max_key_bytes
        self.max_value_bytes = max_value_bytes
        self.slot_bytes = _pad8(
            _SLOT_HEADER.size + max_key_bytes + max_value_bytes
        )
        self.region = self.machine.register_memory(
            capacity * self.slot_bytes, name=f"{name}.table"
        )
        self._next_client = 0

    def slot_of(self, key: bytes) -> int:
        """The key's home slot (clients compute the same placement)."""
        from repro.kv.store import key_hash

        return key_hash(key) % self.capacity

    def preload(self, pairs) -> None:
        """Host-side population before clients arrive (lock-free)."""
        for key, value in pairs:
            slot = self._place(key)
            self.region.write_local(
                slot * self.slot_bytes, self._encode(key, value)
            )

    def _place(self, key: bytes) -> int:
        """Linear probing for a free or matching slot (host side only)."""
        start = self.slot_of(key)
        for step in range(self.capacity):
            slot = (start + step) % self.capacity
            raw = self.region.read_local(slot * self.slot_bytes, _SLOT_HEADER.size)
            _lock, used, key_len, _value_len, _pad = _SLOT_HEADER.unpack(raw)
            if not used:
                return slot
            offset = slot * self.slot_bytes + _SLOT_HEADER.size
            if self.region.read_local(offset, key_len) == key:
                return slot
        raise KVError("DrTM slot table full")

    def _encode(self, key: bytes, value: bytes) -> bytes:
        if len(key) > self.max_key_bytes:
            raise KVError(f"key of {len(key)} B > {self.max_key_bytes} B")
        if len(value) > self.max_value_bytes:
            raise KVError(f"value of {len(value)} B > {self.max_value_bytes} B")
        body = (
            _SLOT_HEADER.pack(_UNLOCKED, 1, len(key), len(value), 0)
            + key.ljust(self.max_key_bytes, b"\x00")
            + value.ljust(self.max_value_bytes, b"\x00")
        )
        return body.ljust(self.slot_bytes, b"\x00")

    def connect(self, machine: Machine, name: str = "") -> "DrtmClient":
        self._next_client += 1
        return DrtmClient(
            self.sim, machine, self, client_id=self._next_client, name=name
        )


def _pad8(n: int) -> int:
    return (n + 7) & ~7


class DrtmClient:
    """All logic lives here: CAS-lock, one-sided access, unlock."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        server: DrtmServer,
        client_id: int,
        post_cpu_us: float = 0.15,
        max_lock_attempts: int = 512,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.server = server
        self.client_id = client_id
        self.post_cpu_us = post_cpu_us
        self.max_lock_attempts = max_lock_attempts
        self.name = name or f"drtm-client{client_id}@{machine.name}"
        self.stats = DrtmStats()
        self.endpoint, _ = server.cluster.connect(machine, server.machine)
        self._landing = machine.register_memory(
            server.slot_bytes, name=f"{self.name}.landing"
        )
        machine.rnic.register_issuer()

    # ------------------------------------------------------------------
    # Lock protocol
    # ------------------------------------------------------------------

    def _lock_offset(self, slot: int) -> int:
        return slot * self.server.slot_bytes

    def _acquire(self, slot: int) -> Generator:
        for _attempt in range(self.max_lock_attempts):
            yield self.post_cpu_us
            original = yield self.endpoint.post_atomic_cas(
                self.server.region, self._lock_offset(slot), _UNLOCKED, self.client_id
            )
            self.stats.rdma_ops.increment()
            if original == _UNLOCKED:
                return None
            self.stats.cas_retries.increment()
        raise KVError(f"{self.name}: lock on slot {slot} livelocked")

    def _release(self, slot: int) -> Generator:
        yield self.post_cpu_us
        self._landing.write_local(0, _UNLOCKED.to_bytes(8, "little"))
        yield self.endpoint.post_write(
            self._landing, 0, self.server.region, self._lock_offset(slot), 8
        )
        self.stats.rdma_ops.increment()

    # ------------------------------------------------------------------
    # KV operations
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Generator:
        """Process body: locked one-sided GET; None when absent."""
        sim = self.sim
        began = sim.now
        server = self.server
        slot = server.slot_of(key)
        value = None
        for _probe in range(server.capacity):
            yield from self._acquire(slot)
            yield self.post_cpu_us
            yield self.endpoint.post_read(
                self._landing, 0, server.region, slot * server.slot_bytes,
                server.slot_bytes,
            )
            self.stats.rdma_ops.increment()
            _lock, used, key_len, value_len, _pad = _SLOT_HEADER.unpack_from(
                self._landing.read_local(0, _SLOT_HEADER.size)
            )
            slot_key = self._landing.read_local(_SLOT_HEADER.size, key_len)
            yield from self._release(slot)
            if not used:
                break  # empty slot terminates the probe chain
            if slot_key == key:
                value_start = _SLOT_HEADER.size + server.max_key_bytes
                value = self._landing.read_local(value_start, value_len)
                break
            slot = (slot + 1) % server.capacity  # placement collision
        self.stats.gets.increment()
        self.stats.latency_us.record(sim.now - began)
        return value

    def put(self, key: bytes, value: bytes) -> Generator:
        """Process body: locked one-sided PUT into the key's slot."""
        sim = self.sim
        began = sim.now
        server = self.server
        slot = server.slot_of(key)
        encoded = server._encode(key, value)
        for _probe in range(server.capacity):
            yield from self._acquire(slot)
            yield self.post_cpu_us
            yield self.endpoint.post_read(
                self._landing, 0, server.region, slot * server.slot_bytes,
                _SLOT_HEADER.size + server.max_key_bytes,
            )
            self.stats.rdma_ops.increment()
            _lock, used, key_len, _value_len, _pad = _SLOT_HEADER.unpack_from(
                self._landing.read_local(0, _SLOT_HEADER.size)
            )
            slot_key = self._landing.read_local(_SLOT_HEADER.size, key_len)
            if not used or slot_key == key:
                # Write the record body (everything after the lock word),
                # then unlock.  The lock word stays ours during the write.
                self._landing.write_local(0, encoded)
                yield self.post_cpu_us
                yield self.endpoint.post_write(
                    self._landing,
                    8,
                    server.region,
                    slot * server.slot_bytes + 8,
                    server.slot_bytes - 8,
                )
                self.stats.rdma_ops.increment()
                yield from self._release(slot)
                self.stats.puts.increment()
                self.stats.latency_us.record(sim.now - began)
                return None
            yield from self._release(slot)
            slot = (slot + 1) % server.capacity
        raise KVError("DrTM PUT found no slot")
