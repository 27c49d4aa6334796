"""A FaRM-style lookup path (§5, Related Work).

FaRM's Hopscotch layout guarantees a key lives within ``N`` consecutive
slots of its home bucket, so a client fetches the *whole neighborhood* —
``N × (header + key + value + crc)`` bytes — with one oversized RDMA Read
and scans it locally.  The paper's critique, which this baseline
reproduces in the ``tab1``/related-work benches:

- a GET moves ``N*(Sk+Sv)`` bytes for one useful pair (bandwidth and
  in-bound pipeline time wasted on large transfers),
- latency is dominated by the big read (paper: 35 µs vs Jakiro's 5.78 µs
  average for 16 B keys / 32 B values at load),
- PUTs still use server-reply, inheriting the out-bound ceiling.

Slot layout: ``used u8 | key_len u8 | value_len u16 | pad u32 | key[kmax]
| value[vmax] | crc64 u64``; the CRC covers the header+key+value prefix
so torn slots (a racing PUT) are detected and retried, as in Pilaf.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple

from repro.core.config import RfpConfig
from repro.core.rpc import RpcClient, RpcServer
from repro.errors import KVError, ProtocolError
from repro.hw.cluster import Cluster
from repro.hw.machine import Machine
from repro.hw.memory import staged_write
from repro.kv.crc import crc64
from repro.kv.hopscotch import HopscotchTable
from repro.kv.serialization import (
    PUT_FUNCTION,
    STATUS_OK,
    pack_put_request,
    unpack_put_request,
)
from repro.paradigms.server_reply import ServerReplyClient, ServerReplyServer
from repro.sim.core import Simulator
from repro.sim.monitor import Counter, Tally

__all__ = ["FarmServer", "FarmClient"]

_SLOT_HEADER = struct.Struct("<BBHI")
_CRC = struct.Struct("<Q")


@dataclass
class FarmStats:
    gets: Counter = field(default_factory=lambda: Counter("gets"))
    puts: Counter = field(default_factory=lambda: Counter("puts"))
    rdma_reads: Counter = field(default_factory=lambda: Counter("rdma_reads"))
    bytes_fetched: Counter = field(default_factory=lambda: Counter("bytes_fetched"))
    checksum_retries: Counter = field(default_factory=lambda: Counter("crc_retries"))
    get_latency_us: Tally = field(default_factory=lambda: Tally("get_latency_us"))

    def bytes_per_get(self) -> float:
        if self.gets.value == 0:
            return 0.0
        return self.bytes_fetched.value / self.gets.value


class FarmServer:
    """Hopscotch table mirrored into registered memory; PUTs via RPC."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        machine: Optional[Machine] = None,
        capacity: int = 8192,
        neighborhood: int = 8,
        max_key_bytes: int = 16,
        max_value_bytes: int = 64,
        threads: int = 4,
        put_write_us: float = 0.25,
        config: Optional[RfpConfig] = None,
        name: str = "farm",
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.machine = machine if machine is not None else cluster.server
        self.max_key_bytes = max_key_bytes
        self.max_value_bytes = max_value_bytes
        self.put_write_us = put_write_us
        self.slot_bytes = (
            _SLOT_HEADER.size + max_key_bytes + max_value_bytes + _CRC.size
        )
        self.table: HopscotchTable = HopscotchTable(
            capacity, neighborhood, on_slot_update=self._mirror_slot
        )
        self.region = self.machine.register_memory(
            capacity * self.slot_bytes, name=f"{name}.table"
        )
        self._staged = False
        rpc = RpcServer()
        rpc.register(PUT_FUNCTION, self._handle_put)
        self.rpc_server = ServerReplyServer(
            sim, cluster, self.machine, rpc.handle, threads, config, name=f"{name}.rpc"
        )

    def _encode_slot(self, key: bytes, value: bytes) -> bytes:
        body = (
            _SLOT_HEADER.pack(1, len(key), len(value), 0)
            + key.ljust(self.max_key_bytes, b"\x00")
            + value.ljust(self.max_value_bytes, b"\x00")
        )
        return body + _CRC.pack(crc64(body))

    def _mirror_slot(self, index: int, key, value) -> None:
        offset = index * self.slot_bytes
        if key is None:
            self.region.write_local(offset, bytes(self.slot_bytes))
            return
        encoded = self._encode_slot(key, value)
        if self._staged:
            self.sim.process(
                staged_write(self.sim, self.region, offset, encoded, self.put_write_us),
                name="farm.slot-write",
            )
        else:
            self.region.write_local(offset, encoded)

    def _handle_put(self, arguments: bytes, context) -> Tuple[int, bytes, float]:
        key, value = unpack_put_request(arguments)
        if len(key) > self.max_key_bytes or len(value) > self.max_value_bytes:
            raise KVError("key/value exceed the fixed FaRM slot geometry")
        self._staged = True
        try:
            self.table.insert(key, value)
        finally:
            self._staged = False
        return STATUS_OK, b"", self.put_write_us + 0.20

    def preload(self, pairs) -> None:
        for key, value in pairs:
            self.table.insert(key, value)

    def connect(self, machine: Machine, name: str = "") -> "FarmClient":
        return FarmClient(self.sim, machine, self, name=name)


class FarmClient:
    """One-sided neighborhood GETs, server-reply PUTs."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        server: FarmServer,
        post_cpu_us: float = 0.15,
        max_retries: int = 64,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.server = server
        self.post_cpu_us = post_cpu_us
        self.max_retries = max_retries
        self.name = name or f"farm-client@{machine.name}"
        self.stats = FarmStats()
        self.endpoint, _ = server.cluster.connect(machine, server.machine)
        self._landing = machine.register_memory(
            server.table.neighborhood * server.slot_bytes, name=f"{self.name}.landing"
        )
        self._rpc = RpcClient(
            ServerReplyClient(
                sim,
                machine,
                server.rpc_server,
                name=f"{self.name}.rpc",
                register_issuer=False,
            )
        )
        machine.rnic.register_issuer()

    def get(self, key: bytes) -> Generator:
        """Process body: fetch the key's whole neighborhood, scan locally."""
        sim = self.sim
        start = sim.now
        server = self.server
        self.stats.gets.increment()
        slots = server.table.neighborhood_slots(key)
        runs = self._contiguous_runs(slots)
        for _attempt in range(self.max_retries):
            landed = 0
            for first_slot, count in runs:
                yield self.post_cpu_us
                length = count * server.slot_bytes
                yield self.endpoint.post_read(
                    self._landing,
                    landed,
                    server.region,
                    first_slot * server.slot_bytes,
                    length,
                )
                self.stats.rdma_reads.increment()
                self.stats.bytes_fetched.increment(length)
                landed += length
            result = self._scan(key, len(slots))
            if result is not None:
                found, value = result
                self.stats.get_latency_us.record(sim.now - start)
                return value if found else None
            self.stats.checksum_retries.increment()
        raise KVError(f"FaRM GET of {key!r} kept racing writers")

    def _contiguous_runs(self, slots: List[int]) -> List[Tuple[int, int]]:
        """Coalesce the neighborhood into contiguous reads (the wrap at
        the table end needs a second read)."""
        runs: List[Tuple[int, int]] = []
        start = slots[0]
        length = 1
        for previous, current in zip(slots, slots[1:]):
            if current == previous + 1:
                length += 1
            else:
                runs.append((start, length))
                start, length = current, 1
        runs.append((start, length))
        return runs

    def _scan(self, key: bytes, slot_count: int):
        """Scan fetched slots; None => torn slot, retry the fetch."""
        server = self.server
        for index in range(slot_count):
            raw = self._landing.read_local(
                index * server.slot_bytes, server.slot_bytes
            )
            used, key_len, value_len, _pad = _SLOT_HEADER.unpack_from(raw)
            if not used:
                continue
            body, (crc,) = raw[: -_CRC.size], _CRC.unpack(raw[-_CRC.size :])
            if crc != crc64(body):
                return None  # torn slot: refetch the neighborhood
            slot_key = raw[_SLOT_HEADER.size : _SLOT_HEADER.size + key_len]
            if slot_key == key:
                value_start = _SLOT_HEADER.size + server.max_key_bytes
                return True, raw[value_start : value_start + value_len]
        return False, None

    def put(self, key: bytes, value: bytes) -> Generator:
        """Process body: PUT via the server-reply channel."""
        status, _ = yield from self._rpc.call(
            PUT_FUNCTION, pack_put_request(key, value)
        )
        if status != STATUS_OK:
            raise ProtocolError(f"FaRM PUT failed with status {status}")
        self.stats.puts.increment()
        return None
