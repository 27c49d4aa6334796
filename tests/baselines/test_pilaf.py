"""Tests for the Pilaf server-bypass baseline."""

import struct

import pytest

from repro.baselines import PilafClient, PilafServer
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv import crc
from repro.kv.crc import crc64
from repro.kv.cuckoo import cuckoo_candidates
from repro.sim import Simulator


def make_pilaf(capacity=2048, **kwargs):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    server = PilafServer(sim, cluster, capacity=capacity, **kwargs)
    return sim, cluster, server


class TestPilafSemantics:
    def test_put_then_get(self):
        sim, cluster, server = make_pilaf()
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            yield from client.put(b"user:7", b"heroes")
            return (yield from client.get(b"user:7"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == b"heroes"

    def test_get_missing_returns_none(self):
        sim, cluster, server = make_pilaf()
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            return (yield from client.get(b"absent"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value is None

    def test_update_value(self):
        sim, cluster, server = make_pilaf()
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            yield from client.put(b"k", b"old-value")
            yield from client.put(b"k", b"new")
            yield sim.timeout(5.0)  # let the staged data write settle
            return (yield from client.get(b"k"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == b"new"

    def test_preload_visible_to_one_sided_gets(self):
        sim, cluster, server = make_pilaf()
        server.preload((f"key-{i}".encode(), f"val-{i}".encode()) for i in range(500))
        client = server.connect(cluster.client_machines[1])

        def body(sim):
            return (yield from client.get(b"key-123"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == b"val-123"

    def test_gets_do_not_touch_server_cpu(self):
        """The essence of server-bypass: GET consumes zero server threads."""
        sim, cluster, server = make_pilaf()
        server.preload([(b"k", b"v")])
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            for _ in range(20):
                yield from client.get(b"k")

        sim.process(body(sim))
        sim.run()
        assert server.rpc_server.stats.requests.value == 0
        assert client.stats.gets.value == 20


class TestBypassAccessAmplification:
    def test_reads_per_get_matches_pilaf_ballpark(self):
        """Paper: ~3.2 RDMA reads per GET at 75% fill (probes + data)."""
        sim, cluster, server = make_pilaf(capacity=4096)
        keys = [f"key-{i}".encode() for i in range(int(4096 * 0.75))]
        server.preload((k, b"x" * 32) for k in keys)
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            for key in keys[::13]:
                yield from client.get(key)

        sim.process(body(sim))
        sim.run()
        assert 2.2 < client.stats.reads_per_get() < 4.0

    def test_amplification_grows_with_fill(self):
        def mean_reads(fill):
            sim, cluster, server = make_pilaf(capacity=4096)
            keys = [f"key-{i}".encode() for i in range(int(4096 * fill))]
            server.preload((k, b"x" * 32) for k in keys)
            client = server.connect(cluster.client_machines[0])

            def body(sim):
                for key in keys[:: max(1, len(keys) // 200)]:
                    yield from client.get(key)

            sim.process(body(sim))
            sim.run()
            return client.stats.reads_per_get()

        assert mean_reads(0.75) > mean_reads(0.20)


class TestCrcRaceDetection:
    def test_get_racing_put_retries_and_returns_consistent_value(self):
        """A GET overlapping a PUT must never return torn bytes."""
        sim, cluster, server = make_pilaf(put_write_us=3.0)
        server.preload([(b"hot", b"A" * 64)])
        client = server.connect(cluster.client_machines[0])
        writer = server.connect(cluster.client_machines[1])
        observed = []

        def reader(sim):
            for _ in range(300):
                value = yield from client.get(b"hot")
                observed.append(value)

        def writer_loop(sim):
            toggle = False
            for _ in range(60):
                toggle = not toggle
                payload = (b"B" if toggle else b"A") * 64
                yield from writer.put(b"hot", payload)

        sim.process(reader(sim))
        sim.process(writer_loop(sim))
        sim.run()
        assert observed, "reader made no progress"
        for value in observed:
            assert value in (b"A" * 64, b"B" * 64), "torn read escaped the CRC"

    def test_checksum_retries_observed_under_contention(self):
        sim, cluster, server = make_pilaf(put_write_us=3.0)
        server.preload([(b"hot", b"A" * 64)])
        client = server.connect(cluster.client_machines[0])
        writer = server.connect(cluster.client_machines[1])

        def reader(sim):
            for _ in range(400):
                yield from client.get(b"hot")

        def writer_loop(sim):
            for i in range(80):
                yield from writer.put(b"hot", bytes([i & 0xFF]) * 64)

        sim.process(reader(sim))
        sim.process(writer_loop(sim))
        sim.run()
        assert client.stats.checksum_retries.value > 0


def _crc_collider(key):
    """A different key of the same length with the same CRC64.

    CRC64 is affine over GF(2) for a fixed input length, so
    ``crc(key ^ d) == crc(key)`` for any non-zero ``d`` in the kernel of
    its linear part; Gaussian elimination over the per-bit images finds
    one."""
    length = len(key)
    zero_crc = crc64(bytes(length))
    pivots = {}
    for bit in range(8 * length):
        image = crc64((1 << bit).to_bytes(length, "little")) ^ zero_crc
        combination = 1 << bit
        while image:
            top = image.bit_length() - 1
            if top not in pivots:
                pivots[top] = (image, combination)
                break
            pivot_image, pivot_combination = pivots[top]
            image ^= pivot_image
            combination ^= pivot_combination
        else:
            delta = combination.to_bytes(length, "little")
            return bytes(a ^ b for a, b in zip(key, delta))
    raise AssertionError("no CRC64 kernel vector found")


class TestKeyHashCollision:
    def test_get_probes_past_a_colliding_key(self):
        """Cuckoo candidates and the entry hash both derive from
        crc64(key): a key whose CRC64 equals an earlier key's must still
        be readable, and a colliding absent key must still miss."""
        key = b"user000000000042"
        collider = _crc_collider(key)
        assert collider != key and crc64(collider) == crc64(key)
        assert cuckoo_candidates(collider, 2048) == cuckoo_candidates(key, 2048)
        sim, cluster, server = make_pilaf()
        server.preload([(collider, b"collider-value"), (key, b"key-value")])
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            found = yield from client.get(key)
            reads = client.stats.rdma_reads.value
            other = yield from client.get(collider)
            return found, reads, other

        proc = sim.process(body(sim))
        sim.run()
        found, reads, other = proc.value
        assert (found, other) == (b"key-value", b"collider-value")
        # At most one index read per candidate and one record read per
        # hash match: no re-probing from the first candidate.
        assert reads <= 3 + 2

    def test_colliding_absent_key_misses(self):
        key = b"user000000000042"
        collider = _crc_collider(key)
        sim, cluster, server = make_pilaf()
        server.preload([(collider, b"collider-value")])
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            return (yield from client.get(key))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value is None


class TestTornReadWithWarmMemo:
    def test_torn_record_is_rejected_with_both_versions_memoized(self):
        """Half new record, half old record: the CRC check still fails
        while both whole records' CRCs sit in the memo, and the GET
        retries until the record is whole again."""
        old, new = b"A" * 32, b"B" * 32
        sim, cluster, server = make_pilaf()
        server.preload([(b"hot", old)])
        old_record = b"hot" + old + struct.pack("<Q", crc64(b"hot" + old))
        new_record = b"hot" + new + struct.pack("<Q", crc64(b"hot" + new))
        assert b"hot" + old in crc._MEMO and b"hot" + new in crc._MEMO
        half = len(new_record) // 2
        torn = new_record[:half] + old_record[half:]
        assert crc64(torn[:-8]) != struct.unpack("<Q", torn[-8:])[0]
        _value_len, data_slot = server.table.lookup(b"hot")[0]
        offset = data_slot * server.record_slot_bytes
        server.data_region.write_local(offset, torn)
        client = server.connect(cluster.client_machines[0])

        def repair(sim):
            yield 20.0
            server.data_region.write_local(offset, new_record)

        def body(sim):
            return (yield from client.get(b"hot"))

        sim.process(repair(sim))
        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == new
        assert client.stats.checksum_retries.value >= 1
