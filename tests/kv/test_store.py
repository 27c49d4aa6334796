"""Unit tests for the Jakiro bucket/slot store."""

import numpy as np
import pytest

from repro.errors import KVError, KeyTooLargeError, ValueTooLargeError
from repro.kv import JakiroStore, StoreCostModel, partition_of
from repro.kv.store import SLOTS_PER_BUCKET, key_hash


def make_store(partitions=2, buckets=8, **kwargs):
    return JakiroStore(partitions, buckets_per_partition=buckets, **kwargs)


def owned_keys(store, partition, count, tag=b"k"):
    """Generate ``count`` distinct keys owned by ``partition``."""
    keys = []
    i = 0
    while len(keys) < count:
        key = tag + str(i).encode()
        if partition_of(key, store.partitions) == partition:
            keys.append(key)
        i += 1
    return keys


class TestBasicOperations:
    def test_put_then_get(self):
        store = make_store()
        key = owned_keys(store, 0, 1)[0]
        store.put(0, key, b"value")
        value, _cost = store.get(0, key)
        assert value == b"value"

    def test_get_missing_returns_none(self):
        store = make_store()
        key = owned_keys(store, 1, 1)[0]
        value, cost = store.get(1, key)
        assert value is None
        assert cost > 0
        assert store.counters.misses.value == 1

    def test_update_in_place(self):
        store = make_store()
        key = owned_keys(store, 0, 1)[0]
        store.put(0, key, b"old")
        store.put(0, key, b"new")
        assert store.get(0, key)[0] == b"new"
        assert store.counters.updates.value == 1
        assert store.size() == 1

    def test_erew_violation_rejected(self):
        """A thread touching another thread's partition is a bug."""
        store = make_store()
        key = owned_keys(store, 0, 1)[0]
        with pytest.raises(KVError):
            store.put(1, key, b"x")
        with pytest.raises(KVError):
            store.get(1, key)

    def test_partition_bounds_checked(self):
        store = make_store()
        with pytest.raises(KVError):
            store.get(5, b"k")

    def test_size_limits_enforced(self):
        store = make_store(max_key_bytes=8, max_value_bytes=16)
        key = owned_keys(store, 0, 1)[0]
        with pytest.raises(ValueTooLargeError):
            store.put(0, key, bytes(17))
        long_key = owned_keys(store, 0, 1, tag=b"verylongkey")[0]
        with pytest.raises(KeyTooLargeError):
            store.put(0, long_key, b"v")

    def test_cost_grows_with_value_size(self):
        store = make_store()
        key = owned_keys(store, 0, 1)[0]
        _, small_cost = store.put(0, key, bytes(32))
        _, big_cost = store.put(0, key, bytes(8192))
        assert big_cost > small_cost


class TestLruEviction:
    def fill_one_bucket(self, store):
        """Find SLOTS_PER_BUCKET+1 distinct keys hashing to one bucket."""
        buckets = {}
        i = 0
        while True:
            key = f"evict-{i}".encode()
            i += 1
            partition = partition_of(key, store.partitions)
            bucket = (key_hash(key) // store.partitions) % store.buckets_per_partition
            group = buckets.setdefault((partition, bucket), [])
            group.append(key)
            if len(group) == SLOTS_PER_BUCKET + 1:
                return partition, group

    def test_full_bucket_evicts_strict_lru(self):
        store = make_store(partitions=1, buckets=2)
        partition, keys = self.fill_one_bucket(store)
        for key in keys[:SLOTS_PER_BUCKET]:
            store.put(partition, key, b"v-" + key)
        # Touch everything except the intended victim, oldest first.
        victim = keys[0]
        for key in keys[1:SLOTS_PER_BUCKET]:
            store.get(partition, key)
        store.put(partition, keys[SLOTS_PER_BUCKET], b"newcomer")
        assert store.counters.evictions.value == 1
        assert store.get(partition, victim)[0] is None
        assert store.get(partition, keys[SLOTS_PER_BUCKET])[0] == b"newcomer"

    def test_get_refreshes_recency(self):
        store = make_store(partitions=1, buckets=2)
        partition, keys = self.fill_one_bucket(store)
        for key in keys[:SLOTS_PER_BUCKET]:
            store.put(partition, key, b"x")
        # Refresh the oldest; now keys[1] is the LRU victim.
        store.get(partition, keys[0])
        store.put(partition, keys[SLOTS_PER_BUCKET], b"new")
        assert store.get(partition, keys[0])[0] == b"x"
        assert store.get(partition, keys[1])[0] is None

    def test_bucket_never_exceeds_slot_count(self):
        store = make_store(partitions=1, buckets=1)
        for i in range(100):
            key = f"k{i}".encode()
            store.put(0, key, b"v")
        for bucket in store._buckets[0]:
            assert len(bucket) <= SLOTS_PER_BUCKET


class TestCostModel:
    def test_jitter_tail_frequency(self):
        """~0.2% of operations get the heavy tail (paper §4.4.2)."""
        model = StoreCostModel(jitter_probability=0.002, jitter_mean_us=4.0)
        rng = np.random.default_rng(7)
        costs = [model.cost(32, rng) for _ in range(50_000)]
        base = model.base_us + 32 * model.per_byte_us
        slow = sum(1 for c in costs if c > base + 1.0)
        assert 0.0005 < slow / len(costs) < 0.005

    def test_no_rng_means_deterministic(self):
        model = StoreCostModel()
        assert model.cost(100, None) == model.cost(100, None)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"base_us": -0.1}, "store costs must be >= 0"),
            ({"per_byte_us": -1e-6}, "store costs must be >= 0"),
            ({"jitter_probability": -0.01}, "jitter_probability must be in"),
            ({"jitter_probability": 1.5}, "jitter_probability must be in"),
            ({"jitter_mean_us": 0.0}, "jitter_mean_us must be > 0"),
            ({"jitter_mean_us": -4.0}, "jitter_mean_us must be > 0"),
        ],
    )
    def test_malformed_costs_rejected_at_construction(self, fields, message):
        with pytest.raises(KVError, match=message):
            StoreCostModel(**fields)

    def test_tail_mean_unchecked_while_jitter_is_off(self):
        StoreCostModel(jitter_probability=0.0, jitter_mean_us=0.0)


class TestPartitioning:
    def test_partition_of_is_stable(self):
        assert partition_of(b"abc", 6) == partition_of(b"abc", 6)

    def test_partition_of_spreads_keys(self):
        counts = [0] * 6
        for i in range(6000):
            counts[partition_of(f"key-{i}".encode(), 6)] += 1
        assert min(counts) > 700  # roughly uniform

    def test_partition_validation(self):
        with pytest.raises(KVError):
            partition_of(b"k", 0)

    def test_partition_sizes_accounting(self):
        store = make_store(partitions=3, buckets=64)
        for i in range(90):
            key = f"s{i}".encode()
            store.put(partition_of(key, 3), key, b"v")
        sizes = store.partition_sizes()
        assert sum(sizes.values()) == store.size() == 90
