"""Cluster layer — aggregate throughput vs shard count (1 -> 6)."""

from conftest import column


def test_cluster_scaling(regenerate):
    result = regenerate("ext-cluster-scaling")
    shards = column(result, "shards")
    aggregate = column(result, "aggregate_mops")
    assert shards == [1, 3, 6]
    # One shard pins at the familiar ~5.5 MOPS per-NIC in-bound ceiling.
    assert 4.9 <= aggregate[0] <= 6.1
    # Three shards better than double it.
    assert aggregate[1] > 2.0 * aggregate[0]
    # Six shards do not regress, but the fixed 60-thread client
    # population is now the limit, not the server NICs: well short of a
    # linear 2x over three shards.
    assert aggregate[1] <= aggregate[2] < 1.5 * aggregate[1]
