"""Cluster layer — throughput through a single-shard crash (RF=2).

The runner itself audits the hard claims and raises on any breach
(zero lost acknowledged writes, exactly one failover, protocol and
NIC-silence invariants on every shard); the assertions here pin the
throughput envelope on top.
"""

from conftest import column


def test_cluster_failover(regenerate):
    result = regenerate("ext-cluster-failover")
    phases = column(result, "phase")
    fraction = column(result, "fraction_of_pre")
    lost = column(result, "lost_acked_writes")
    acked = column(result, "acked_keys")
    assert phases == ["pre", "dip", "post"]
    # Killing one of three shards mid-window keeps aggregate throughput
    # >= 60% of pre-failure during the detection/takeover dip...
    assert fraction[1] >= 0.6
    # ...and the rebalanced cluster recovers to >= 90% of pre-failure.
    assert fraction[2] >= 0.9
    # Primary-backup writes survive the crash: nothing acked was lost.
    assert lost == [0, 0, 0]
    assert acked[0] > 0
