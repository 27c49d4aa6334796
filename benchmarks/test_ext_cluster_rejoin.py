"""Cluster layer — crash, recovery transfer, and ring rejoin (RF=2).

The runner audits the hard claims and raises on any breach (cutover
before the post window, pre-crash ring restored exactly, zero lost
acknowledged writes per final-ring replica, donors in-bound-only through
the transfer, post >= 95% of pre); the assertions here pin the
throughput envelope on top.
"""

from conftest import column


def test_cluster_rejoin(regenerate):
    result = regenerate("ext-cluster-rejoin")
    phases = column(result, "phase")
    fraction = column(result, "fraction_of_pre")
    lost = column(result, "lost_acked_writes")
    acked = column(result, "acked_keys")
    assert phases == ["pre", "dip", "outage", "rejoin", "post"]
    # The detection/takeover dip stays shallow...
    assert fraction[1] >= 0.6
    # ...the two-shard outage holds most of the throughput...
    assert fraction[2] >= 0.8
    # ...the transfer coexists with live load instead of stalling it...
    assert fraction[3] >= 0.8
    # ...and the restored three-shard cluster is within 5% of pre-crash.
    assert fraction[4] >= 0.95
    # Nothing acknowledged was lost anywhere in the cycle.
    assert lost == [0, 0, 0, 0, 0]
    assert acked[0] > 0
