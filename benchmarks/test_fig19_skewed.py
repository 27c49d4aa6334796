"""Fig. 19 — throughput vs GET percentage under Zipf(0.99) skew."""

from conftest import column


def test_fig19_skewed(regenerate):
    result = regenerate("fig19")
    jakiro = column(result, "jakiro_mops")
    reply = column(result, "serverreply_mops")
    memcached = column(result, "memcached_mops")

    # EREW partitioning tolerates the skew: Jakiro keeps its peak.
    assert min(jakiro) > 0.85 * max(jakiro)
    assert 4.7 <= max(jakiro) <= 6.1
    # ServerReply unchanged (still out-bound capped).
    assert 1.9 <= max(reply) <= 2.4
    # Memcached *benefits* from locality at 95% GET: close to the
    # out-bound ceiling (paper: ~2.1), far above its uniform 1.3.
    assert memcached[0] > 1.6
    # Jakiro still beats both under every mix.
    for j, r, m in zip(jakiro, reply, memcached):
        assert j > 1.5 * r
        assert j > 1.5 * m
