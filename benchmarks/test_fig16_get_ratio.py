"""Fig. 16 — throughput vs GET percentage, uniform workload."""

from conftest import column


def test_fig16_get_ratio(regenerate):
    result = regenerate("fig16")
    jakiro = column(result, "jakiro_mops")
    reply = column(result, "serverreply_mops")
    memcached = column(result, "memcached_mops")

    # Jakiro holds its peak regardless of the GET/PUT mix.
    assert min(jakiro) > 0.9 * max(jakiro)
    assert 4.9 <= max(jakiro) <= 6.1
    # ServerReply pinned at its out-bound ceiling for every mix.
    assert min(reply) > 0.9 * max(reply)
    assert 1.9 <= max(reply) <= 2.4
    # Memcached degrades as writes grow (global-lock serialization).
    assert memcached == sorted(memcached, reverse=True)
    # The paper's 14x headline at 95% PUT (generous band).
    assert jakiro[-1] / memcached[-1] > 8.0
