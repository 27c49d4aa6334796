"""Fig. 12 — Jakiro / ServerReply / RDMA-Memcached vs server threads."""

from conftest import column


def test_fig12_server_thread_scaling(regenerate):
    result = regenerate("fig12")
    threads = column(result, "server_threads")
    jakiro = column(result, "jakiro_mops")
    reply = column(result, "serverreply_mops")
    memcached = column(result, "memcached_mops")

    # Jakiro: ~5.5 MOPS from very few threads (networking offloaded).
    assert 4.9 <= max(jakiro) <= 6.1
    two_thread = jakiro[threads.index(2)]
    assert two_thread > 0.85 * max(jakiro)

    # ServerReply: peaks ~2.1 at 4-6 threads, then declines.
    assert 1.9 <= max(reply) <= 2.4
    assert reply[-1] < max(reply)

    # Memcached: CPU-bound, grows with threads up to 16, peaks ~1.3.
    assert memcached == sorted(memcached)
    assert 1.0 <= memcached[-1] <= 1.7

    # Headline factors at peak: ~160% over ServerReply, ~310% over
    # Memcached (allow generous slack on the fast scale).
    assert max(jakiro) > 2.2 * max(reply)
    assert max(jakiro) > 3.4 * max(memcached)
