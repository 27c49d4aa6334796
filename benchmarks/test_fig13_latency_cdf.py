"""Fig. 13 — latency CDF of the three systems at peak load (uniform)."""

from conftest import column


def test_fig13_latency_cdf(regenerate):
    result = regenerate("fig13")
    mean_row = result.rows[-1]
    assert mean_row[0] == "mean"
    _, jakiro_mean, reply_mean, memcached_mean = mean_row
    # Ordering: Jakiro < ServerReply < Memcached (paper: 5.78/12.06/14.76).
    assert jakiro_mean < reply_mean < memcached_mean
    # Jakiro mean in the paper's ballpark and ~2x better than ServerReply.
    assert 4.5 <= jakiro_mean <= 8.5
    assert reply_mean > 1.7 * jakiro_mean
    # Jakiro's 99th percentile stays close to its median (short tail).
    p99 = dict(zip(column(result, "percentile"), column(result, "jakiro_us")))[99]
    p50 = dict(zip(column(result, "percentile"), column(result, "jakiro_us")))[50]
    assert p99 < 1.5 * p50
