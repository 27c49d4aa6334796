"""Fig. 20 — latency CDF under the skewed read-intensive workload."""


def test_fig20_skewed_latency_cdf(regenerate):
    result = regenerate("fig20")
    mean_row = result.rows[-1]
    assert mean_row[0] == "mean"
    _, jakiro_mean, reply_mean, memcached_mean = mean_row
    # Jakiro performs best in average latency under skew too (§4.4.3).
    assert jakiro_mean < reply_mean
    assert jakiro_mean < memcached_mean
    assert 4.5 <= jakiro_mean <= 9.0
