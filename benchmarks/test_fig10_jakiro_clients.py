"""Fig. 10 — Jakiro throughput vs number of client threads."""

from conftest import column


def test_fig10_jakiro_client_scaling(regenerate):
    result = regenerate("fig10")
    clients = column(result, "client_threads")
    mops = column(result, "jakiro_mops")
    peak = max(mops)
    # Peak ~5.5 MOPS (half the in-bound IOPS: ~2 in-bound ops per call).
    assert 4.9 <= peak <= 6.1
    # Reached by the 21-49 thread range.
    peak_at = clients[mops.index(peak)]
    assert peak_at <= 49
    # Slight decline at 70 threads, not a collapse.
    assert 0.85 * peak <= mops[-1] <= peak
    # 7 threads nowhere near saturation.
    assert mops[0] < 0.65 * peak
