"""Fig. 5 — IOPS of both directions vs payload size."""

from conftest import column


def test_fig5_size_sweep(regenerate):
    result = regenerate("fig5")
    sizes = column(result, "size_bytes")
    inbound = dict(zip(sizes, column(result, "inbound_mops")))
    outbound = dict(zip(sizes, column(result, "outbound_mops")))
    # ~5x asymmetry at small payloads.
    assert inbound[32] / outbound[32] > 4.0
    # In-bound flat to ~256 B (the L bound of §3.2).
    assert inbound[256] > 0.93 * inbound[32]
    # Both monotone non-increasing in size.
    ordered = sorted(sizes)
    assert all(
        inbound[a] >= inbound[b] * 0.999 for a, b in zip(ordered, ordered[1:])
    )
    # Convergence above 2 KB: bandwidth dominates both directions.
    assert abs(inbound[2048] - outbound[2048]) / inbound[2048] < 0.35
    assert abs(inbound[4096] - outbound[4096]) / inbound[4096] < 0.15
