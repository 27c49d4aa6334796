"""Fig. 3 — in-bound vs out-bound IOPS vs server threads (32 B)."""

from conftest import column


def test_fig3_asymmetry(regenerate):
    result = regenerate("fig3")
    outbound = column(result, "outbound_mops")
    inbound = column(result, "inbound_mops")
    # Out-bound saturates around ~2.1 MOPS by 4 threads: the curve must
    # rise monotonically to its peak, then never rise again (mild sag
    # from contention past saturation is allowed).
    peak = outbound.index(max(outbound))
    assert 0 < peak < len(outbound) - 1
    rising = zip(outbound[: peak + 1], outbound[1 : peak + 1])
    assert all(earlier < later for earlier, later in rising)
    saturated = zip(outbound[peak:], outbound[peak + 1 :])
    assert all(earlier >= later for earlier, later in saturated)
    assert 1.8 <= max(outbound) <= 2.4
    # In-bound peak ~11.26 MOPS: the ~5x asymmetry.
    assert 10.3 <= max(inbound) <= 12.2
    assert max(inbound) / max(outbound) > 4.0
    # One server thread cannot saturate the out-bound pipeline.
    assert outbound[0] < 0.75 * max(outbound)
