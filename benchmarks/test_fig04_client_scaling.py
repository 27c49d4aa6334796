"""Fig. 4 — server in-bound IOPS vs number of client threads."""

from conftest import column


def test_fig4_client_scaling(regenerate):
    result = regenerate("fig4")
    clients = column(result, "client_threads")
    inbound = column(result, "inbound_mops")
    peak = max(inbound)
    peak_at = clients[inbound.index(peak)]
    # Peak ~11.26 MOPS reached in the 21-49 thread range.
    assert 10.3 <= peak <= 12.2
    assert 14 <= peak_at <= 49
    # Mild sag past the peak (client-side issuing contention), not a cliff.
    assert inbound[-1] < peak
    assert inbound[-1] > 0.6 * peak
    # Far too few clients cannot saturate the NIC.
    assert inbound[0] < 0.75 * peak
