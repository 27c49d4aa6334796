"""Fig. 11 — Jakiro vs Pilaf, uniform 50% GET, 20 Gbps NICs."""

from conftest import column


def test_fig11_jakiro_vs_pilaf(regenerate):
    result = regenerate("fig11")
    jakiro = column(result, "jakiro_mops")
    pilaf = column(result, "pilaf_mops")
    # The paper's headline: ~4x across 32-256 B values.
    for j, p in zip(jakiro, pilaf):
        assert j > 2.5 * p
    # Pilaf lands near its measured 1.3 MOPS under 50% GET.
    assert 0.8 <= max(pilaf) <= 2.0
    # Jakiro stays in the ~4.5-5.5 MOPS band on the 20 Gbps cluster.
    assert max(jakiro) > 4.0
