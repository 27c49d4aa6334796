"""Fig. 14 — hybrid switch: throughput vs request process time."""

from conftest import column


def test_fig14_hybrid_switch(regenerate):
    result = regenerate("fig14")
    times = column(result, "process_time_us")
    jakiro = column(result, "jakiro_mops")
    reply = column(result, "serverreply_mops")
    no_switch = column(result, "jakiro_no_switch_mops")

    # Below the crossover Jakiro wins big (paper: 30-320%).
    assert jakiro[0] > 2.0 * reply[0]
    # At the largest process time the hybrid matches server-reply
    # (it *is* server-reply there after switching).
    assert abs(jakiro[-1] - reply[-1]) / reply[-1] < 0.15
    # Jakiro never loses to server-reply at any process time.
    for j, r in zip(jakiro, reply):
        assert j >= 0.95 * r
    # The no-switch ablation tracks the hybrid's throughput closely —
    # the switch is about client CPU (Fig. 15), not throughput.
    for j, n in zip(jakiro, no_switch):
        assert abs(j - n) / max(j, n) < 0.15
