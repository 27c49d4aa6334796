"""Fig. 15 — client CPU utilization vs request process time."""

from conftest import column


def test_fig15_client_cpu(regenerate):
    result = regenerate("fig15")
    times = column(result, "process_time_us")
    cpu = column(result, "client_cpu_percent")
    in_reply = column(result, "clients_in_reply_mode")

    # Remote fetching spins: ~100% CPU at small process times.
    assert cpu[0] > 90.0
    # After the switch the client blocks: below 30% (the paper's bound).
    assert cpu[-1] < 30.0
    # The drop coincides with clients actually switching mode.
    assert in_reply[0] == 0
    assert in_reply[-1] > 30  # nearly all 35 clients switched
    # Utilization is monotone non-increasing with process time.
    assert all(a >= b - 1e-6 for a, b in zip(cpu, cpu[1:]))
