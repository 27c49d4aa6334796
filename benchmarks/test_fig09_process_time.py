"""Fig. 9 — repeated remote fetching vs server-reply vs process time."""

from conftest import column


def test_fig9_process_time(regenerate):
    result = regenerate("fig9")
    times = column(result, "process_time_us")
    fetch = column(result, "remote_fetch_mops")
    reply = column(result, "server_reply_mops")
    # Fetching dominates at small process times (>2x at P=1).
    assert fetch[0] > 2.0 * reply[0]
    # The gain shrinks below 10% somewhere in the paper's 7-10 us range.
    crossover = next(
        (t for t, f, r in zip(times, fetch, reply) if f <= 1.10 * r), None
    )
    assert crossover is not None
    assert 5 <= crossover <= 10
    # Server-reply starts at its out-bound ceiling (~2 MOPS).
    assert 1.7 <= reply[0] <= 2.3
    # Fetch throughput decays monotonically with process time.
    assert fetch == sorted(fetch, reverse=True)
