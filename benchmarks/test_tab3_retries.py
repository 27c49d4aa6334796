"""Table 3 — remote-fetch retry counts under the four workloads."""

from conftest import column


def test_tab3_retry_distribution(regenerate):
    result = regenerate("tab3")
    slow_percent = column(result, "percent_N_gt_1")
    largest = column(result, "largest_N")
    # The overwhelming majority of fetches succeed on the first read:
    # N>1 stays in the sub-percent regime for every workload (paper:
    # 0.09-0.13%).
    for value in slow_percent:
        assert value < 2.0
    # There are *some* retries (the heavy-tail process times exist)...
    assert max(slow_percent) > 0.0
    # ...and the worst case is a handful of reads, not dozens (paper: 4-9).
    assert 1 <= max(largest) <= 15
