"""Fig. 6 — server-bypass throughput vs RDMA operations per request."""

from conftest import column


def test_fig6_amplification(regenerate):
    result = regenerate("fig6")
    ops = column(result, "rdma_ops_per_request")
    throughput = column(result, "throughput_mops")
    inbound = column(result, "inbound_iops_mops")
    # Throughput collapses roughly as 1/k.
    assert throughput == sorted(throughput, reverse=True)
    ratio = throughput[0] / throughput[-1]
    assert ratio > 0.5 * (ops[-1] / ops[0])
    # Heavy amplification sinks below 1 MOPS (the paper's observation).
    assert throughput[-1] < 1.0
    # The NIC itself stays saturated: the requests get slower, not the NIC.
    assert min(inbound) > 0.8 * max(inbound)
    assert max(inbound) > 9.0
