"""Regenerates ext-txn-structures: the twice-built queue's crossover.

The shape under test is Table 1 applied to a data structure: the
one-sided build starts at ~3 remote round-trips per op (FAA + payload
+ ready, header + CAS + slot) and *grows* as racing consumers lose CAS
claims, while the RFP-RPC build is pinned at exactly 1 request per op
at every contention level — so past the paper's ~2-3 round-trip
crossover the RPC queue wins throughput outright.  The transactional
side of every condition must come back spotless: zero torn key groups,
zero lost acked writes, zero aborts leaking effects.
"""

from conftest import column


def test_one_sided_queue_loses_past_the_crossover(regenerate):
    result = regenerate("ext-txn-structures")
    rows = {
        (structure, clients): (cost, mops, retries)
        for structure, clients, cost, mops, retries in zip(
            column(result, "structure"),
            column(result, "queue_clients"),
            column(result, "remote_ops_per_op"),
            column(result, "queue_mops"),
            column(result, "cas_retries"),
        )
    }
    counts = sorted({clients for _, clients in rows})
    assert len(counts) >= 3, "need a contention sweep to show a trend"

    # The RPC build's cost is structural: 1 request per op, flat (the
    # exact integer identity is enforced by run_ext_txn_structures).
    for clients in counts:
        cost, _, retries = rows[("rfp", clients)]
        assert abs(cost - 1.0) < 1e-9
        assert retries == 0

    # The one-sided build starts near its uncontended 3 verbs/op and
    # amplifies under contention (lost CAS races, header re-reads).
    costs = [rows[("one-sided", clients)][0] for clients in counts]
    assert 2.5 <= costs[0] <= 3.5, "uncontended cost should be ~3 verbs/op"
    assert costs == sorted(costs), f"amplification must not shrink: {costs}"
    assert costs[-1] > 3.0, "contention never pushed past the crossover"
    assert rows[("one-sided", counts[-1])][2] > 0, "no CAS race ever lost?"

    # Past the crossover the RPC queue wins outright — and by a margin
    # that grows with contention.
    ratios = [
        rows[("rfp", clients)][1] / rows[("one-sided", clients)][1]
        for clients in counts
    ]
    assert ratios[-1] > 1.5, f"RFP should win clearly at peak contention: {ratios}"
    assert ratios[-1] > ratios[0], f"RFP's edge should grow with contention: {ratios}"


def test_transactions_commit_cleanly_under_queue_load(regenerate):
    result = regenerate("ext-txn-structures")
    assert all(value == 0 for value in column(result, "torn_groups"))
    assert all(value == 0 for value in column(result, "lost_acked_writes"))
    assert all(value > 0 for value in column(result, "txn_committed"))
