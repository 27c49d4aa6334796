"""Ablation — remove the in/out-bound asymmetry and RFP's premise dies."""


def test_ablation_symmetric_nic(regenerate):
    result = regenerate("ablation-symmetric")
    by_nic = {row[0]: row for row in result.rows}
    asymmetric = next(v for k, v in by_nic.items() if "ConnectX" in k)
    symmetric = next(v for k, v in by_nic.items() if "symmetric" in k)
    # On the real NIC, remote fetching wins big...
    assert asymmetric[3] > 2.0
    # ...and on a symmetric NIC it buys nothing (here it even loses:
    # the client pays reads without any server-side windfall).
    assert symmetric[3] < 1.1
    # Server-reply itself is indifferent: its ceiling is the out-bound
    # pipeline either way.
    assert abs(symmetric[2] - asymmetric[2]) / asymmetric[2] < 0.10
