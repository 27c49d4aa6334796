"""Extension — §5: HERD-style UC/UD RPC vs the RC paradigms."""


def test_ud_rpc_tradeoffs(regenerate):
    result = regenerate("ext-ud-rpc")
    rows = {(row[0], row[1]): row for row in result.rows}
    rfp = rows[("rfp (RC)", 0.0)][2]
    reply = rows[("server-reply (RC)", 0.0)][2]
    herd_clean = rows[("herd (UC/UD)", 0.0)][2]
    herd_lossy = rows[("herd (UC/UD)", 0.05)][2]
    # The §5 ordering: UD replies beat RC server-reply, RFP beats both.
    assert herd_clean > 1.5 * reply
    assert rfp > 1.2 * herd_clean
    # Loss is not free: retransmit machinery costs measurable throughput.
    assert herd_lossy < herd_clean
    assert rows[("herd (UC/UD)", 0.05)][3] > 0  # retransmits happened
