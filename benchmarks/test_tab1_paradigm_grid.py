"""Table 1 — the full design-choice grid, measured (incl. the
"meaningless" corner)."""


def test_tab1_paradigm_grid(regenerate):
    result = regenerate("tab1")
    mops = {row[0]: row[4] for row in result.rows}
    # RFP tops the grid.
    assert mops["RFP"] == max(mops.values())
    assert mops["RFP"] > 2.0 * mops["server-reply"]
    # Bypass sits between: it avoids the out-bound cap but pays
    # amplification.
    assert mops["server-reply"] < mops["server-bypass"] < mops["RFP"]
    # The meaningless corner buys nothing over plain server-reply.
    assert mops["meaningless"] <= 1.1 * mops["server-reply"]
