"""Fig. 18 — Jakiro throughput under different fetch sizes F."""

from conftest import column


def test_fig18_fetch_size(regenerate):
    result = regenerate("fig18")
    values = column(result, "value_bytes")
    by_fetch = {
        fetch: column(result, f"F={fetch}") for fetch in (256, 512, 640, 748, 1024)
    }
    by_value = {v: {f: by_fetch[f][i] for f in by_fetch} for i, v in enumerate(values)}

    # For tiny values the smallest F is optimal and bigger fetches only
    # waste pipeline time (the paper: "throughput for smaller value size
    # decreases slightly compared with smaller fetching size").
    tiny = by_value[32]
    assert tiny[256] >= 0.95 * max(tiny.values())
    assert tiny[1024] < tiny[256]
    # For 512 B values, F=256 needs a second read: F=640 clearly wins.
    mid = by_value[512]
    assert mid[640] > 1.10 * mid[256]
    # For values beyond every F (2048 B), all fetch sizes need two reads
    # and land close together.
    big = by_value[2048]
    assert max(big.values()) < 1.4 * min(big.values())
    # F=640 is a good all-round choice for values it covers in one read
    # (response = value + ~9 B of framing, so coverage ends near 624 B).
    for value in values:
        if isinstance(value, int) and value <= 512:
            best = max(by_value[value].values())
            assert by_value[value][640] >= 0.75 * best
