"""Fig. 17 — throughput vs value size (uniform, 95% GET, F=640)."""

from conftest import column


def test_fig17_value_size(regenerate):
    result = regenerate("fig17")
    sizes = column(result, "value_bytes")
    jakiro = column(result, "jakiro_mops")
    reply = column(result, "serverreply_mops")
    memcached = column(result, "memcached_mops")
    fixed = {
        s: (j, r, m)
        for s, j, r, m in zip(sizes, jakiro, reply, memcached)
        if isinstance(s, int)
    }

    # Jakiro wins decisively for small and medium values.
    for size in (32, 512):
        if size in fixed:
            j, r, m = fixed[size]
            assert j > 1.5 * r
            assert j > 1.5 * m
    # The edge narrows but persists through 1-2 KB (the paper's 60% end
    # of the 60-280% band).
    for size in (1024, 2048):
        if size in fixed:
            j, r, m = fixed[size]
            assert j > 1.1 * r
    # At 4 KB+ bandwidth levels the field (paper: comparable at 4096).
    j4, r4, m4 = fixed[4096]
    assert 0.5 * j4 < r4 < 2.0 * j4
    assert 0.5 * j4 < m4 < 2.0 * j4
    # The mixed 32B-8KB row: with a byte-uniform mix the 40 Gbps link is
    # the binding constraint for every system, so Jakiro only ties here
    # (the paper's 3.58 MOPS exceeds the link's byte budget for this mix;
    # see EXPERIMENTS.md).
    mixed = result.rows[-1]
    assert mixed[0] == "32-8192 mix"
    assert mixed[1] > 0.8 * mixed[2]
    assert mixed[1] > 0.8 * mixed[3]
