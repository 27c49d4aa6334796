"""§3.2 — the parameter-selection procedure rediscovers the paper's
constants from the simulated hardware."""


def test_parameter_selection(regenerate):
    result = regenerate("params")
    values = {row[0]: row[1] for row in result.rows}
    # N = 5 (paper: 5 at the P ≈ 7 µs crossover; we land at 7-9 µs).
    assert 4 <= values["N (retry upper bound)"] <= 6
    assert 6.0 <= values["crossover process time (us)"] <= 10.0
    # The useful fetch range matches the paper's [256, 1024].
    assert values["L (bytes)"] == 256
    assert values["H (bytes)"] == 1024
    # 32-byte values select R=N, F=256 — exactly the paper's choice.
    assert values["chosen R, 32B values"] == values["N (retry upper bound)"]
    assert values["chosen F, 32B values"] == 256
