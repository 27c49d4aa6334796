"""Extension — §5: DrTM-style CAS-locked bypass vs Jakiro."""


def test_lock_bypass_amplification_and_contention(regenerate):
    result = regenerate("ext-lock-bypass")
    by_dist = {row[0]: row for row in result.rows}
    uniform = by_dist["uniform"]
    zipfian = by_dist["zipfian"]
    # Even uncontended, 3+ verbs per op keep the locked store well below
    # Jakiro.
    assert uniform[1] > 1.8 * uniform[2]
    # Skew murders the locked design (hot-key CAS storms)...
    assert zipfian[2] < 0.7 * uniform[2]
    assert zipfian[3] > 0.5  # real CAS retries per op
    # ...while EREW Jakiro does not care.
    assert zipfian[1] > 0.9 * uniform[1]
