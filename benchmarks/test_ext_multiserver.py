"""Extension — §4.5: aggregate throughput scales with server machines."""

from conftest import column


def test_multiserver_scaling(regenerate):
    result = regenerate("ext-multiserver")
    servers = column(result, "server_machines")
    aggregate = column(result, "aggregate_mops")
    assert servers == [1, 2, 3]
    # One server pins at the familiar ~5.5 MOPS in-bound ceiling.
    assert 4.9 <= aggregate[0] <= 6.1
    # Two servers nearly double it; three keep climbing until the fixed
    # client population becomes the limit.
    assert aggregate[1] > 1.7 * aggregate[0]
    assert aggregate[2] > aggregate[1]
