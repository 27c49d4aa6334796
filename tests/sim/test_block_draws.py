"""``BlockDraws`` hands out exactly the values scalar draws would.

Each test runs the buffered path beside the generator's own scalar
draws from the same seed and requires equal values, bit for bit, over
at least 10k draws: bare ``uniform``/``random``/``exponential`` streams,
a store cost model shared by two stores, and an RFP server's stub
jitter continuing across a halt and restart.
"""

import numpy as np
import pytest

from repro.core import RfpClient, RfpConfig, RfpServer
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv.store import JakiroStore, StoreCostModel, partition_of
from repro.sim import Simulator
import repro.sim.random as random_module
from repro.sim.random import BlockDraws, seeded_rng, stable_hash

DRAWS = 10_000


@pytest.fixture(params=[1, 7, 256])
def block_size(request, monkeypatch):
    """Run the test with small blocks too, so values cross many block
    boundaries and rewinds land at every offset."""
    monkeypatch.setattr(random_module, "_BLOCK_SIZE", request.param)
    return request.param


@pytest.mark.parametrize("high", [0.15, 1.0, 3.7, 1e-3])
def test_uniform_equals_scalar_uniform(high, block_size):
    scalar = seeded_rng(11)
    buffered = BlockDraws(seeded_rng(11))
    expected = [float(scalar.uniform(0.0, high)) for _ in range(DRAWS)]
    assert [buffered.uniform(high) for _ in range(DRAWS)] == expected


@pytest.mark.parametrize("tail_probability", [0.002, 0.05, 0.5])
def test_random_interleaved_with_exponential(tail_probability, block_size):
    """Every exponential rewinds into the block; both streams agree on
    every value and on where the generator ends up."""
    scalar = seeded_rng(3)
    rng = seeded_rng(3)
    buffered = BlockDraws(rng)
    choice = seeded_rng(99).random(DRAWS) < tail_probability
    for index, tail in enumerate(choice):
        if tail:
            expected = float(scalar.exponential(4.0))
            got = buffered.exponential(4.0)
        else:
            expected = float(scalar.random())
            got = buffered.random()
        assert got == expected, index
    assert buffered.exponential(1.0) == float(scalar.exponential(1.0))
    assert rng.bit_generator.state == scalar.bit_generator.state


def test_needs_a_rewindable_generator():
    with pytest.raises(TypeError, match="PCG64"):
        BlockDraws(np.random.Generator(np.random.MT19937(0)))


@pytest.mark.parametrize("jitter_probability", [0.002, 0.05])
def test_cost_model_shared_by_two_stores(jitter_probability):
    """One cost model, two stores with their own generators: each
    store's charges equal the scalar path over its own stream."""
    model = StoreCostModel(jitter_probability=jitter_probability)
    stores = [
        JakiroStore(2, buckets_per_partition=256, cost_model=model, rng=seeded_rng(seed))
        for seed in (1, 2)
    ]
    scalars = [seeded_rng(1), seeded_rng(2)]
    ops_rng = seeded_rng(5)
    written = [dict(), dict()]
    for _ in range(2 * DRAWS):
        which = int(ops_rng.integers(0, 2))
        store, scalar, values = stores[which], scalars[which], written[which]
        key = f"k{int(ops_rng.integers(0, 64))}".encode()
        partition = partition_of(key, 2)
        if key in values and ops_rng.random() < 0.5:
            value, cost = store.get(partition, key)
            assert value == values[key]
            moved = len(value)
        else:
            value = bytes(int(ops_rng.integers(1, 512)))
            _, cost = store.put(partition, key, value)
            values[key] = value
            moved = len(value)
        assert cost == model.cost(moved, scalar)


def test_server_jitter_continues_across_halt_and_restart():
    """The stub jitter stream is the server's: a request dropped by a
    halt still consumed its draw, and a respawned worker thread carries
    on from the next one."""
    config = RfpConfig()
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)

    def handler(payload, context):
        if payload == b"halt":
            server.halt()
        return payload, 0.0

    server = RfpServer(sim, cluster, cluster.server, handler, threads=1, config=config)
    first, second = (
        RfpClient(sim, machine, server, config)
        for machine in cluster.client_machines[:2]
    )

    def before_crash():
        for _ in range(3):
            yield from first.call(b"x")
        yield from first.client_send(b"halt")

    def after_restart():
        for _ in range(3):
            yield from second.call(b"y")

    sim.process(before_crash())
    sim.run()
    assert server.halted
    server.restart()
    sim.process(after_restart())
    sim.run()

    scalar = seeded_rng(stable_hash(server.name))
    draws = [float(scalar.uniform(0.0, config.server_sw_jitter_us)) for _ in range(7)]
    base = config.server_poll_cpu_us + config.server_sw_us
    # Draw 3 went to the dropped request.
    expected = [base + draw for draw in draws[:3] + draws[4:]]
    assert server.stats.response_time_us.samples == pytest.approx(expected, abs=1e-9)
