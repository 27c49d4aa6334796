"""An RDMA rig whose every latency is an exact binary fraction.

Each NIC pipeline takes 0.25 us per op in both directions, propagation
is 0.5 us and a read's completion costs 0.5 us extra, so every verb's
timestamps are exact floats.  Same-instant collisions between verbs
completions, process timers and scheduled callbacks are then set up on
purpose rather than by rounding luck, which is the regime the engine's
dispatch-order tests need.

Unloaded, a read posted at ``t`` completes at ``t + 2.0`` and an RC
write at ``t + 1.5`` (its payload lands at ``t + 1.0``).
"""

from dataclasses import replace

from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.hw.specs import ClusterSpec, MachineSpec

#: Per-op pipeline occupancy, both directions, every payload size.
SERVICE_US = 0.25
#: Unloaded completion offsets of the one-sided verbs on this rig.
READ_US = 2.0
WRITE_US = 1.5


def exact_cluster(sim, machines=4):
    """A cluster of ``machines`` on ``sim`` with exact-binary latencies."""
    nic = replace(CLUSTER_EUROSYS17.machine.nic, read_extra_us=0.5)
    spec = ClusterSpec(
        machine=MachineSpec(nic=nic), machines=machines, switch_hop_us=0.25
    )
    cluster = build_cluster(sim, spec)
    for machine in cluster.machines:
        rnic = machine.rnic
        rnic.inbound_service_us = lambda size_bytes: SERVICE_US
        rnic.outbound_service_us = lambda size_bytes, kind="write": SERVICE_US
    return cluster
