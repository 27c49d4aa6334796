#!/usr/bin/env python3
"""Reproduce the §3.2 parameter-selection procedure end to end.

1. measure the IOPS-vs-size curve of the NIC (the Fig. 5 benchmark),
2. derive the useful fetch range [L, H] from it,
3. measure the Fig. 9 throughput-vs-process-time crossover and derive
   the retry bound N,
4. enumerate (R, F) candidates against sampled result sizes (Eq. 2).

The paper's testbed lands on N=5, L=256, H=1024, and (R=5, F=256) for
32-byte values — this run re-derives all of them from the simulator.

Run:  python examples/parameter_tuning.py
"""

from repro.bench.calibration import (
    inbound_iops_curve,
    measured_fetch_round_trip_us,
    model_inbound_iops,
)
from repro.bench.harness import Scale
from repro.core import ResultSampler, derive_retry_bound, derive_size_bounds
from repro.core.params import select_parameters
from repro.exp.library import SPECS
from repro.exp.tables import run_table
from repro.workloads import UniformValues, WorkloadSpec, YcsbWorkload


def main() -> None:
    scale = Scale.fast()

    print("1) IOPS-vs-size sweep (Fig. 5 microbenchmark):")
    sizes = [32, 64, 128, 192, 256, 384, 512, 640, 768, 1024, 2048, 4096]
    curve = inbound_iops_curve(sizes, window_us=1500.0)
    for size, mops in curve:
        print(f"   {size:5d} B  {mops:6.2f} MOPS")
    lower, upper = derive_size_bounds([s for s, _ in curve], [m for _, m in curve])
    print(f"   => useful fetch range [L, H] = [{lower}, {upper}]  (paper: [256, 1024])")

    print("\n2) Remote fetching vs server-reply (Fig. 9 microbenchmark)...")
    fig9 = run_table(SPECS["fig9"], scale)
    round_trip = measured_fetch_round_trip_us()
    retry_bound, crossover = derive_retry_bound(
        [row[0] for row in fig9.rows],
        [row[1] for row in fig9.rows],
        [row[2] for row in fig9.rows],
        fetch_round_trip_us=round_trip,
    )
    print(f"   crossover at P ≈ {crossover} us, fetch RTT {round_trip:.2f} us")
    print(f"   => retry upper bound N = {retry_bound}  (paper: 5)")

    print("\n3) Pre-run sampling of result sizes (32-byte-value workload):")
    sampler = ResultSampler(seed=7)
    workload = YcsbWorkload(WorkloadSpec(records=1024))
    sampler.observe_many(size + 9 for size in workload.result_sizes(2000))
    print(f"   sampled {sampler.seen} results, p50 = {sampler.percentile(50):.0f} B")

    choice = select_parameters(
        sampler.sizes(), model_inbound_iops(), retry_bound, lower, upper
    )
    print(f"   => chosen (R, F) = ({choice.retry_bound}, {choice.fetch_size})"
          "  (paper: R=5, F=256)")

    print("\n4) Same procedure for the mixed 32B-8KB workload:")
    mixed = YcsbWorkload(WorkloadSpec(records=1024, value_sizes=UniformValues()))
    mixed_sampler = ResultSampler(seed=8)
    mixed_sampler.observe_many(size + 9 for size in mixed.result_sizes(2000))
    mixed_choice = select_parameters(
        mixed_sampler.sizes(), model_inbound_iops(), retry_bound, lower, upper
    )
    print(f"   => chosen (R, F) = ({mixed_choice.retry_bound}, "
          f"{mixed_choice.fetch_size})")
    print("   (the paper quotes F=640 here; Eq. 2 as published favours the\n"
          "    smaller F — see EXPERIMENTS.md for the discussion)")


if __name__ == "__main__":
    main()
