"""Measurement library behind the experiments of :mod:`repro.exp`.

- :mod:`~repro.bench.harness` — closed-loop measurement machinery,
- :mod:`~repro.bench.systems` — uniform adapters over the KV systems
  (Jakiro, ServerReply, RDMA-Memcached, Pilaf, FaRM),
- :mod:`~repro.bench.calibration` — the §2.2 microbenchmarks (Figs. 3-5)
  and the hardware curves parameter selection consumes,
- :mod:`~repro.bench.breakdown` — per-phase latency of an RFP call,
- :mod:`~repro.bench.validation` — the calibration self-check,
- :mod:`~repro.bench.speed` — the engine-speed suite,
- :mod:`~repro.bench.report` / :mod:`~repro.bench.charts` — ASCII, CSV
  and bar-chart rendering of :class:`~repro.exp.tables.ExperimentResult`.

The experiments themselves are declared in :mod:`repro.exp.library`
and run by ``python -m repro.exp run <id>``.
"""

from repro.bench.harness import KvRunResult, Scale, run_controlled_process_time, run_kv

__all__ = [
    "KvRunResult",
    "Scale",
    "run_controlled_process_time",
    "run_kv",
]
