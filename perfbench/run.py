"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rfp-get --seed 1 --seconds 10 --trace 0

One process, one thread.  The run repeats whole episodes (build the
workload from the seed, run its simulated window, check the outputs)
until ``--seconds`` of host time are used, and reports medians.

- ``--trace 0`` prints the end-to-end metrics.
- ``--trace 1`` alternates untraced and traced episodes and prints the
  per-layer metrics: counts from the program's own counters, self times
  from spans recorded around each layer's entry points (see
  :mod:`perfbench.spans`), which are written to ``.perfbench_out/``.

Every episode must reproduce the first one's deterministic numbers
exactly, traced or not.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every check passed, 1 when a check failed, and 2 when the
program under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Untraced episodes per run at least (medians need three); a traced
#: run needs one untraced/traced pair.
MIN_EPISODES = 3

#: rfp-get reference points from the paper (§4.2), printed beside the
#: model's figures; reported only, never gated.
PAPER_REFERENCE = (
    "paper: Fig. 10 Jakiro 5.5 MOPS at 35 client threads; "
    "Fig. 13 mean latency 5.78 us, p99 < 7 us"
)


def _parse(argv):
    from perfbench.catalog import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure(workload: str, seed: int, seconds: float, traced: bool):
    """Run episodes until ``seconds`` are used; returns the untraced and
    traced episodes, a layer report per traced episode, and the last
    traced episode's span recorder."""
    from perfbench.calibrate import ReferenceKernel
    from perfbench.scenarios import run_episode
    from perfbench.spans import SpanRecorder, layer_report

    kernel = ReferenceKernel()
    plain, spanned, reports = [], [], []
    recorder = None
    began = perf_counter()
    while True:
        plain.append(run_episode(workload, seed, kernel))
        # A finished episode leaves reference cycles (simulator, processes,
        # generators).  Collecting them here keeps the collector out of the
        # next episode's timed set-up and keeps one episode's footprint in
        # the peak memory.
        gc.collect()
        if traced:
            recorder = SpanRecorder()
            with recorder:
                spanned.append(run_episode(workload, seed, kernel))
            reports.append(layer_report(recorder.names, recorder.arrays()))
            gc.collect()
        rounds = len(plain)
        elapsed = perf_counter() - began
        enough = traced or rounds >= MIN_EPISODES
        if enough and elapsed * (rounds + 1) / rounds > seconds:
            break
    return plain, spanned, reports, recorder


def _determinism_failures(episodes) -> list:
    reference = episodes[0].det
    failures = []
    for index, episode in enumerate(episodes[1:], start=1):
        differing = sorted(
            name for name in reference if reference[name] != episode.det.get(name)
        )
        if differing:
            failures.append(
                f"episode {index} did not reproduce episode 0's deterministic "
                f"numbers: {differing[:6]}"
            )
    return failures


def _ref_s(episode) -> float:
    return episode.setup.ref_s + episode.run.ref_s


def _end_to_end(plain) -> dict:
    from perfbench.calibrate import median_ref_s

    first = plain[0]
    det = first.det
    attempted = sum(e.attempted for e in plain)
    failed = sum(e.failed for e in plain)
    return {
        "sim_ops_per_s": det["completed"] / median_ref_s([e.run for e in plain]),
        "setup_s": median_ref_s([e.setup for e in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "modeled_mops": det["modeled_mops"],
        "modeled_mean_us": det["modeled_mean_us"],
        "modeled_p99_us": det["modeled_p99_us"],
        "ok_ops_frac": (attempted - failed) / attempted if attempted else 0.0,
    }


def _per_layer(plain, spanned, reports) -> dict:
    from perfbench.catalog import PER_LAYER
    from perfbench.spans import LAYERS

    det = plain[0].det
    metrics = {name: det[name] for name in PER_LAYER if name in det}
    metrics["sim.events_per_op"] = det["sim.events"] / det["completed"]
    # Self times are rescaled to the reference host like every host time.
    factors = [_ref_s(e) / (e.setup.raw_s + e.run.raw_s) for e in spanned]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            r[f"{layer}.self_s"] * factor for r, factor in zip(reports, factors)
        )
    metrics["sim.self_frac"] = statistics.median(
        r["sim.self_s"] / r["run_s"] for r in reports
    )
    metrics["spans.overhead_x"] = statistics.median(map(_ref_s, spanned)) / statistics.median(
        map(_ref_s, plain)
    )
    metrics["spans.unattributed_frac"] = statistics.median(
        r["unattributed_frac"] for r in reports
    )
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: metrics[name] for name in PER_LAYER}


def _report(args, plain, spanned, reports, metrics, units, failures) -> None:
    det = plain[0].det
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"  episodes: {len(plain)} untraced"
        + (f", {len(spanned)} traced" if spanned else "")
        + f"; ops per episode {det['completed']}, latency samples {det['latency_samples']}"
    )
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {units[name]}")
    print(
        f"  modeled latency: p50 {det['modeled_p50_us']:.4f} us over "
        f"{det['latency_samples']} samples"
    )
    print(
        "  raw host seconds (before rescaling to the reference host): setup "
        f"{statistics.median(e.setup.raw_s for e in plain):.4f}, run "
        f"{statistics.median(e.run.raw_s for e in plain):.4f}"
    )
    if args.workload == "rfp-get":
        print(
            f"  model vs paper: {det['modeled_mops']:.3f} MOPS, mean "
            f"{det['modeled_mean_us']:.3f} us, p99 {det['modeled_p99_us']:.3f} us "
            f"({PAPER_REFERENCE})"
        )
    else:
        print("  model vs paper: unvalidated (no paper reference for this workload)")
    if reports:
        last = reports[-1]
        print(
            f"  spans: {int(last['spans'])} recorded, {int(last['ops_joined'])} ops "
            f"joined, {last['unattributed_frac']:.1%} of Simulator.run not joined "
            "to an op"
        )
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(f"  checks: {'all passed' if not failures else f'{len(failures)} failed'}")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: the program under test is missing ({ROOT}/src/repro)",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.catalog import END_TO_END, PER_LAYER

    args = _parse(argv)
    traced = bool(args.trace)
    plain, spanned, reports, recorder = _measure(
        args.workload, args.seed, args.seconds, traced
    )
    failures = [f for e in plain + spanned for f in e.failures]
    failures += _determinism_failures(plain + spanned)
    if traced:
        metrics = _per_layer(plain, spanned, reports)
        units = {name: PER_LAYER[name].unit for name in metrics}
        out = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}")
        recorder.write(out)
        print(f"spans written to {os.path.relpath(out, ROOT)}.npz")
    else:
        metrics = _end_to_end(plain)
        units = {name: END_TO_END[name].unit for name in metrics}
    _report(args, plain, spanned, reports, metrics, units, failures)
    episodes = plain + spanned
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(e.attempted for e in episodes),
                "failed": sum(e.failed for e in episodes),
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
