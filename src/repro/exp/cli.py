"""``python -m repro.exp`` — the one CLI of the reproduction.

Usage::

    python -m repro.exp list                     # suites and experiments
    python -m repro.exp run fig12 tab3           # print report tables
    python -m repro.exp run paper                # a suite: tables + BENCH_paper.json
    python -m repro.exp run fig12 --full --csv results --chart
    python -m repro.exp run --spec my.json       # a custom kv experiment
    python -m repro.exp compare OLD.json NEW.json
    python -m repro.exp validate                 # ~30 s calibration self-check
    python -m repro.exp speed --json             # engine-speed suite

Exit codes follow the convention trajectory tooling scripts against:
``0`` success (and, for ``compare``, zero regressions), ``1`` a clean
comparison that found regressions (or a failed ``validate``), ``2`` any
usage or artifact error (unknown suite or experiment, malformed spec or
artifact, mismatched schemas) — reported as one clear line on stderr,
never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.harness import Scale
from repro.errors import ExpError, ReproError
from repro.exp.artifact import load_payload
from repro.exp.library import SPECS
from repro.exp.observers import ProgressObserver
from repro.exp.runner import ExperimentRunner, RunResult, default_observers
from repro.exp.suites import SUITES, run_suite
from repro.exp.tables import tabulate
from repro.exp.trajectory import compare_payloads, format_comparison

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp",
        description="Reproduce the evaluation of 'RFP' (EuroSys 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run suites or experiments and print their tables"
    )
    run.add_argument(
        "targets",
        nargs="*",
        help=f"suites ({', '.join(sorted(SUITES))}) or experiment ids",
    )
    run.add_argument(
        "--full", action="store_true", help="report scale instead of fast"
    )
    run.add_argument(
        "--out",
        default=None,
        help="directory for suite artifacts (default: repo root)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-condition progress"
    )
    run.add_argument("--csv", help="also write per-experiment CSVs to this directory")
    run.add_argument(
        "--chart", action="store_true", help="also render terminal bar charts"
    )
    run.add_argument(
        "--spec", help="also run a custom kv experiment from this JSON file"
    )

    sub.add_parser("list", help="list suites and experiments")

    compare = sub.add_parser(
        "compare", help="diff deterministic metrics of two artifacts"
    )
    compare.add_argument("baseline", help="baseline BENCH_*.json")
    compare.add_argument("candidate", help="candidate BENCH_*.json")
    compare.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative drop tolerated on higher-is-better metrics",
    )
    compare.add_argument(
        "--verbose", action="store_true", help="show neutral metric changes too"
    )

    sub.add_parser("validate", help="run the ~30 s calibration self-check")

    speed = sub.add_parser("speed", help="run the engine-speed suite")
    speed.add_argument(
        "--json",
        nargs="?",
        const="BENCH_sim_speed.json",
        default=None,
        metavar="PATH",
        help="also write the perf-trajectory artifact "
        "(default BENCH_sim_speed.json in the current directory)",
    )
    return parser


def _report(result: RunResult, args: argparse.Namespace) -> None:
    from repro.bench.report import format_result, write_csv

    table = tabulate(result)
    print(format_result(table))
    if args.chart:
        from repro.bench.charts import render_bars

        print()
        print(render_bars(table))
    print()
    if args.csv:
        write_csv(table, args.csv)


def _cmd_run(args: argparse.Namespace) -> int:
    # Resolve everything before the first simulation: a typo or a bad
    # spec fails in one line, not after minutes of runs.
    unknown = [t for t in args.targets if t not in SUITES and t not in SPECS]
    if unknown:
        raise ExpError(
            f"unknown suite or experiment(s) {', '.join(unknown)}; "
            f"suites: {', '.join(sorted(SUITES))}; "
            f"experiments: {', '.join(sorted(SPECS))}"
        )
    custom = None
    if args.spec:
        from repro.exp.custom import load_spec

        custom = load_spec(args.spec)
    if not args.targets and custom is None:
        raise ExpError("nothing to run: name a suite, an experiment, or --spec")

    scale = Scale.full_scale() if args.full else Scale.fast()
    observers = list(default_observers())
    if not args.quiet:
        observers.append(ProgressObserver(sys.stderr))
    runner = ExperimentRunner(observers=observers)
    for target in args.targets:
        if target in SUITES:
            _, results, path = run_suite(
                target, scale=scale, observers=observers, out_dir=args.out
            )
            for result in results:
                _report(result, args)
            print(f"[wrote {path}]", file=sys.stderr)
        else:
            _report(runner.run(SPECS[target], scale), args)
    if custom is not None:
        _report(runner.run(custom, scale), args)
    return 0


def _cmd_list() -> int:
    for suite in sorted(SUITES):
        print(f"{suite}: {', '.join(SUITES[suite])}")
    print()
    for spec_id, spec in SPECS.items():
        print(f"{spec_id:22s} {spec.title}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = load_payload(args.baseline)
    candidate = load_payload(args.candidate)
    kwargs = {}
    if args.tolerance is not None:
        kwargs["rel_tolerance"] = args.tolerance
    comparison = compare_payloads(baseline, candidate, **kwargs)
    print(format_comparison(comparison, verbose=args.verbose))
    return 1 if comparison.regressions else 0


def _cmd_validate() -> int:
    from repro.bench.validation import format_validation, run_validation

    checks = run_validation()
    print(format_validation(checks))
    return 0 if all(check.passed for check in checks) else 1


def _cmd_speed(args: argparse.Namespace) -> int:
    from repro.bench.speed import format_speed_report, run_speed_suite, write_artifact

    results = run_speed_suite()
    print(format_speed_report(results))
    if args.json:
        print(f"[wrote {write_artifact(results, args.json)}]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list()
        if args.command == "validate":
            return _cmd_validate()
        if args.command == "speed":
            return _cmd_speed(args)
        return _cmd_compare(args)
    except BrokenPipeError:  # piped into head/less that closed early
        return 0
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
