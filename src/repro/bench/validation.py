"""Quick self-validation: is this install reproducing the paper?

``python -m repro.exp validate`` runs a ~30-second subset of checks
that pin the calibration to the paper's constants; a fresh clone that
passes these will reproduce every figure's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis import predict_rfp_throughput, predict_server_reply_throughput
from repro.bench.calibration import (
    inbound_iops_curve,
    measure_inbound_iops,
    measure_outbound_iops,
)
from repro.bench.harness import Scale, run_controlled_process_time, run_kv
from repro.core import derive_size_bounds
from repro.hw import CONNECTX3
from repro.workloads import WorkloadSpec

__all__ = ["ValidationCheck", "run_validation", "format_validation"]


@dataclass
class ValidationCheck:
    """One validation: what was checked, what we expect, what we got."""

    name: str
    expected: str
    measured: str
    passed: bool


def run_validation() -> List[ValidationCheck]:
    """Run all quick checks; returns one record per check."""
    checks: List[ValidationCheck] = []

    def record(name: str, expected: str, measured: str, passed: bool) -> None:
        checks.append(ValidationCheck(name, expected, measured, passed))

    inbound = measure_inbound_iops(28, window_us=1500.0)
    record(
        "in-bound peak (Fig. 3)",
        "11.26 MOPS ±8%",
        f"{inbound:.2f} MOPS",
        abs(inbound - 11.26) / 11.26 < 0.08,
    )
    outbound = measure_outbound_iops(4, window_us=1500.0)
    record(
        "out-bound peak (Fig. 3)",
        "2.11 MOPS ±8%",
        f"{outbound:.2f} MOPS",
        abs(outbound - 2.11) / 2.11 < 0.08,
    )
    record(
        "asymmetry ratio",
        "4.5x-6x",
        f"{inbound / outbound:.1f}x",
        4.5 < inbound / outbound < 6.0,
    )

    sizes = [32, 64, 128, 192, 256, 384, 512, 640, 768, 1024, 2048, 4096]
    curve = inbound_iops_curve(sizes, window_us=1200.0)
    lower, upper = derive_size_bounds([s for s, _ in curve], [m for _, m in curve])
    record("[L, H] (Fig. 5 / §3.2)", "[256, 1024]", f"[{lower}, {upper}]",
           (lower, upper) == (256, 1024))

    scale = Scale(window_us=1500.0, records=2048)
    rfp = run_controlled_process_time("rfp", 0.2, scale=scale)
    record(
        "RFP peak (Fig. 12)",
        "~5.5 MOPS ±10%",
        f"{rfp.throughput_mops:.2f} MOPS",
        abs(rfp.throughput_mops - 5.5) / 5.5 < 0.10,
    )
    reply = run_controlled_process_time("serverreply", 0.2, scale=scale)
    record(
        "ServerReply ceiling",
        "1.8-2.2 MOPS",
        f"{reply.throughput_mops:.2f} MOPS",
        1.8 <= reply.throughput_mops <= 2.2,
    )

    jakiro = run_kv(
        "jakiro", WorkloadSpec(records=2048), server_threads=6,
        client_threads=35, scale=scale,
    )
    record(
        "Jakiro end-to-end (Figs. 10/12)",
        "~5.5 MOPS ±12%",
        f"{jakiro.throughput_mops:.2f} MOPS",
        abs(jakiro.throughput_mops - 5.5) / 5.5 < 0.12,
    )

    predicted = predict_rfp_throughput(CONNECTX3, 16, 35, 0.2).mops
    record(
        "model vs simulator (RFP)",
        "within 10%",
        f"{predicted:.2f} vs {rfp.throughput_mops:.2f} MOPS",
        abs(predicted - rfp.throughput_mops) / rfp.throughput_mops < 0.10,
    )
    predicted_reply = predict_server_reply_throughput(CONNECTX3, 16, 35, 0.2).mops
    record(
        "model vs simulator (reply)",
        "within 10%",
        f"{predicted_reply:.2f} vs {reply.throughput_mops:.2f} MOPS",
        abs(predicted_reply - reply.throughput_mops) / reply.throughput_mops < 0.10,
    )
    return checks


def format_validation(checks: List[ValidationCheck]) -> str:
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            f"[{status}] {check.name:32s} expected {check.expected:16s} "
            f"measured {check.measured}"
        )
    failed = sum(1 for check in checks if not check.passed)
    lines.append("")
    lines.append(
        f"{len(checks) - failed}/{len(checks)} checks passed"
        + ("" if failed == 0 else f" — {failed} FAILED")
    )
    return "\n".join(lines)
