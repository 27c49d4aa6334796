"""The repository benchmark's contract with the program.

``perfbench/`` drives the program through a small public surface: the
entry points it wraps in spans, ``RfpCluster.kill/repair``, the
recovery record on ``FaultPlan`` and the transaction and metrics
counters.  A rename there would otherwise only show up when the
benchmark pipeline runs; these tests make it fail the plain suite.
"""

import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

#: The full deterministic view (modeled results, event and layer counts)
#: of one seed-1 episode per workload below.  Host-speed changes must
#: leave every value identical; a deliberate model change regenerates it.
DET_FIXTURE = os.path.join(ROOT, "tests", "fixtures", "perfbench_det_seed1.json")


def _expected_det(workload):
    with open(DET_FIXTURE) as handle:
        return json.load(handle)[workload]


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_every_span_entry_point_resolves():
    """The span recorder patches ``cls.__dict__[method]``: each entry
    point must be defined on the named class itself."""
    from perfbench.spans import ENTRY_POINTS

    for targets in ENTRY_POINTS.values():
        for module_name, class_name, methods in targets:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                assert method in cls.__dict__, f"{class_name}.{method}"


def test_cluster_rejoin_episode_is_clean():
    """One ``cluster-rejoin`` episode: the recovery completes, both
    checkers stay clean, no acked write is lost and no lease leaks."""
    from perfbench.calibrate import ReferenceKernel
    from perfbench.scenarios import run_episode

    episode = run_episode("cluster-rejoin", 1, ReferenceKernel())
    assert episode.failures == []
    assert episode.det["cluster.recoveries"] == 1
    assert episode.det == _expected_det("cluster-rejoin")


def test_rfp_get_episode_det_view_is_pinned():
    """The headline call path's deterministic view is pinned exactly."""
    from perfbench.calibrate import ReferenceKernel
    from perfbench.scenarios import run_episode

    episode = run_episode("rfp-get", 1, ReferenceKernel())
    assert episode.failures == []
    assert episode.det == _expected_det("rfp-get")


def test_bypass_get_episode_det_view_is_pinned():
    """The comparator's GET path (one-sided reads, CRC64 checks) is
    pinned exactly: a host-speed change to Pilaf must not move it."""
    from perfbench.calibrate import ReferenceKernel
    from perfbench.scenarios import run_episode

    episode = run_episode("bypass-get", 1, ReferenceKernel())
    assert episode.failures == []
    assert episode.det == _expected_det("bypass-get")
