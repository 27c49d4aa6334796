"""Self-tests of the benchmark's own logic.

Run from the repository root::

    python3 perfbench/selftest.py

Covers the self-time arithmetic, the span recorder on a real simulated
call, the metric catalogue against ``BENCHMARK.json``, and every
correctness check against planted faults.  Exit code 0 when all pass.
"""

from __future__ import annotations

import json
import os
import re
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_times_on_nested_spans():
    import numpy as np

    from perfbench.spans import layer_report, self_times

    # run [0, 10] > A [1, 5] > B [2, 3];  run > C [6, 9]
    start = np.array([0.0, 1.0, 2.0, 6.0])
    end = np.array([10.0, 5.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert list(self_times(start, end, parent)) == [3.0, 3.0, 1.0, 3.0]
    names = ["sim.Simulator.run", "kv.JakiroClient.get", "hw.Endpoint.post_read", "core.RpcServer.handle"]
    spans = {
        "name_id": np.array([0, 1, 2, 3]),
        "start": start,
        "end": end,
        "parent": parent,
        "op": np.array([0, 1, 1, 0]),
    }
    report = layer_report(names, spans)
    assert report["sim.self_s"] == 3.0
    assert report["kv.self_s"] == 3.0
    assert report["hw.self_s"] == 1.0
    assert report["core.self_s"] == 3.0
    assert report["cluster.self_s"] == 0.0
    # Only A (op 1, 4 of run's 10 s) is joined to an op.
    assert abs(report["unattributed_frac"] - 0.6) < 1e-12
    assert report["ops_joined"] == 1.0


def test_recorder_spans_nest_and_patches_restore():
    from perfbench.spans import SpanRecorder
    from repro.core import RfpClient, RfpServer
    from repro.hw import CLUSTER_EUROSYS17, build_cluster
    from repro.sim import Simulator

    original_run = Simulator.__dict__["run"]
    original_call = RfpClient.__dict__["call"]
    recorder = SpanRecorder()
    replies = []
    with recorder:
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        server = RfpServer(sim, cluster, cluster.server, lambda p, c: (p, 0.5), threads=2)
        client = RfpClient(sim, cluster.client_machines[0], server)

        def body(sim):
            for index in range(3):
                replies.append((yield from client.call(bytes([index]) * 8)))

        sim.process(body(sim))
        sim.run()
    assert Simulator.__dict__["run"] is original_run
    assert RfpClient.__dict__["call"] is original_call
    assert replies == [bytes([i]) * 8 for i in range(3)]
    spans = recorder.arrays()
    names = [recorder.names[i] for i in spans["name_id"]]
    assert names.count("sim.Simulator.run") == 1
    assert "core.RfpClient.call" in names and "hw.Endpoint.post_read" in names
    # Every recorded span lies inside the span below it on the stack.
    for index, parent in enumerate(spans["parent"]):
        if parent >= 0:
            assert spans["start"][parent] <= spans["start"][index]
            assert spans["end"][index] <= spans["end"][parent]


def test_chunked_run_changes_nothing():
    from dataclasses import replace

    from perfbench.calibrate import ReferenceKernel
    from perfbench.scenarios import SCENARIOS, run_kv

    kernel = ReferenceKernel(objects=1000)
    short = replace(SCENARIOS["rfp-put-large"], window_us=300.0)
    whole = run_kv(replace(short, chunk_us=300.0), 3, kernel)
    chunked = run_kv(replace(short, chunk_us=7.0), 3, kernel)
    assert len(chunked.run.stretches) == 43 and len(whole.run.stretches) == 1
    assert whole.det == chunked.det and not whole.failures and not chunked.failures


def test_generator_wrapper_forwards_throw():
    from perfbench.spans import SpanRecorder

    class Boom(Exception):
        pass

    def inner():
        try:
            yield 1
        except Boom:
            return "caught"

    recorder = SpanRecorder()
    wrapped = recorder._wrap("kv.JakiroClient.get", inner)
    gen = wrapped()
    assert next(gen) == 1
    try:
        gen.throw(Boom())
    except StopIteration as stop:
        assert stop.value == "caught"
    else:
        raise AssertionError("wrapped generator did not finish")
    # One op opened at creation, one span per resumed stretch.
    assert list(recorder.op) == [1, 1] and len(recorder.start) == 2


def test_names_and_benchmark_json_match_catalogue():
    from perfbench.catalog import END_TO_END, PER_LAYER, WORKLOADS
    from perfbench.scenarios import SCENARIOS

    for name in [*WORKLOADS, *END_TO_END, *PER_LAYER]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert set(SCENARIOS) == set(WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]] for w in bench["workloads"])
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == {
        name: (m.unit, m.better, m.bound) for name, m in END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (m.unit, m.better) for name, m in PER_LAYER.items()
    }
    for metric in [*END_TO_END.values(), *PER_LAYER.values()]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric.unit), metric.unit
        assert metric.better in ("higher", "lower")


def test_lost_acked_write_fails():
    from perfbench.checks import check_acked_writes

    acked = {b"k1": 7, b"k2": 3}
    clean = {b"k1": [("shard0", 7), ("shard1", 9)], b"k2": [("shard1", 3), ("shard2", 3)]}
    assert check_acked_writes(acked, clean) == []
    planted = dict(clean)
    planted[b"k2"] = [("shard1", 3), ("shard2", 2)]
    failures = check_acked_writes(acked, planted)
    assert len(failures) == 1 and "shard2" in failures[0]


def test_server_nic_outbound_op_fails():
    from perfbench.checks import check_server_nic

    assert check_server_nic(4, 4, "rfp-get") == []
    assert len(check_server_nic(5, 4, "rfp-get")) == 1
    assert len(check_server_nic(1, 0, "rfp-get")) == 1


def test_stale_read_fails():
    from perfbench.checks import check_fresh_reads

    acks = {b"k": [(10.0, 1), (20.0, 2)]}
    assert check_fresh_reads(acks, [(b"k", 5.0, 0), (b"k", 15.0, 1), (b"k", 19.0, 2)]) == []
    assert len(check_fresh_reads(acks, [(b"k", 21.0, 1)])) == 1


def test_torn_group_fails():
    from perfbench.checks import check_groups_whole

    groups = [((b"a", b"b", b"c"), 5)]
    whole = {b"a": [("s0", 5)], b"b": [("s0", 9)], b"c": [("s0", 5)]}
    assert check_groups_whole(groups, whole) == []
    torn = dict(whole)
    torn[b"c"] = [("s0", 4)]
    assert len(check_groups_whole(groups, torn)) == 1


def test_unexplained_get_value_fails():
    from perfbench.checks import check_reads_see_writes

    preloaded = {b"k": b"v0", b"j": b"w0"}
    writes = {b"k": [(10.0, 12.0, b"v1"), (30.0, None, b"v2")]}
    good = [
        (b"j", 0.0, 1.0, b"w0"),  # never written: its preloaded value
        (b"k", 0.0, 5.0, b"v0"),
        (b"k", 11.0, 13.0, b"v0"),  # overlaps the first write
        (b"k", 11.0, 13.0, b"v1"),
        (b"k", 20.0, 31.0, b"v2"),  # overlaps the unacked write
    ]
    assert check_reads_see_writes(preloaded, writes, good) == []
    for bad in [
        (b"j", 0.0, 1.0, b"w1"),
        (b"k", 13.0, 14.0, b"v0"),  # overwritten before the read began
        (b"k", 0.0, 5.0, b"v1"),  # write not issued yet
        (b"k", 0.0, 5.0, None),
    ]:
        assert len(check_reads_see_writes(preloaded, writes, [bad])) == 1, bad


def main() -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:  # report every failing test, not just the first
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
