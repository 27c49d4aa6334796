"""Host-time spans around each layer's public entry points.

A :class:`SpanRecorder` patches the entry points listed in
:data:`ENTRY_POINTS` at runtime (nothing under ``src/`` is edited) and
records one span per contiguous stretch of host execution inside a
wrapped call.  A plain function gives one span per call.  A generator
(a simulated process body) runs in stretches: every time the simulator
resumes it, the stretch until its next ``yield`` is one span, so the
host time a process spends parked in simulated time is never charged to
it.  Each span stores ``(name, start, end, parent, op)``:

- ``parent`` is the span that was executing on the host stack when this
  one began (``-1`` at the top), so spans nest as intervals and a
  layer's self time is its span time minus its direct children's;
- ``op`` joins the spans of one client operation: a client entry point
  called outside any operation opens a new op id, and everything it
  creates or calls inherits it; work the simulator dispatches from
  scheduled callbacks (NIC in-bound service, server threads) carries
  op id 0, "not joined to an op".

Spans stay in memory (flat arrays) until :meth:`SpanRecorder.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from array import array
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: layer -> [(module, class, [methods])].  Span names are
#: ``<layer>.<Class>.<method>``; the layer is the name's first part.
ENTRY_POINTS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sim": [("repro.sim.core", "Simulator", ("run",))],
    "hw": [
        (
            "repro.hw.verbs",
            "Endpoint",
            ("post_read", "post_write", "post_atomic_cas", "post_atomic_faa", "post_send"),
        ),
        ("repro.hw.rnic", "RNIC", ("occupy_outbound", "occupy_inbound")),
    ],
    "core": [
        ("repro.core.rpc", "RpcClient", ("call",)),
        ("repro.core.client", "RfpClient", ("call",)),
        ("repro.core.rpc", "RpcServer", ("handle",)),
    ],
    "kv": [
        ("repro.kv.jakiro", "JakiroClient", ("get", "put")),
        ("repro.kv.store", "JakiroStore", ("get", "put")),
    ],
    "baselines": [("repro.baselines.pilaf", "PilafClient", ("get", "put"))],
    "cluster": [
        ("repro.cluster.router", "ClusterClient", ("get", "put", "multi_put")),
        ("repro.cluster.router", "RfpCluster", ("kill", "repair")),
        ("repro.cluster.ring", "HashRing", ("lookup", "lookup_replicas")),
    ],
    "trace": [("repro.sim.trace", "Tracer", ("record",))],
    "workloads": [("repro.workloads.ycsb", "YcsbWorkload", ("operations", "dataset"))],
}

LAYERS: Tuple[str, ...] = tuple(ENTRY_POINTS)

#: Client operation entry points: called outside any op, they open one.
OP_ROOTS = frozenset(
    {
        "kv.JakiroClient.get",
        "kv.JakiroClient.put",
        "baselines.PilafClient.get",
        "baselines.PilafClient.put",
        "cluster.ClusterClient.get",
        "cluster.ClusterClient.put",
        "cluster.ClusterClient.multi_put",
    }
)

#: The span every simulated-time dispatch runs under.
RUN_SPAN = "sim.Simulator.run"


class SpanRecorder:
    """Patch the layer entry points, record spans, restore on exit.

    Use as a context manager around everything one traced episode does
    (set-up included); the patches are removed on exit even on error.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        #: Host stack of open spans: [(span index, op id), ...].
        self._stack: List[Tuple[int, int]] = []
        self._next_op = 0
        self._patched: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def __enter__(self) -> "SpanRecorder":
        for layer, targets in ENTRY_POINTS.items():
            for module_name, class_name, methods in targets:
                cls = getattr(importlib.import_module(module_name), class_name)
                for method in methods:
                    original = cls.__dict__[method]
                    name = f"{layer}.{class_name}.{method}"
                    self._patched.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    def _name(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _op_for(self, name: str) -> int:
        """Op id for a span created now: inherited inside an op, fresh
        for a client entry point called outside one, else 0."""
        stack = self._stack
        if stack and stack[-1][1]:
            return stack[-1][1]
        if name in OP_ROOTS:
            self._next_op += 1
            return self._next_op
        return 0

    def _open(self, name_id: int, op: int) -> int:
        stack = self._stack
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(stack[-1][0] if stack else -1)
        self.op.append(op)
        self.end.append(0.0)
        stack.append((index, op))
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def _drive(self, name_id: int, op: int, gen):
        """Run ``gen`` to completion, one span per resumed stretch."""
        send, throw = gen.send, gen.throw
        value = None
        error = None
        while True:
            index = self._open(name_id, op)
            try:
                target = send(value) if error is None else throw(error)
            except StopIteration as stop:
                self._close(index)
                return stop.value
            except BaseException:
                self._close(index)
                raise
            self._close(index)
            try:
                value = yield target
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # forwarded into the body
                value = None
                error = thrown

    def _wrap(self, name: str, original):
        name_id = self._name(name)
        recorder = self

        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def generator_span(*args, **kwargs):
                # The op is fixed where the generator is created: a
                # process spawned inside an op stays in that op even
                # though the simulator later resumes it from the top.
                body = recorder._drive(
                    name_id, recorder._op_for(name), original(*args, **kwargs)
                )
                body.__name__ = original.__name__
                body.__qualname__ = original.__qualname__
                return body

            return generator_span

        @functools.wraps(original)
        def call_span(*args, **kwargs):
            index = recorder._open(name_id, recorder._op_for(name))
            try:
                return original(*args, **kwargs)
            finally:
                recorder._close(index)

        return call_span

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.uint16),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        """Write the spans as ``<path>.npz`` plus the name table."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(path + ".npz", **self.arrays())
        with open(path + ".names.json", "w", encoding="utf-8") as handle:
            json.dump(self.names, handle)


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest as intervals on one host thread, so children never
    overlap each other and never outlive their parent.
    """
    duration = end - start
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - child_time[: len(duration)]


def layer_report(names: Sequence[str], spans: Dict[str, np.ndarray]) -> Dict[str, float]:
    """Per-layer self seconds plus the run-level attribution shares.

    ``<layer>.self_s`` sums the self time of every span of that layer;
    ``sim.self_s`` is the part of ``Simulator.run`` outside any wrapped
    span (unwrapped background processes and the engine itself).
    ``unattributed_frac`` is the share of ``Simulator.run`` host time
    not joined to a client op id.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    selves = self_times(start, end, parent)
    layer_of = np.array([name.split(".", 1)[0] for name in names], dtype=object)
    span_layers = layer_of[spans["name_id"]]
    report = {
        f"{layer}.self_s": float(selves[span_layers == layer].sum()) for layer in LAYERS
    }
    run_ids = [i for i, name in enumerate(names) if name == RUN_SPAN]
    runs = np.flatnonzero(np.isin(spans["name_id"], run_ids))
    run_s = float((end[runs] - start[runs]).sum())
    in_run = np.isin(parent, runs)
    joined = in_run & (spans["op"] > 0)
    joined_s = float((end[joined] - start[joined]).sum())
    report["run_s"] = run_s
    report["unattributed_frac"] = 1.0 - joined_s / run_s if run_s > 0 else 0.0
    report["ops_joined"] = float(len(np.unique(spans["op"][spans["op"] > 0])))
    report["spans"] = float(len(start))
    return report
