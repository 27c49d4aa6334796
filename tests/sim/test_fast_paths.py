"""Fast-engine machinery: ready deque, merge rule, no-heap-growth paths.

These tests pin the *mechanisms* the speed work relies on — which queue
each operation rides, and that the fast engine's dispatch order and
count are bit-for-bit those of ``Simulator(reference=True)``.  Semantic
coverage of events/processes lives in ``test_core.py``; this file is
allowed to peek at private engine state (``_heap``/``_ready``) because
queue placement *is* the contract under test.
"""

import sys

import pytest

from repro.sim.core import AllOf, Event, Process, Simulator, Timeout
from tests.sim.exact_verbs import READ_US, WRITE_US, exact_cluster


def run_both(make_scenario):
    """Run one scenario under both engines; return (trace, trace, sims)."""
    traces = []
    sims = []
    for reference in (False, True):
        sim = Simulator(reference=reference)
        trace = []
        make_scenario(sim, trace)
        sim.run()
        traces.append(trace)
        sims.append(sim)
    return traces[0], traces[1], sims


# ----------------------------------------------------------------------
# Queue placement: what rides the ready deque, what rides the heap
# ----------------------------------------------------------------------


class TestQueuePlacement:
    def test_zero_delay_schedule_skips_heap(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        assert len(sim._heap) == 0
        assert len(sim._ready) == 1

    def test_positive_delay_schedule_uses_heap(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert len(sim._heap) == 1
        assert len(sim._ready) == 0

    def test_wait_on_done_event_skips_heap(self):
        sim = Simulator()
        done = Event(sim).trigger(7)
        done.wait(lambda event: None)
        assert len(sim._heap) == 0
        assert len(sim._ready) == 1

    def test_empty_allof_skips_heap(self):
        sim = Simulator()
        AllOf(sim, [])
        assert len(sim._heap) == 0
        assert len(sim._ready) == 1

    def test_trigger_waiters_skip_heap(self):
        sim = Simulator()
        event = Event(sim)
        event.wait(lambda e: None)
        event.wait(lambda e: None)
        event.trigger()
        assert len(sim._heap) == 0
        assert len(sim._ready) == 2

    def test_zero_delay_timeout_skips_heap(self):
        sim = Simulator()
        sim.timeout(0.0)
        assert len(sim._heap) == 0
        assert len(sim._ready) == 1

    def test_positive_timeout_is_one_heap_entry(self):
        sim = Simulator()
        timeout = sim.timeout(2.0)
        assert isinstance(timeout, Timeout)
        assert len(sim._heap) == 1
        assert len(sim._ready) == 0

    def test_yield_zero_delay_skips_heap(self):
        sim = Simulator()
        steps = []

        def proc():
            steps.append("before")
            yield 0.0
            steps.append("after")
            assert len(sim._heap) == 0

        sim.process(proc())
        sim.run()
        assert steps == ["before", "after"]

    def test_reference_mode_routes_everything_through_heap(self):
        sim = Simulator(reference=True)
        sim.schedule(0.0, lambda: None)
        Event(sim).trigger().wait(lambda e: None)
        timeout = sim.timeout(1.0)
        assert not isinstance(timeout, Timeout)
        assert len(sim._ready) == 0
        assert len(sim._heap) == 3


# ----------------------------------------------------------------------
# The (time, seq) merge rule
# ----------------------------------------------------------------------


class TestMergeRule:
    def test_due_heap_entry_with_smaller_seq_preempts_ready(self):
        # Arm a heap timer for t=1 (seq 1), then at t=1 have a callback
        # append ready work (seq 3).  A second heap timer armed at t=1
        # *before* the ready append (seq 2) must dispatch between them.
        def scenario(sim, trace):
            sim.schedule(1.0, lambda: trace.append("first"))  # seq 1
            sim.schedule(1.0, lambda: trace.append("armed-early"))  # seq 2

            # Rebind: "first" also enqueues zero-delay work (seq 3+).
            def first_fires():
                trace.append("first")
                sim.schedule(0.0, lambda: trace.append("ready-late"))

            sim._heap[0] = (1.0, 1, first_fires, ())

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        assert fast == ["first", "armed-early", "ready-late"]
        assert fast == reference
        assert sim_fast.dispatched == sim_ref.dispatched

    def test_ready_fifo_order_is_stable(self):
        def scenario(sim, trace):
            for index in range(5):
                sim.schedule(0.0, trace.append, index)

        fast, reference, _ = run_both(scenario)
        assert fast == [0, 1, 2, 3, 4]
        assert fast == reference

    def test_peek_with_pending_ready_work_is_now(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.peek() is None
        sim.schedule(0.0, lambda: None)
        assert sim.peek() == sim.now == 3.0

    def test_peek_heap_only_reports_deadline(self):
        sim = Simulator()
        sim.schedule(4.5, lambda: None)
        assert sim.peek() == 4.5


# ----------------------------------------------------------------------
# Engine equivalence on a mixed workload
# ----------------------------------------------------------------------


def _mixed_scenario(sim, trace):
    """Timers, zero delays, events, processes, direct delays — entwined."""
    gate = Event(sim)

    def worker(worker_id, delay):
        yield sim.timeout(delay)
        trace.append(("woke", worker_id, sim.now))
        yield 0.0
        trace.append(("stepped", worker_id, sim.now))
        value = yield gate
        trace.append(("gated", worker_id, value, sim.now))
        return worker_id

    def opener():
        yield 1.5
        gate.trigger("open")
        trace.append(("opened", sim.now))

    workers = [sim.process(worker(i, 0.5 + 0.5 * (i % 3))) for i in range(6)]

    def joiner():
        results = yield AllOf(sim, workers)
        trace.append(("joined", tuple(results), sim.now))

    sim.process(opener())
    sim.process(joiner())


class TestEngineEquivalence:
    def test_dispatch_order_and_count_match_reference(self):
        fast, reference, (sim_fast, sim_ref) = run_both(_mixed_scenario)
        assert fast == reference
        assert sim_fast.dispatched == sim_ref.dispatched > 0
        assert sim_fast.now == sim_ref.now

    def test_direct_delay_matches_reference(self):
        def scenario(sim, trace):
            def proc(delays):
                for delay in delays:
                    yield delay
                    trace.append(round(sim.now, 6))

            sim.process(proc([0.5, 0, 1.5, 0.0, 2]))
            sim.process(proc([1.0, 1.0]))

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        assert fast == reference
        assert sim_fast.dispatched == sim_ref.dispatched

    def test_direct_delay_failure_matches_reference(self):
        def scenario(sim, trace):
            def proc():
                try:
                    yield -0.5
                except Exception as exc:  # noqa: BLE001 - recording type
                    trace.append(type(exc).__name__)
                    raise

            process = sim.process(proc())
            process.done.wait(lambda event: trace.append(event.ok))

        fast, reference, _ = run_both(scenario)
        assert fast == reference == ["SimulationError", False]


# ----------------------------------------------------------------------
# The in-place dispatch rule
# ----------------------------------------------------------------------


def _resumed_in_place():
    """True when the calling process body was resumed directly by a
    timer fire or a verbs completion, not by the run loop."""
    frame = sys._getframe(1)
    while frame is not None:
        name = frame.f_code.co_name
        if name == "_run_or_queue":
            return True
        if name == "run":
            return False
        frame = frame.f_back
    raise AssertionError("not called from a simulated process")


#: ``(case, runs in place, work dispatched just before the resume)``:
#: only a waiter that would be the very next dispatch runs in place.
IN_PLACE_CASES = [
    ("alone", True, None),
    ("same-instant", False, "heap"),
    ("ready-pending", False, "ready"),
]


def _run_in_place_case(arm, case, due_at):
    """Run one scenario under both engines around a resume due at
    ``due_at``.  ``arm(sim, trace)`` starts the process under test,
    which appends ``("resumed", now)``; ``case`` adds the competing
    work.  Returns ``(trace, in-place flags, dispatched)`` per engine."""
    results = {}
    for reference in (False, True):
        sim = Simulator(reference=reference)
        trace = []
        paths = []

        def mark(label):
            trace.append((label, sim.now))

        def ready_work():
            sim.schedule(0.0, mark, "ready")

        if case == "ready-pending":
            # Armed before the resume's entry (smaller seq): it fires
            # first at the same instant and leaves ready work queued.
            sim.schedule(due_at, ready_work)
        arm(sim, trace, paths)
        if case == "same-instant":
            # Armed after the resume's entry (larger seq), so it is
            # still in the heap, keyed at the same instant, when the
            # resume's entry fires.
            sim.schedule(due_at - 0.25, sim.schedule, 0.25, mark, "heap")
        sim.run()
        results[reference] = (trace, paths, sim.dispatched)
    return results


def _check_in_place_case(results, in_place, before, due_at):
    (fast, fast_paths, fast_count) = results[False]
    (reference, reference_paths, reference_count) = results[True]
    assert fast == reference
    assert fast_count == reference_count
    tail = [("resumed", due_at)]
    if before is not None:
        tail.insert(0, (before, due_at))
    assert fast[-len(tail):] == tail
    assert fast_paths == [in_place]
    assert reference_paths == [False]


class TestInPlaceDispatch:
    @pytest.mark.parametrize("case,in_place,before", IN_PLACE_CASES)
    def test_direct_delay_timer(self, case, in_place, before):
        def arm(sim, trace, paths):
            def body():
                yield 0.5
                trace.append(("resumed", sim.now))
                paths.append(_resumed_in_place())

            sim.process(body())

        results = _run_in_place_case(arm, case, due_at=0.5)
        _check_in_place_case(results, in_place, before, due_at=0.5)

    @pytest.mark.parametrize("kind", ["read", "write"])
    @pytest.mark.parametrize("case,in_place,before", IN_PLACE_CASES)
    def test_verbs_completion(self, kind, case, in_place, before):
        due_at = READ_US if kind == "read" else WRITE_US

        def arm(sim, trace, paths):
            cluster = exact_cluster(sim)
            endpoint, _ = cluster.connect(cluster.machines[1], cluster.server)
            local = endpoint.machine.register_memory(64)
            remote = cluster.server.register_memory(64)

            def body():
                if kind == "read":
                    completion = endpoint.post_read(local, 0, remote, 0, 16)
                else:
                    completion = endpoint.post_write(
                        local,
                        0,
                        remote,
                        0,
                        16,
                        on_delivery=lambda: trace.append(("delivered", sim.now)),
                    )
                yield completion
                trace.append(("resumed", sim.now))
                paths.append(_resumed_in_place())

            sim.process(body())

        results = _run_in_place_case(arm, case, due_at)
        _check_in_place_case(results, in_place, before, due_at)

    def test_tail_trigger_with_several_waiters_queues_them(self):
        def scenario(sim, trace):
            event = Event(sim)
            event.wait(lambda e: trace.append(("a", e.value)))
            event.wait(lambda e: trace.append(("b", e.value)))
            sim.schedule(1.0, event.tail_trigger, "v")

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        assert fast == reference == [("a", "v"), ("b", "v")]
        assert sim_fast.dispatched == sim_ref.dispatched


# ----------------------------------------------------------------------
# Timeout fast-path semantics
# ----------------------------------------------------------------------


class TestTimeoutSemantics:
    def test_manual_trigger_then_fire_raises(self):
        sim = Simulator()
        timeout = sim.timeout(1.0)
        timeout.trigger("early")
        with pytest.raises(Exception, match="triggered twice"):
            sim.run()

    def test_multiple_waiters_resume_in_wait_order(self):
        sim = Simulator()
        timeout = sim.timeout(1.0, value="v")
        order = []
        timeout.wait(lambda e: order.append(("a", e.value)))
        timeout.wait(lambda e: order.append(("b", e.value)))
        timeout.wait(lambda e: order.append(("c", e.value)))
        sim.run()
        assert order == [("a", "v"), ("b", "v"), ("c", "v")]

    def test_wait_after_fire_resumes_via_ready(self):
        sim = Simulator()
        timeout = sim.timeout(1.0)
        sim.run()
        assert timeout.triggered
        timeout.wait(lambda e: None)
        assert len(sim._heap) == 0
        assert len(sim._ready) == 1
