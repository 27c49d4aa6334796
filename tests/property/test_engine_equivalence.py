"""Property: the fast engine is observationally identical to the
reference engine on randomly generated process/waitable DAGs.

Hypothesis draws a small program — a set of processes, each a random
sequence of operations over direct delays, timeouts, shared events,
``AnyOf``/``AllOf`` composites, and joins on other processes — and runs
it under ``Simulator()`` and ``Simulator(reference=True)``.  The full
observable history (every step's ``(process, op, value, now)``), the
final clock, and the total dispatch count must match exactly.  Delays
are drawn from a tiny grid so same-timestamp collisions (the regime
where ordering bugs hide) are common rather than rare.  A second
property does the same for RDMA verbs programs, whose completions take
the engine's in-place dispatch path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import AllOf, AnyOf, Simulator
from tests.sim.exact_verbs import exact_cluster

# A tiny delay grid maximises timestamp collisions; all values are exact
# binary floats so time arithmetic is bit-reproducible.
delays = st.sampled_from([0.0, 0.5, 1.0, 1.5])

# One process body = a sequence of opcodes interpreted by _body below.
#   ("delay", d)    -> yield d                (direct-delay dispatch path)
#   ("timeout", d)  -> yield sim.timeout(d)
#   ("trigger", i)  -> trigger shared event i (if still pending)
#   ("wait", i)     -> yield shared event i   (skipped if never triggered)
#   ("any", d1, d2) -> yield AnyOf(timeout(d1), timeout(d2))
#   ("all", d1, d2) -> yield AllOf(timeout(d1), timeout(d2))
#   ("join", j)     -> yield process j        (earlier-started only)
ops = st.one_of(
    st.tuples(st.just("delay"), delays),
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("trigger"), st.integers(0, 2)),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("any"), delays, delays),
    st.tuples(st.just("all"), delays, delays),
    st.tuples(st.just("join"), st.integers(0, 5)),
)

programs = st.lists(
    st.lists(ops, min_size=1, max_size=6), min_size=1, max_size=6
)


def _execute(program, reference):
    sim = Simulator(reference=reference)
    # Shared events: "trigger" ops fire them, nobody waits unless a
    # "wait" op is drawn; triggered-twice is guarded at the op site.
    shared = [sim.event() for _ in range(3)]
    history = []
    processes = []

    def body(pid, opcodes):
        for step, opcode in enumerate(opcodes):
            kind = opcode[0]
            if kind == "delay":
                yield opcode[1]
                history.append((pid, step, "delay", sim.now))
            elif kind == "timeout":
                value = yield sim.timeout(opcode[1], value=(pid, step))
                history.append((pid, step, value, sim.now))
            elif kind == "trigger":
                event = shared[opcode[1]]
                if not event.triggered:
                    event.trigger((pid, step))
                history.append((pid, step, "trigger", sim.now))
            elif kind == "wait":
                # May never trigger: the process then parks forever,
                # which both engines must agree on as well.
                value = yield shared[opcode[1]]
                history.append((pid, step, value, sim.now))
            elif kind == "any":
                value = yield AnyOf(
                    sim, [sim.timeout(opcode[1]), sim.timeout(opcode[2], 1)]
                )
                history.append((pid, step, value, sim.now))
            elif kind == "all":
                value = yield AllOf(
                    sim, [sim.timeout(opcode[1], 0), sim.timeout(opcode[2], 1)]
                )
                history.append((pid, step, tuple(value), sim.now))
            elif kind == "join":
                target = opcode[1]
                if target < len(processes):
                    value = yield processes[target]
                    history.append((pid, step, value, sim.now))
        return pid

    for pid, opcodes in enumerate(program):
        processes.append(sim.process(body(pid, opcodes), name=f"p{pid}"))
    sim.run()
    final = [
        (process.done.ok, process.done._value) for process in processes
    ]
    return history, final, sim.now, sim.dispatched


class TestEngineEquivalenceProperty:
    @settings(max_examples=120, deadline=None)
    @given(programs)
    def test_fast_engine_matches_reference(self, program):
        fast = _execute(program, reference=False)
        reference = _execute(program, reference=True)
        assert fast == reference


# Verbs programs: one process per endpoint, each a random sequence of
# one-sided reads and writes against a shared remote region, plus direct
# delays, on a rig whose every latency is an exact binary fraction, so
# completions collide with each other and with timers at the same
# instant.  Every write's on_delivery hook records when its payload
# landed, and every read records the bytes it saw.
verb_sizes = st.sampled_from([8, 16])
verb_ops = st.one_of(
    st.tuples(st.just("read"), verb_sizes),
    st.tuples(st.just("write"), verb_sizes),
    st.tuples(st.just("post"), verb_sizes),
    st.tuples(st.just("read_all"), verb_sizes, st.sampled_from([0.0, 0.25, 2.0])),
    st.tuples(st.just("delay"), st.sampled_from([0.0, 0.25, 0.5])),
)
verb_programs = st.lists(
    st.lists(verb_ops, min_size=1, max_size=6), min_size=3, max_size=4
)

#: ``(issuer, target)`` machine indices of each process's endpoint: three
#: clients into the server and one server-issued stream back out.
_VERB_LINKS = [(1, 0), (2, 0), (3, 0), (0, 1)]


def _execute_verbs(program, reference):
    sim = Simulator(reference=reference)
    cluster = exact_cluster(sim)
    machines = cluster.machines
    targets = {index: machines[index].register_memory(64) for index in (0, 1)}
    history = []

    def body(pid, opcodes):
        issuer, target = _VERB_LINKS[pid]
        endpoint, _ = cluster.connect(machines[issuer], machines[target])
        local = machines[issuer].register_memory(64)
        remote = targets[target]
        for step, opcode in enumerate(opcodes):
            kind = opcode[0]
            if kind == "delay":
                yield opcode[1]
                history.append((pid, step, "delay", sim.now))
                continue
            size = opcode[1]
            if kind in ("read", "read_all"):
                completion = endpoint.post_read(local, 0, remote, 0, size)
                if kind == "read_all":
                    completion = AllOf(sim, [completion, sim.timeout(opcode[2])])
                yield completion
                seen = local.read_local(0, size)
                history.append((pid, step, kind, seen, sim.now))
                continue
            local.write_local(0, bytes([pid + 1, step + 1]) * (size // 2))

            def delivered(pid=pid, step=step):
                history.append((pid, step, "delivered", sim.now))

            completion = endpoint.post_write(
                local, 0, remote, 0, size, on_delivery=delivered
            )
            if kind == "write":
                yield completion
            history.append((pid, step, kind, sim.now))

    for pid, opcodes in enumerate(program):
        sim.process(body(pid, opcodes), name=f"v{pid}")
    sim.run()
    memory = {index: region.read_local(0, 64) for index, region in targets.items()}
    return history, memory, sim.now, sim.dispatched


class TestVerbsEngineEquivalenceProperty:
    @settings(max_examples=120, deadline=None)
    @given(verb_programs)
    def test_fast_engine_matches_reference_on_verbs(self, program):
        fast = _execute_verbs(program, reference=False)
        reference = _execute_verbs(program, reference=True)
        assert fast == reference
