"""Host time rescaled to a reference host, so host-speed drift cancels.

A shared host's speed drifts by up to 2x within seconds as neighbours
come and go, and the drift slows all Python code alike.  A fixed
reference kernel does work of the simulator's kind (a heap-ordered
event loop resuming generators, dict and attribute traffic, struct
packing, small allocations) without touching the program under test,
so a change to the program never changes it.  :class:`HostClock` runs a
simulated window in short chunks and times one kernel pass between
chunks.  Each chunk's host time is rescaled by the reference kernel
time over the mean of the kernel times around it.  The sum is the time
the chunk would have taken on the reference host, where one pass takes
:data:`REFERENCE_PASS_S`.  Raw host seconds are kept beside it.
"""

from __future__ import annotations

import heapq
import random
import statistics
import struct
from time import perf_counter
from typing import List, Sequence, Tuple

#: Kernel steps per pass between chunks (about 5 ms of host time).
PASS_STEPS = 4000
#: Seconds one pass takes on the reference host.  This number defines
#: the reference host; a pass takes 5-6 ms on a quiet 2 GHz Xeon core
#: under CPython 3.11.
REFERENCE_PASS_S = 0.005

_PACK = struct.Struct("<IIQ")


class _Item:
    __slots__ = ("key", "fields", "touched")

    def __init__(self, key: int) -> None:
        self.key = key
        self.fields = {"key": key, "name": str(key)}
        self.touched = 0.0


class ReferenceKernel:
    """The fixed reference work.  Its object pool stays in the core's
    private caches: over 220 s of rfp-get episodes, rescaling by this
    kernel left 2.2% spread between quartiles of episode speed, against
    7.1% for a 100,000-object pool that spills to memory and 19% raw."""

    def __init__(self, objects: int = 512, seed: int = 1) -> None:
        rng = random.Random(seed)
        self._pool = [_Item(key) for key in range(objects)]
        self._picks = [rng.randrange(objects) for _ in range(1 << 16)]

    def run_pass(self, steps: int = PASS_STEPS) -> int:
        """One pass: a heap-ordered loop resuming 64 generators, each
        step touching four pooled objects; returns a checksum."""
        workers = [self._worker(ident) for ident in range(64)]
        for worker in workers:
            next(worker)
        heap = [(float(ident) * 0.01, ident) for ident in range(64)]
        heapq.heapify(heap)
        checksum = 0
        for _ in range(steps):
            at, ident = heapq.heappop(heap)
            checksum += workers[ident].send(at)
            heapq.heappush(heap, (at + 0.013 * (ident % 5 + 1), ident))
        return checksum

    def _worker(self, ident: int):
        pool, picks = self._pool, self._picks
        cursor = ident * 1031
        total = 0
        while True:
            at = yield total
            for _ in range(4):
                item = pool[picks[cursor & 0xFFFF]]
                cursor += 7
                item.touched = at
                total += item.fields["key"] & 0xFF
            header = _PACK.pack(ident, total & 0xFFFFFFFF, item.key)
            total += _PACK.unpack(header)[0]

    def pass_seconds(self) -> float:
        """Host seconds one pass takes right now."""
        began = perf_counter()
        self.run_pass()
        return perf_counter() - began


class HostClock:
    """Accumulates raw and reference-host seconds of measured stretches."""

    def __init__(self, kernel: ReferenceKernel) -> None:
        self.kernel = kernel
        self.raw_s = 0.0
        #: Reference-host seconds of each stretch, in order.
        self.stretches: List[float] = []

    def start(self) -> Tuple[float, float]:
        """Open a stretch: (kernel pass seconds, host clock)."""
        return self.kernel.pass_seconds(), perf_counter()

    def stop(self, opened: Tuple[float, float]) -> None:
        """Close the stretch ``start`` opened and count it."""
        before, began = opened
        spent = perf_counter() - began
        self.add(spent, before, self.kernel.pass_seconds())

    def run(self, sim, until: float, chunk_us: float) -> None:
        """``sim.run(until)`` in chunks of ``chunk_us`` simulated time.

        Chunking does not change the simulation: ``run(until=t)``
        dispatches exactly the callbacks due by ``t`` and the next call
        resumes with the same queue.
        """
        before = self.kernel.pass_seconds()
        now = sim.now
        while now < until:
            now = min(until, now + chunk_us)
            began = perf_counter()
            sim.run(until=now)
            spent = perf_counter() - began
            after = self.kernel.pass_seconds()
            self.add(spent, before, after)
            before = after

    def add(self, spent: float, before: float, after: float) -> None:
        """Count ``spent`` host seconds bracketed by kernel passes that
        took ``before`` and ``after`` seconds."""
        self.raw_s += spent
        self.stretches.append(spent * 2.0 * REFERENCE_PASS_S / (before + after))

    @property
    def ref_s(self) -> float:
        return sum(self.stretches)


def median_ref_s(clocks: Sequence[HostClock]) -> float:
    """Reference-host seconds of a stretch sequence repeated on every
    clock: the sum over stretches of each stretch's median across the
    clocks.  Deterministic episodes repeat the same work stretch by
    stretch, so a stretch disturbed in one episode is outvoted by the
    same stretch in the others."""
    return sum(statistics.median(column) for column in zip(*(c.stretches for c in clocks)))
