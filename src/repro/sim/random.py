"""Named, reproducible random-number streams.

Every stochastic component (workload generator, process-time jitter, client
think time, ...) draws from its own named stream so that adding a new
consumer never perturbs the draws of existing ones.  Streams are derived
from a root seed plus a stable hash of the stream name, so the same
``(seed, name)`` pair always yields the same sequence across runs and
machines.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["RandomStreams", "stable_hash", "seeded_rng", "BlockDraws"]

#: Values :class:`BlockDraws` draws from its generator at a time.
_BLOCK_SIZE = 256


def stable_hash(name: str) -> int:
    """A process-independent 32-bit hash of ``name`` (unlike ``hash()``)."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


def seeded_rng(seed: int) -> np.random.Generator:
    """An explicitly seeded PCG64 generator — the only sanctioned way to
    construct a standalone generator outside :class:`RandomStreams`.

    Bit-identical to ``np.random.default_rng(seed)``, but importable only
    from here so the determinism lint (rule ``no-global-random``) can
    guarantee no component ever draws from unseeded or global RNG state.
    """
    return np.random.Generator(np.random.PCG64(seed))


class RandomStreams:
    """Factory of independent ``numpy.random.Generator`` streams.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.stream("workload.keys")
    >>> b = streams.stream("workload.keys")
    >>> a is b   # same name -> same generator instance
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            sequence = np.random.SeedSequence([self.seed, stable_hash(name)])
            generator = np.random.Generator(np.random.PCG64(sequence))
            self._streams[name] = generator
        return generator

    def fork(self, salt: int) -> "RandomStreams":
        """A new factory whose streams are independent of this one's."""
        return RandomStreams(seed=(self.seed * 1_000_003 + int(salt)) & 0x7FFFFFFF)


class BlockDraws:
    """Block-buffered draws from one PCG64 generator, each value equal
    to the generator's own scalar draw at that point of its stream.

    ``random()`` hands out a block of ``generator.random(_BLOCK_SIZE)``
    one value at a time; ``uniform(high)`` is ``high * random()``, which
    is bit-for-bit ``generator.uniform(0.0, high)``.  ``exponential``
    first rewinds the generator to the first unconsumed value (the
    block's start state plus ``advance(k)`` for ``k`` values handed
    out), draws the scalar there and drops the rest of the block, so the
    stream continues exactly as scalar draws would.

    The buffer belongs to the owner of the generator: nothing else may
    draw from the generator while a block is in flight.
    """

    __slots__ = ("_rng", "_block", "_next", "_start")

    def __init__(self, rng: np.random.Generator) -> None:
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError(
                "BlockDraws needs a PCG64 generator to rewind, got "
                f"{type(rng.bit_generator).__name__}"
            )
        self._rng = rng
        self._block: List[float] = []
        self._next = 0
        #: Generator state before the block in flight was drawn.
        self._start: Optional[Dict[str, Any]] = None

    def random(self) -> float:
        """The next ``generator.random()`` value."""
        index = self._next
        if index == len(self._block):
            self._start = self._rng.bit_generator.state
            self._block = self._rng.random(_BLOCK_SIZE).tolist()
            index = 0
        self._next = index + 1
        return self._block[index]

    def uniform(self, high: float) -> float:
        """The next ``generator.uniform(0.0, high)`` value."""
        return high * self.random()

    def exponential(self, scale: float) -> float:
        """The next ``generator.exponential(scale)`` value."""
        if self._start is not None:
            bit_generator = self._rng.bit_generator
            bit_generator.state = self._start
            bit_generator.advance(self._next)
            self._start = None
            self._block = []
            self._next = 0
        return float(self._rng.exponential(scale))
