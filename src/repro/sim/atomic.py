"""Atomic-section contract for simulator code.

A function decorated with :func:`atomic_section` promises that **no
simulated time passes inside it**: neither the function nor anything it
transitively calls may ``yield`` a simulator waitable.  The cluster
layer's correctness rests on a handful of such regions — the failover
ring surgery, the recovery cutover — whose "ring + membership + trace
with no intervening sim time" property used to live only in comments.

The contract is enforced twice:

1. **Statically** by :mod:`repro.lint.atomicity`: the lint builds a call
   graph over the analyzed files and proves that no transitive path out
   of a declared-atomic function reaches a ``yield``.  (A trailing
   ``# sim: atomic`` comment on the ``def`` line declares the same
   contract without importing this module — useful for scripts.)
2. **At runtime**, as defense in depth:

   - decorating a generator function raises immediately at import time
     (a ``yield`` added to a declared-atomic body is the exact bug the
     contract exists to stop — calling the "function" would silently
     just build a generator and run nothing);
   - a declared-atomic function that *returns* a generator raises when
     the guard is enabled (the same smuggled-yield bug one call level
     down);
   - while the flag-gated guard is enabled (:func:`enable_atomic_guard`)
     the engine refuses to advance any :class:`~repro.sim.core.Process`
     while an atomic section is open on the stack — a re-entrant
     ``run()`` or a direct process step from inside an atomic region is
     a bug, not a scheduling quirk.  The check sits in
     ``Process._step``, which every dispatch path funnels through:
     time-heap pops and zero-delay ready-deque drains alike.

The guard is off by default; the disabled-path cost is one flag check
per decorated call and one truthiness check per process step.
"""

from __future__ import annotations

import functools
import inspect
import types
from typing import Any, Callable, List, TypeVar, cast

__all__ = [
    "atomic_section",
    "enable_atomic_guard",
    "atomic_guard_enabled",
    "current_atomic_section",
    "is_atomic_section",
]

F = TypeVar("F", bound=Callable[..., Any])

#: Flag-gated runtime guard (off by default; see :func:`enable_atomic_guard`).
_GUARD_ENABLED = False

#: Names of atomic sections currently executing (shared with
#: :mod:`repro.sim.core`, which refuses to step processes while it is
#: non-empty).  Only ever populated while the guard is enabled.
_ATOMIC_STACK: List[str] = []


def _simulation_error(message: str) -> Exception:
    # Imported lazily: core imports this module for the shared stack.
    from repro.sim.core import SimulationError

    return SimulationError(message)


def atomic_section(fn: F) -> F:
    """Declare that ``fn`` completes with no intervening simulated time.

    The static analyzer (``repro.lint.atomicity``) proves the no-yield
    property over the transitive call graph; this decorator is the
    runtime half of the contract (see the module docstring).
    """
    if inspect.isgeneratorfunction(fn) or inspect.isasyncgenfunction(fn):
        raise _simulation_error(
            f"atomic section {fn.__qualname__!r} is a generator function — "
            "a declared-atomic region must not contain yield"
        )

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not _GUARD_ENABLED:
            return fn(*args, **kwargs)
        _ATOMIC_STACK.append(fn.__qualname__)
        try:
            result = fn(*args, **kwargs)
        finally:
            _ATOMIC_STACK.pop()
        if isinstance(result, types.GeneratorType):
            raise _simulation_error(
                f"atomic section {fn.__qualname__!r} returned a generator — "
                "a yield was smuggled into its call path"
            )
        return result

    wrapper.__sim_atomic__ = True  # type: ignore[attr-defined]
    return cast(F, wrapper)


def enable_atomic_guard(enabled: bool = True) -> None:
    """Toggle the runtime guard (process-step refusal + generator-return
    detection).  Cheap enough for test suites; off by default so hot
    benchmark loops pay only a flag check."""
    global _GUARD_ENABLED
    _GUARD_ENABLED = enabled
    if not enabled:
        del _ATOMIC_STACK[:]


def atomic_guard_enabled() -> bool:
    """True while :func:`enable_atomic_guard` is in effect."""
    return _GUARD_ENABLED


def current_atomic_section() -> str:
    """Qualname of the innermost open atomic section ('' if none).

    Only meaningful while the guard is enabled — with it off, sections
    are never pushed onto the stack.
    """
    return _ATOMIC_STACK[-1] if _ATOMIC_STACK else ""


def is_atomic_section(fn: Callable[..., Any]) -> bool:
    """True for callables decorated with :func:`atomic_section`."""
    return bool(getattr(fn, "__sim_atomic__", False))
