"""Trace-phase schema registry and its static call-site validator.

The simulator's tracer is stringly typed: ``tracer.record(category,
label, **data)``.  The runtime invariant checkers
(:mod:`repro.lint.invariants`) dispatch on those strings, so a typo'd
label or a missing data field does not fail — it silently produces an
event no checker ever looks at.  This module closes that hole from both
ends:

- :data:`TRACE_SCHEMA` declares every trace category, every phase label
  inside it, and the data fields each phase requires (plus optional
  extras).  Phases a checker deliberately ignores are declared with
  ``checked=False`` so the registry stays the single source of truth.
- The ``trace-schema`` lint rule validates every ``*.record(...)`` call
  site statically against the registry: unknown categories, unknown or
  typo'd labels (with a did-you-mean suggestion), missing required
  fields, and stray fields are all violations at the call site.
- :func:`check_registry_coverage` cross-checks the registry against the
  checkers' handler tables: every handled label must be declared, and
  every declared phase must be either handled or explicitly marked
  ``checked=False``.

Trace *helpers* — methods like ``RfpClient._trace`` that wrap the
tracer and add implicit fields — are declared in :data:`TRACE_HELPERS`.
Calls through a registered helper are validated with the helper's
implicit fields credited; the dynamic label inside the helper body
itself is exempt.
"""

from __future__ import annotations

import ast
import difflib
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.lint.base import FileContext, Rule, Violation

__all__ = [
    "PhaseSpec",
    "TraceHelper",
    "TRACE_SCHEMA",
    "TRACE_HELPERS",
    "CHECKER_CATEGORIES",
    "SCHEMA_RULES",
    "check_registry_coverage",
    "collect_record_call_sites",
]


@dataclass(frozen=True)
class PhaseSpec:
    """One declared trace phase: its label and data-field contract."""

    label: str
    required: FrozenSet[str]
    optional: FrozenSet[str] = frozenset()
    #: False for phases deliberately not consumed by any runtime
    #: checker (fault-injection markers, best-effort diagnostics).
    checked: bool = True
    description: str = ""

    @property
    def allowed(self) -> FrozenSet[str]:
        return self.required | self.optional


def _phases(*specs: PhaseSpec) -> Dict[str, PhaseSpec]:
    return {spec.label: spec for spec in specs}


def _fs(*names: str) -> FrozenSet[str]:
    return frozenset(names)


#: category -> {label -> PhaseSpec}.  This is the single source of truth
#: for the trace vocabulary; the static rule, the coverage check, and
#: ``docs/lint.md`` all derive from it.
TRACE_SCHEMA: Dict[str, Dict[str, PhaseSpec]] = {
    "rfp.client": _phases(
        PhaseSpec(
            "request_sent",
            _fs("client", "channel", "seq", "bytes"),
            description="RPC request written into the server-side buffer.",
        ),
        PhaseSpec(
            "fetch_read",
            _fs("client", "channel", "seq", "attempt", "bytes"),
            description="One remote-fetch RDMA read attempt (size F).",
        ),
        PhaseSpec(
            "remainder_read",
            _fs("client", "channel", "seq", "bytes"),
            description="Second read for a response that exceeded F.",
        ),
        PhaseSpec(
            "fetch_success",
            _fs("client", "channel", "seq", "attempts"),
            description="Remote fetch observed a ready response.",
        ),
        PhaseSpec(
            "mode_switch",
            _fs("client", "channel", "seq", "to"),
            description="Hybrid policy switched the channel's mode.",
        ),
        PhaseSpec(
            "flag_published",
            _fs("client", "channel", "seq", "mode"),
            description="Mode flag written to the server-side byte.",
        ),
        PhaseSpec(
            "reply_received",
            _fs("client", "channel", "seq", "bytes"),
            description="Server-pushed reply landed in client memory.",
        ),
        PhaseSpec(
            "call_done",
            _fs("client", "channel", "seq", "latency_us", "mode"),
            description="Call completed; latency recorded.",
        ),
    ),
    "rfp.server": _phases(
        PhaseSpec(
            "response_published",
            _fs("client", "seq", "bytes", "response_time_us"),
            description="Response staged for remote fetch.",
        ),
        PhaseSpec(
            "reply_pushed",
            _fs("client", "seq", "bytes"),
            description="Server-reply mode: response written to client.",
        ),
        PhaseSpec(
            "mode_flag",
            _fs("client", "mode"),
            description="Server observed a client mode-flag write.",
        ),
    ),
    "cluster": _phases(
        PhaseSpec(
            "route",
            _fs("shard", "op", "client"),
            description="Cluster client routed an op to a shard.",
        ),
        PhaseSpec(
            "route_timeout",
            _fs("shard", "op", "client"),
            checked=False,
            description=(
                "Routed op timed out (diagnostic; the suspect/dead "
                "transitions it triggers are the checked phases)."
            ),
        ),
        PhaseSpec(
            "shard_killed",
            _fs("shard"),
            checked=False,
            description="Fault-injection marker: test killed a shard.",
        ),
        PhaseSpec(
            "suspect",
            _fs("shard", "reason"),
            description="Membership: HEALTHY shard turned SUSPECT.",
        ),
        PhaseSpec(
            "recovered",
            _fs("shard", "reason"),
            description="Membership: SUSPECT shard healed to HEALTHY.",
        ),
        PhaseSpec(
            "dead",
            _fs("shard", "reason"),
            description="Membership: shard declared DEAD.",
        ),
        PhaseSpec(
            "rejoin",
            _fs("shard", "reason"),
            description="Membership: DEAD shard re-admitted as RECOVERING.",
        ),
        PhaseSpec(
            "failover",
            _fs("shard", "successors"),
            description="Failover takeover decision for a dead shard.",
        ),
        PhaseSpec(
            "rebalance",
            _fs("removed", "survivors", "vnodes"),
            description="Ring surgery removing the dead shard's vnodes.",
        ),
        PhaseSpec(
            "migrate_start",
            _fs("shard", "reason", "donors", "vnodes", "target"),
            description=(
                "Range migration planned (shard = recipient, reason = "
                "recovery | rebalance)."
            ),
        ),
        PhaseSpec(
            "migrate_batch",
            _fs("shard", "reason", "donor", "keys", "bytes", "watermark", "target"),
            description="One migration batch pulled from a donor.",
        ),
        PhaseSpec(
            "migrate_replan",
            _fs("shard", "reason", "donors", "ring", "watermark", "target"),
            description="Migration re-planned after the ring changed mid-stream.",
        ),
        PhaseSpec(
            "migrate_cutover",
            _fs("shard", "reason", "donors", "watermark", "target"),
            optional=_fs("ring", "vnodes"),
            description=(
                "Atomic placement change onto the recipient: a recovery "
                "re-enters the ring, a rebalance flips token ownership."
            ),
        ),
        PhaseSpec(
            "migrate_abort",
            _fs("shard", "reason", "watermark", "target"),
            description="Migration abandoned; donors keep ownership.",
        ),
        PhaseSpec(
            "rebalance_pick",
            _fs("hot", "cold", "vnodes", "imbalance"),
            checked=False,
            description=(
                "Rebalance controller decision (diagnostic; the "
                "migrate_* phases it triggers are the checked ones)."
            ),
        ),
        PhaseSpec(
            "txn_begin",
            _fs("txn", "client", "keys", "participants"),
            description="Multi-key transaction opened (keys = declared count).",
        ),
        PhaseSpec(
            "txn_lock",
            _fs("txn", "key", "shard", "order"),
            description=(
                "Lock lease granted (key is hex, so trace order mirrors "
                "the sorted-bytes acquisition order the checker enforces)."
            ),
        ),
        PhaseSpec(
            "txn_commit",
            _fs("txn", "locks", "keys"),
            description=(
                "Atomic commit apply: every staged value installed and "
                "every lock released at one instant."
            ),
        ),
        PhaseSpec(
            "txn_abort",
            _fs("txn", "locks", "reason"),
            description="Transaction aborted; staging discarded, locks released.",
        ),
    ),
}


@dataclass(frozen=True)
class TraceHelper:
    """A method that wraps ``tracer.record`` and injects fields."""

    class_name: str
    method_name: str
    category: str
    implicit: FrozenSet[str] = field(default_factory=frozenset)


#: (class name, method name) -> helper spec.  Call sites
#: ``self.<method>(label, **data)`` inside the class are validated
#: against the helper's category with the implicit fields credited.
TRACE_HELPERS: Dict[Tuple[str, str], TraceHelper] = {
    ("RfpClient", "_trace"): TraceHelper(
        class_name="RfpClient",
        method_name="_trace",
        category="rfp.client",
        implicit=_fs("client", "channel"),
    ),
    # RangeMigration._trace is inherited; helpers resolve by enclosing
    # class name, so every migration client that calls it is listed.
    **{
        (name, "_trace"): TraceHelper(
            class_name=name,
            method_name="_trace",
            category="cluster",
            implicit=_fs("shard", "reason"),
        )
        for name in ("RangeMigration", "RecoveryCoordinator", "VnodeMigration")
    },
}


#: Which trace categories each runtime checker consumes.  Used by
#: :func:`check_registry_coverage` to pair handler tables with declared
#: phases.
CHECKER_CATEGORIES: Dict[str, FrozenSet[str]] = {
    "RfpInvariantChecker": _fs("rfp.client", "rfp.server"),
    "ClusterInvariantChecker": _fs("cluster"),
}


# ----------------------------------------------------------------------
# Static call-site validation
# ----------------------------------------------------------------------


def _receiver_terminal(func: ast.Attribute) -> Optional[str]:
    """Terminal identifier of the call receiver: ``a.b.record`` -> 'b'."""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _is_tracer_receiver(name: Optional[str]) -> bool:
    return name is not None and (name == "tracer" or name.endswith("_tracer"))


def _literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _suggest(word: str, candidates: Iterable[str]) -> str:
    matches = difflib.get_close_matches(word, list(candidates), n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def _iter_scoped_calls(
    tree: ast.Module,
) -> Iterator[Tuple[ast.Call, Optional[str], Optional[str]]]:
    """Yield every call with its enclosing (class, function) names."""

    def visit(
        node: ast.AST, class_name: Optional[str], func_name: Optional[str]
    ) -> Iterator[Tuple[ast.Call, Optional[str], Optional[str]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, class_name, child.name)
            else:
                if isinstance(child, ast.Call):
                    yield child, class_name, func_name
                yield from visit(child, class_name, func_name)

    yield from visit(tree, None, None)


def _validate_fields(
    context: FileContext,
    call: ast.Call,
    spec: PhaseSpec,
    implicit: FrozenSet[str],
    where: str,
) -> Iterator[Violation]:
    given: Set[str] = set(implicit)
    open_ended = False
    for keyword in call.keywords:
        if keyword.arg is None:  # **splat — cannot see what it carries
            open_ended = True
        else:
            given.add(keyword.arg)
    allowed = spec.allowed | implicit
    unknown = sorted(given - allowed)
    for name in unknown:
        yield Violation(
            path=context.path,
            line=call.lineno,
            col=call.col_offset,
            rule="trace-schema",
            message=(
                f"{where}: field {name!r} is not declared for phase "
                f"{spec.label!r}{_suggest(name, allowed)}; declared fields "
                f"are {sorted(allowed)}"
            ),
        )
    if not open_ended:
        for name in sorted(spec.required - given):
            yield Violation(
                path=context.path,
                line=call.lineno,
                col=call.col_offset,
                rule="trace-schema",
                message=(
                    f"{where}: phase {spec.label!r} requires field "
                    f"{name!r} which this call does not pass"
                ),
            )


def check_trace_schema(context: FileContext) -> Iterator[Violation]:
    for call, class_name, func_name in _iter_scoped_calls(context.tree):
        func = call.func
        if not isinstance(func, ast.Attribute):
            continue

        # --- registered helper call: self._trace(label, **data) -------
        helper = (
            TRACE_HELPERS.get((class_name, func.attr))
            if class_name is not None
            else None
        )
        if helper is not None and isinstance(func.value, ast.Name):
            phases = TRACE_SCHEMA[helper.category]
            if not call.args:
                continue
            label = _literal_str(call.args[0])
            if label is None:
                yield Violation(
                    path=context.path,
                    line=call.lineno,
                    col=call.col_offset,
                    rule="trace-schema",
                    message=(
                        f"trace helper {helper.class_name}."
                        f"{helper.method_name} called with a dynamic "
                        "label; phase labels must be string literals so "
                        "the schema can be checked statically"
                    ),
                )
                continue
            if label not in phases:
                yield Violation(
                    path=context.path,
                    line=call.lineno,
                    col=call.col_offset,
                    rule="trace-schema",
                    message=(
                        f"unknown phase {label!r} in category "
                        f"{helper.category!r}{_suggest(label, phases)}; "
                        "declare it in repro.lint.schema.TRACE_SCHEMA"
                    ),
                )
                continue
            yield from _validate_fields(
                context,
                call,
                phases[label],
                helper.implicit,
                where=f"{helper.category}/{label}",
            )
            continue

        # --- direct tracer.record(category, label, **data) ------------
        if func.attr != "record":
            continue
        if not _is_tracer_receiver(_receiver_terminal(func)):
            continue  # meter.record(value), stats.x.record(...) etc.
        if len(call.args) < 2:
            yield Violation(
                path=context.path,
                line=call.lineno,
                col=call.col_offset,
                rule="trace-schema",
                message=(
                    "tracer.record() must pass category and label as its "
                    "two positional arguments"
                ),
            )
            continue
        if len(call.args) > 2:
            yield Violation(
                path=context.path,
                line=call.lineno,
                col=call.col_offset,
                rule="trace-schema",
                message=(
                    "tracer.record() takes exactly two positional "
                    "arguments (category, label); pass data fields by "
                    "keyword"
                ),
            )
            continue
        category = _literal_str(call.args[0])
        if category is None:
            yield Violation(
                path=context.path,
                line=call.lineno,
                col=call.col_offset,
                rule="trace-schema",
                message=(
                    "tracer.record() called with a dynamic category; "
                    "categories must be string literals"
                ),
            )
            continue
        if category not in TRACE_SCHEMA:
            yield Violation(
                path=context.path,
                line=call.lineno,
                col=call.col_offset,
                rule="trace-schema",
                message=(
                    f"unknown trace category {category!r}"
                    f"{_suggest(category, TRACE_SCHEMA)}; declare it in "
                    "repro.lint.schema.TRACE_SCHEMA"
                ),
            )
            continue
        phases = TRACE_SCHEMA[category]
        label = _literal_str(call.args[1])
        if label is None:
            in_helper = (class_name, func_name) in TRACE_HELPERS
            if not in_helper:
                yield Violation(
                    path=context.path,
                    line=call.lineno,
                    col=call.col_offset,
                    rule="trace-schema",
                    message=(
                        "tracer.record() called with a dynamic label "
                        "outside a registered trace helper; use literal "
                        "labels or register the helper in "
                        "repro.lint.schema.TRACE_HELPERS"
                    ),
                )
            continue
        if label not in phases:
            yield Violation(
                path=context.path,
                line=call.lineno,
                col=call.col_offset,
                rule="trace-schema",
                message=(
                    f"unknown phase {label!r} in category {category!r}"
                    f"{_suggest(label, phases)}; declare it in "
                    "repro.lint.schema.TRACE_SCHEMA"
                ),
            )
            continue
        yield from _validate_fields(
            context,
            call,
            phases[label],
            frozenset(),
            where=f"{category}/{label}",
        )


# ----------------------------------------------------------------------
# Registry <-> checker coverage
# ----------------------------------------------------------------------


def check_registry_coverage(
    registry: Optional[Mapping[str, Mapping[str, PhaseSpec]]] = None,
    handled: Optional[Mapping[str, Set[str]]] = None,
) -> List[str]:
    """Cross-check the registry against the runtime checkers.

    Returns a list of human-readable problems (empty when consistent):

    - a checker handles a label no declared phase carries;
    - a phase declared ``checked=True`` that no checker handles;
    - a phase declared ``checked=False`` that a checker *does* handle
      (the declaration is stale — flip it back to checked).

    ``registry`` and ``handled`` exist for tests; by default the real
    :data:`TRACE_SCHEMA` and the live checkers' handler tables are used.
    """
    if registry is None:
        registry = TRACE_SCHEMA
    if handled is None:
        # Imported lazily: invariants is runtime machinery and pulls in
        # nothing static, but keep the static layer importable alone.
        from repro.lint.invariants import (
            ClusterInvariantChecker,
            RfpInvariantChecker,
        )

        handled = {
            "RfpInvariantChecker": set(RfpInvariantChecker()._handlers),
            "ClusterInvariantChecker": set(ClusterInvariantChecker()._handlers),
        }

    problems: List[str] = []
    for checker_name in sorted(handled):
        categories = CHECKER_CATEGORIES.get(checker_name)
        if categories is None:
            problems.append(
                f"checker {checker_name!r} is not mapped to any category "
                "in repro.lint.schema.CHECKER_CATEGORIES"
            )
            continue
        declared = {
            label
            for category in categories
            for label in registry.get(category, {})
        }
        for label in sorted(set(handled[checker_name]) - declared):
            problems.append(
                f"{checker_name} handles label {label!r} but no phase "
                f"with that label is declared in {sorted(categories)}"
            )

    for category in sorted(registry):
        handled_here: Set[str] = set()
        for checker_name, categories in CHECKER_CATEGORIES.items():
            if category in categories:
                handled_here |= set(handled.get(checker_name, set()))
        for label in sorted(registry[category]):
            spec = registry[category][label]
            if spec.checked and label not in handled_here:
                problems.append(
                    f"phase {category}/{label} is declared checked but no "
                    "checker handles it; handle it or declare it with "
                    "checked=False"
                )
            elif not spec.checked and label in handled_here:
                problems.append(
                    f"phase {category}/{label} is declared checked=False "
                    "but a checker handles it; flip the declaration back"
                )
    return problems


# ----------------------------------------------------------------------
# Call-site discovery (used by the tier-1 gate to prove coverage)
# ----------------------------------------------------------------------


def collect_record_call_sites(
    paths: Iterable[str],
) -> List[Tuple[str, int, Optional[str], Optional[str]]]:
    """Every tracer ``record``/helper call under ``paths``.

    Returns ``(path, lineno, category, label)`` tuples; ``category`` or
    ``label`` is ``None`` when dynamic.  Parses files directly so the
    gate can assert the schema rule actually *sees* the sites it claims
    to validate (a discovery regression would otherwise silently pass).
    """
    from repro.lint.engine import iter_python_files

    sites: List[Tuple[str, int, Optional[str], Optional[str]]] = []
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
        except (OSError, SyntaxError):
            continue
        for call, class_name, _func_name in _iter_scoped_calls(tree):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            helper = (
                TRACE_HELPERS.get((class_name, func.attr))
                if class_name is not None
                else None
            )
            if helper is not None and isinstance(func.value, ast.Name):
                label = _literal_str(call.args[0]) if call.args else None
                sites.append((path, call.lineno, helper.category, label))
                continue
            if func.attr != "record":
                continue
            if not _is_tracer_receiver(_receiver_terminal(func)):
                continue
            category = _literal_str(call.args[0]) if call.args else None
            label = _literal_str(call.args[1]) if len(call.args) > 1 else None
            sites.append((path, call.lineno, category, label))
    return sites


SCHEMA_RULES: Tuple[Rule, ...] = (
    Rule(
        name="trace-schema",
        description=(
            "tracer.record()/helper call sites must use declared "
            "categories, declared literal labels, and the declared data "
            "fields for each phase."
        ),
        check=check_trace_schema,
    ),
)
