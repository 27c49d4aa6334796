"""Atomicity analyzer: call graph, atomic-section proofs, RMW, listeners."""

import ast
import os

from repro.lint import lint_file, lint_source
from repro.lint.base import FileContext
from repro.lint.callgraph import ProjectIndex
from repro.lint.rules import ALL_RULES

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def lint_fixture(filename, rule_name):
    rules = [rule for rule in ALL_RULES if rule.name == rule_name]
    assert rules, f"unknown rule {rule_name}"
    return lint_file(os.path.join(FIXTURES, filename), rules=rules)


def lint_with(source, rule_name, path="model/component.py"):
    rules = [rule for rule in ALL_RULES if rule.name == rule_name]
    return lint_source(source, path=path, rules=rules)


def build_index(source, path="model/component.py"):
    return ProjectIndex.build(
        [FileContext(path=path, tree=ast.parse(source), source=source)]
    )


class TestCallGraph:
    SOURCE = (
        "def helper():\n"
        "    return 1\n"
        "\n"
        "def waiter(sim):\n"
        "    yield sim.timeout(1.0)\n"
        "\n"
        "def data_gen(items):\n"
        "    for item in items:\n"
        "        yield item, item\n"
        "\n"
        "class Node:\n"
        "    def fast(self):\n"
        "        return helper()\n"
        "\n"
        "    def slow(self, sim):\n"
        "        return self.fast() or waiter(sim)\n"
    )

    def test_yield_classification(self):
        index = build_index(self.SOURCE)
        waiter = index.find(None, "waiter")
        assert waiter.is_generator and waiter.yields
        data = index.find(None, "data_gen")
        assert data.is_generator and not data.yields
        helper = index.find(None, "helper")
        assert not helper.is_generator and not helper.yields

    def test_self_and_bare_resolution(self):
        index = build_index(self.SOURCE)
        slow = index.find("Node", "slow")
        kinds = {(c.kind, c.name) for c in slow.calls}
        assert ("self", "fast") in kinds
        assert ("bare", "waiter") in kinds
        fast_call = next(c for c in slow.calls if c.name == "fast")
        assert index.resolve(slow, fast_call) is index.find("Node", "fast")

    def test_yield_path_reports_the_chain(self):
        index = build_index(self.SOURCE)
        slow = index.find("Node", "slow")
        chain = index.yield_path(slow)
        assert chain is not None
        assert [info.qualname for info, _call in chain] == [
            "Node.slow",
            "waiter",
        ]
        assert index.yield_path(index.find("Node", "fast")) is None

    def test_ambiguous_attr_calls_are_not_followed(self):
        source = (
            "class A:\n"
            "    def hit(self, sim):\n"
            "        yield sim.timeout(1.0)\n"
            "\n"
            "class B:\n"
            "    def hit(self):\n"
            "        return 2\n"
            "\n"
            "def go(thing):\n"
            "    return thing.hit()\n"
        )
        index = build_index(source)
        go = index.find(None, "go")
        call = go.calls[0]
        assert call.kind == "attr"
        assert index.resolve(go, call) is None  # two 'hit' definitions

    def test_base_class_methods_resolve_same_module(self):
        source = (
            "class Base:\n"
            "    def step(self, sim):\n"
            "        yield sim.timeout(1.0)\n"
            "\n"
            "class Child(Base):\n"
            "    def run(self, sim):\n"
            "        return self.step(sim)\n"
        )
        index = build_index(source)
        child_run = index.find("Child", "run")
        assert index.yield_path(child_run) is not None


class TestAtomicSectionYields:
    def test_fixture_violations(self):
        violations = lint_fixture("bad_atomic_yield.py", "atomic-section-yields")
        assert [v.line for v in violations] == [16, 20, 27]
        direct, transitive, comment = violations
        assert "contains yield" in direct.message
        assert "Surgeon._confirm" in transitive.message
        assert "wait_for_ack" in transitive.message
        assert "comment_contract" in comment.message

    def test_clean_atomic_function_passes(self):
        violations = lint_fixture("bad_atomic_yield.py", "atomic-section-yields")
        assert all("clean" not in v.message for v in violations)

    def test_data_generator_calls_are_not_sim_time(self):
        source = (
            "def pairs():\n"
            "    yield 1, 2\n"
            "\n"
            "def surgery(state):  # sim: atomic\n"
            "    return dict(pairs())\n"
        )
        assert lint_with(source, "atomic-section-yields") == []

    def test_direct_delay_yields_are_sim_time(self):
        # The engine's ``yield <number>`` fast path suspends the process
        # just like ``yield sim.timeout(n)``; the analyzer must chase
        # atomic sections into functions whose only yield is numeric.
        violations = lint_fixture(
            "bad_ready_dispatch.py", "atomic-section-yields"
        )
        assert [v.line for v in violations] == [22, 25]
        via_constant, via_arith = violations
        assert "settle" in via_constant.message
        assert "pace" in via_arith.message
        assert all("flip_now" not in v.message for v in violations)

    def test_comment_contract_without_import(self):
        source = (
            "def waiter(sim):\n"
            "    yield sim.timeout(1.0)\n"
            "\n"
            "def surgery(sim):  # sim: atomic\n"
            "    return waiter(sim)\n"
        )
        (violation,) = lint_with(source, "atomic-section-yields")
        assert violation.line == 4

    def test_cycles_terminate(self):
        source = (
            "def a():  # sim: atomic\n"
            "    return b()\n"
            "\n"
            "def b():\n"
            "    return a()\n"
        )
        assert lint_with(source, "atomic-section-yields") == []


class TestCrossYieldRmw:
    def test_fixture_flags_only_the_stale_writeback(self):
        (violation,) = lint_fixture("bad_cross_yield_rmw.py", "cross-yield-rmw")
        assert violation.line == 8
        assert "self.ring" in violation.message

    def test_revalidated_and_augmented_are_clean(self):
        violations = lint_fixture("bad_cross_yield_rmw.py", "cross-yield-rmw")
        assert [v.line for v in violations] == [8]

    def test_write_before_any_yield_is_clean(self):
        source = (
            "class C:\n"
            "    def run(self, sim):\n"
            "        self.state = self.state + 1\n"
            "        yield sim.timeout(1.0)\n"
        )
        assert lint_with(source, "cross-yield-rmw") == []

    def test_reread_in_write_statement_counts(self):
        source = (
            "class C:\n"
            "    def run(self, sim):\n"
            "        snapshot = self.state\n"
            "        yield sim.timeout(1.0)\n"
            "        self.state = self.state + snapshot\n"
        )
        assert lint_with(source, "cross-yield-rmw") == []


class TestListenerMustNotYield:
    def test_fixture_violations(self):
        violations = lint_fixture("bad_listener_yield.py", "listener-must-not-yield")
        assert [v.line for v in violations] == [10, 11]
        assert "Watcher._watch" in violations[0].message
        assert "on_change" in violations[1].message

    def test_plain_function_listener_is_clean(self):
        violations = lint_fixture("bad_listener_yield.py", "listener-must-not-yield")
        assert all("_note" not in v.message for v in violations)


class TestRepoAnnotations:
    """The real cluster layer carries (and satisfies) the contract."""

    def test_cluster_atomic_sections_are_declared_and_proven(self):
        root = os.path.dirname(os.path.dirname(FIXTURES))
        src = os.path.join(os.path.dirname(root), "src")
        from repro.lint.engine import iter_python_files

        # Index the full src tree, matching the repo-wide gate: over a
        # narrower scope, ambiguous names like ``put`` resolve uniquely
        # and manufacture chains the real run never follows.
        contexts = []
        for path in iter_python_files([os.path.join(src, "repro")]):
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            contexts.append(
                FileContext(path=path, tree=ast.parse(text), source=text)
            )
        index = ProjectIndex.build(contexts)
        declared = {f.qualname for f in index.functions if f.atomic_declared}
        for expected in (
            "FailoverCoordinator._on_status_change",
            "FailoverCoordinator.reinstate",
            "Membership.promote",
            "Membership._transition",
            "RangeMigration.note_write",
            "RangeMigration._replan",
            "RangeMigration._finish_aborted",
            "RecoveryCoordinator._on_status_change",
            "RecoveryCoordinator._cutover",
            "VnodeMigration._on_status_change",
            "VnodeMigration._cutover",
            "RfpCluster.kill",
        ):
            assert expected in declared, f"missing atomic annotation: {expected}"
        for info in index.functions:
            if info.atomic_declared:
                assert not info.is_generator, info.qualname
                assert index.yield_path(info) is None, info.qualname
