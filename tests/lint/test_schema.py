"""Trace-phase schema: call-site rule, helpers, and registry coverage."""

import os

from repro.lint import lint_file, lint_source
from repro.lint.rules import ALL_RULES
from repro.lint.schema import (
    CHECKER_CATEGORIES,
    TRACE_HELPERS,
    TRACE_SCHEMA,
    PhaseSpec,
    check_registry_coverage,
    collect_record_call_sites,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")

SCHEMA_ONLY = [rule for rule in ALL_RULES if rule.name == "trace-schema"]


def lint_with(source, path="model/component.py"):
    return lint_source(source, path=path, rules=SCHEMA_ONLY)


class TestTraceSchemaRule:
    def test_fixture_violations(self):
        violations = lint_file(
            os.path.join(FIXTURES, "bad_trace_schema.py"), rules=SCHEMA_ONLY
        )
        assert [v.line for v in violations] == [9, 12, 15, 18, 21, 24]

    def test_typo_gets_a_suggestion(self):
        violations = lint_file(
            os.path.join(FIXTURES, "bad_trace_schema.py"), rules=SCHEMA_ONLY
        )
        typo = violations[0]
        assert "migrate_cutovr" in typo.message
        assert "'migrate_cutover'" in typo.message

    def test_missing_required_field(self):
        violations = lint_file(
            os.path.join(FIXTURES, "bad_trace_schema.py"), rules=SCHEMA_ONLY
        )
        assert "requires field 'successors'" in violations[1].message

    def test_clean_call_sites_pass(self):
        source = (
            "class S:\n"
            "    def ok(self, shard):\n"
            "        self.tracer.record('cluster', 'shard_killed', shard=shard)\n"
        )
        assert lint_with(source) == []

    def test_splat_is_open_but_extras_still_flagged(self):
        clean = (
            "class S:\n"
            "    def ok(self, **data):\n"
            "        self.tracer.record('cluster', 'route', **data)\n"
        )
        assert lint_with(clean) == []
        dirty = (
            "class S:\n"
            "    def bad(self, **data):\n"
            "        self.tracer.record('cluster', 'route', color='red', **data)\n"
        )
        (violation,) = lint_with(dirty)
        assert "'color'" in violation.message

    def test_non_tracer_record_calls_are_ignored(self):
        source = (
            "class S:\n"
            "    def ok(self, meter, value):\n"
            "        meter.record(value)\n"
            "        self.stats.latency_us.record(value)\n"
        )
        assert lint_with(source) == []

    def test_underscore_tracer_receivers_are_checked(self):
        source = (
            "class S:\n"
            "    def bad(self):\n"
            "        self.my_tracer.record('cluster', 'nope')\n"
        )
        (violation,) = lint_with(source)
        assert "unknown phase 'nope'" in violation.message


class TestTraceHelpers:
    def test_helper_call_with_implicit_fields_is_clean(self):
        source = (
            "class RfpClient:\n"
            "    def go(self):\n"
            "        self._trace('fetch_success', seq=1, attempts=2)\n"
        )
        assert lint_with(source) == []

    def test_helper_call_missing_field_is_flagged(self):
        source = (
            "class RfpClient:\n"
            "    def go(self):\n"
            "        self._trace('fetch_success', seq=1)\n"
        )
        (violation,) = lint_with(source)
        assert "requires field 'attempts'" in violation.message

    def test_helper_call_with_typo_label_is_flagged(self):
        source = (
            "class RfpClient:\n"
            "    def go(self):\n"
            "        self._trace('fetch_sucess', seq=1, attempts=2)\n"
        )
        (violation,) = lint_with(source)
        assert "'fetch_success'" in violation.message

    def test_dynamic_label_inside_registered_helper_is_exempt(self):
        source = (
            "class RfpClient:\n"
            "    def _trace(self, label, **data):\n"
            "        self.tracer.record('rfp.client', label, client=1, channel=2, **data)\n"
        )
        assert lint_with(source) == []

    def test_same_method_name_in_other_class_is_not_a_helper(self):
        source = (
            "class Unrelated:\n"
            "    def go(self):\n"
            "        self._trace('whatever', x=1)\n"
        )
        assert lint_with(source) == []


class TestRegistryCoverage:
    REGISTRY = {
        "cluster": {
            "route": PhaseSpec("route", frozenset({"shard"})),
            "shard_killed": PhaseSpec(
                "shard_killed", frozenset({"shard"}), checked=False
            ),
        }
    }

    def test_real_registry_is_consistent(self):
        assert check_registry_coverage() == []

    def test_handled_but_undeclared_phase_is_reported(self):
        problems = check_registry_coverage(
            registry=self.REGISTRY,
            handled={"ClusterInvariantChecker": {"route", "mystery"}},
        )
        assert any("mystery" in p for p in problems)

    def test_declared_checked_but_unhandled_is_reported(self):
        problems = check_registry_coverage(
            registry=self.REGISTRY,
            handled={"ClusterInvariantChecker": set()},
        )
        assert any("cluster/route" in p and "no checker handles" in p for p in problems)

    def test_declared_unchecked_but_handled_is_reported(self):
        problems = check_registry_coverage(
            registry=self.REGISTRY,
            handled={"ClusterInvariantChecker": {"route", "shard_killed"}},
        )
        assert any("shard_killed" in p and "checked=False" in p for p in problems)

    def test_unmapped_checker_is_reported(self):
        problems = check_registry_coverage(
            registry=self.REGISTRY,
            handled={"BrandNewChecker": {"route"}},
        )
        assert any("BrandNewChecker" in p for p in problems)

    def test_every_checker_has_categories(self):
        assert set(CHECKER_CATEGORIES) == {
            "RfpInvariantChecker",
            "ClusterInvariantChecker",
        }


class TestCallSiteDiscovery:
    def test_known_sites_are_discovered(self):
        sites = collect_record_call_sites([SRC])
        labels = {(category, label) for _p, _l, category, label in sites}
        # Direct tracer.record sites and migration-helper sites (which
        # resolve to the helper's category) across the cluster layer.
        for expected in (
            ("cluster", "migrate_start"),
            ("cluster", "migrate_batch"),
            ("cluster", "migrate_replan"),
            ("cluster", "migrate_cutover"),
            ("cluster", "migrate_abort"),
            ("cluster", "failover"),
            ("cluster", "shard_killed"),
            ("rfp.server", "response_published"),
        ):
            assert expected in labels, f"discovery lost {expected}"
        # Helper sites resolve to the helper's category.
        client_labels = {
            label for _p, _l, category, label in sites if category == "rfp.client"
        }
        assert "request_sent" in client_labels
        assert "call_done" in client_labels

    def test_every_discovered_literal_site_is_declared(self):
        for path, lineno, category, label in collect_record_call_sites([SRC]):
            if category is None:
                continue
            assert category in TRACE_SCHEMA, f"{path}:{lineno}: {category}"
            if label is not None:
                assert label in TRACE_SCHEMA[category], f"{path}:{lineno}: {label}"

    def test_dynamic_labels_only_inside_registered_helpers(self):
        dynamic = [
            (path, lineno)
            for path, lineno, category, label in collect_record_call_sites([SRC])
            if label is None
        ]
        # The only dynamic-label sites are the bodies of the registered
        # helpers RfpClient._trace and RangeMigration._trace, which the
        # schema rule exempts.
        assert len(dynamic) <= 2
        for path, _lineno in dynamic:
            assert path.endswith(("core/client.py", "cluster/migration.py")), path

    def test_helper_registry_matches_source(self):
        assert ("RfpClient", "_trace") in TRACE_HELPERS
        helper = TRACE_HELPERS[("RfpClient", "_trace")]
        assert helper.category == "rfp.client"
        assert helper.implicit == frozenset({"client", "channel"})
        # The migration engine's one helper, credited in every client.
        for owner in ("RangeMigration", "RecoveryCoordinator", "VnodeMigration"):
            helper = TRACE_HELPERS[(owner, "_trace")]
            assert helper.category == "cluster"
            assert helper.implicit == frozenset({"shard", "reason"})
