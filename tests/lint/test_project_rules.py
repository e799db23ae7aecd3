"""PAR001 / OBS002 / DEAD001 over the committed fixture project trees."""

from __future__ import annotations

import pathlib

from repro.lint import ProjectIndex, all_rules, get_rules
from repro.lint.graph import LayerRule
from repro.lint.rules import (
    ClockBoundaryRule,
    DeadExportRule,
    DeterminismRule,
    ExactnessRule,
    FrozenMutationRule,
    MetricNameRule,
    PoolSafetyRule,
)

PROJECTS = pathlib.Path(__file__).parent / "fixtures" / "projects"


def check(code: str, tree: pathlib.Path):
    (rule,) = get_rules([code])
    return sorted(rule.check_project(ProjectIndex.build(tree)))


class TestRegistryClasses:
    def test_every_rule_class_is_registered_under_its_code(self):
        by_code = {r.code: type(r) for r in all_rules()}
        assert by_code["EXACT001"] is ExactnessRule
        assert by_code["DET001"] is DeterminismRule
        assert by_code["LAYER001"] is LayerRule
        assert by_code["OBS001"] is ClockBoundaryRule
        assert by_code["FROZEN001"] is FrozenMutationRule
        assert by_code["PAR001"] is PoolSafetyRule
        assert by_code["OBS002"] is MetricNameRule
        assert by_code["DEAD001"] is DeadExportRule


class TestPoolSafety:
    def test_flags_every_hazard_once(self):
        findings = check("PAR001", PROJECTS / "par_bad")
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("PAR001", "src/repro/runner/exec.py", 17),
            ("PAR001", "src/repro/runner/exec.py", 18),
            ("PAR001", "src/repro/runner/exec.py", 19),
            ("PAR001", "src/repro/runner/exec.py", 24),
            ("PAR001", "src/repro/runner/exec.py", 30),
            ("PAR001", "src/repro/runner/hooks.py", 3),
        ]
        text = " | ".join(f.message for f in findings)
        assert "lambda" in text
        assert "call-result" in text
        assert "mutates module globals" in text
        assert "nested function" in text
        assert "bound-method" in text
        assert "chaos env literal" in text

    def test_chaos_literal_points_at_its_line(self):
        findings = check("PAR001", PROJECTS / "par_bad")
        chaos = next(f for f in findings if "chaos" in f.message)
        assert chaos.path == "src/repro/runner/hooks.py"
        assert chaos.line == 3

    def test_clean_tree_passes(self):
        # Module-level workers, imported workers, and the chaos env
        # literal living in repro.runner.resilience are all fine.
        assert check("PAR001", PROJECTS / "par_clean") == []

    def test_real_repository_pool_sites_are_safe(self, real_tree):
        (rule,) = get_rules(["PAR001"])
        assert list(rule.check_project(real_tree.index)) == []


class TestMetricNames:
    def test_flags_inline_unknown_attr_and_unknown_import(self):
        findings = check("OBS002", PROJECTS / "obs2_bad")
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("OBS002", "src/repro/runner/exec.py", 2),
            ("OBS002", "src/repro/runner/exec.py", 6),
            ("OBS002", "src/repro/runner/exec.py", 7),
        ]
        text = " | ".join(f.message for f in findings)
        assert "inline instrumentation name" in text
        assert "names.NOPE" in text
        assert "MISSING" in text

    def test_constants_and_bare_names_pass(self):
        assert check("OBS002", PROJECTS / "obs2_clean") == []

    def test_real_repository_instrumentation_is_clean(self, real_tree):
        (rule,) = get_rules(["OBS002"])
        assert list(rule.check_project(real_tree.index)) == []


class TestDeadExports:
    def test_flags_only_the_unreferenced_export(self):
        findings = check("DEAD001", PROJECTS / "dead_bad")
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("DEAD001", "src/repro/core/util.py", 1),
        ]
        (finding,) = findings
        assert "repro.core.util.unused" in finding.message
        assert finding.path == "src/repro/core/util.py"
        assert finding.line == 1  # the __all__ entry's line

    def test_referenced_and_script_backed_exports_pass(self):
        assert check("DEAD001", PROJECTS / "dead_clean") == []

    def test_package_init_reexport_surfaces_exempt(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text(
            '__all__ = ["nobody_imports_me"]\n'
            "def nobody_imports_me():\n"
            "    return 1\n"
        )
        assert check("DEAD001", tmp_path) == []
