"""reprolint framework: registry, suppressions, module mapping, driver."""

from __future__ import annotations

import ast
import collections
import tokenize

import pytest

from repro.lint import (
    Suppressions,
    all_rules,
    get_rules,
    lint_paths,
    lint_source,
    module_name_for_path,
)
from repro.lint.framework import (
    PARSE_ERROR_CODE,
    UNUSED_SUPPRESSION_CODE,
    find_project_root,
)

EXPECTED_CODES = {
    "DEAD001", "DET001", "EXACT001", "FROZEN001", "LAYER001", "OBS001",
    "OBS002", "PAR001",
}


class TestRegistry:
    def test_all_builtin_rules_registered(self):
        assert {r.code for r in all_rules()} == EXPECTED_CODES

    def test_rules_carry_name_and_description(self):
        for rule in all_rules():
            assert rule.name and rule.description, rule.code

    def test_get_rules_by_code(self):
        (rule,) = get_rules(["EXACT001"])
        assert rule.code == "EXACT001"

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rules(["NOPE999"])


class TestModuleMapping:
    def test_package_module(self):
        assert (
            module_name_for_path("src/repro/core/single.py")
            == "repro.core.single"
        )

    def test_init_maps_to_package(self):
        assert module_name_for_path("src/repro/runner/__init__.py") == "repro.runner"

    def test_outside_repro_tree(self):
        assert module_name_for_path("tests/lint/fixtures/exact_bad.py") == ""

    def test_repro_root_init(self):
        assert module_name_for_path("src/repro/__init__.py") == "repro"

    def test_last_repro_component_wins(self):
        # Vendored or nested checkouts anchor at the innermost tree.
        assert (
            module_name_for_path("vendor/repro/stuff/repro/core/x.py")
            == "repro.core.x"
        )

    def test_bare_repro_directory(self):
        assert module_name_for_path("repro/obs/trace.py") == "repro.obs.trace"


class TestFindProjectRoot:
    def test_walks_up_to_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("")
        deep = tmp_path / "src" / "repro" / "core"
        deep.mkdir(parents=True)
        assert find_project_root(deep) == tmp_path

    def test_accepts_a_file_start(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("")
        target = tmp_path / "src"
        target.mkdir()
        (target / "x.py").write_text("")
        assert find_project_root(target / "x.py") == tmp_path

    def test_root_itself_wins_over_ancestors(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("")
        nested = tmp_path / "inner"
        nested.mkdir()
        (nested / "pyproject.toml").write_text("")
        assert find_project_root(nested) == nested

    def test_none_without_pyproject(self, tmp_path):
        deep = tmp_path / "a" / "b"
        deep.mkdir(parents=True)
        assert find_project_root(deep) is None


class TestSuppressions:
    def test_same_line(self):
        s = Suppressions.parse("x = a / b  # reprolint: disable=EXACT001\n")
        assert s.is_suppressed("EXACT001", 1)
        assert not s.is_suppressed("DET001", 1)

    def test_disable_next(self):
        src = "# reprolint: disable-next=DET001\nimport random\n"
        s = Suppressions.parse(src)
        assert s.is_suppressed("DET001", 2)
        assert not s.is_suppressed("DET001", 1)

    def test_disable_file(self):
        s = Suppressions.parse("# reprolint: disable-file=LAYER001\n\nx = 1\n")
        assert s.is_suppressed("LAYER001", 3)

    def test_disable_all(self):
        s = Suppressions.parse("x = 1.0  # reprolint: disable=all\n")
        assert s.is_suppressed("EXACT001", 1)
        assert s.is_suppressed("FROZEN001", 1)

    def test_comma_separated(self):
        s = Suppressions.parse("x = y  # reprolint: disable=EXACT001, DET001\n")
        assert s.is_suppressed("EXACT001", 1)
        assert s.is_suppressed("DET001", 1)
        assert not s.is_suppressed("LAYER001", 1)

    def test_suppressed_finding_dropped_by_driver(self):
        findings = lint_source(
            "x = 1 / 3  # reprolint: disable=EXACT001\n",
            module="repro.core.fixture",
        )
        assert findings == []

    def test_multiple_directives_on_one_line(self):
        # The parser honours every directive, not just the first match.
        s = Suppressions.parse(
            "x = y  "
            "# reprolint: disable=EXACT001  # reprolint: disable=DET001\n"
        )
        assert s.is_suppressed("EXACT001", 1)
        assert s.is_suppressed("DET001", 1)
        assert not s.is_suppressed("LAYER001", 1)

    def test_multiple_directives_drop_both_findings(self):
        src = (
            "import time\n"
            "x = time.time() / 3  "
            "# reprolint: disable=EXACT001  # reprolint: disable=DET001\n"
        )
        assert lint_source(src, module="repro.core.fixture") == []

    def test_precedence_is_union_not_override(self):
        # disable-file, disable-next and disable all apply
        # independently; any matching waiver suppresses.
        src = (
            "# reprolint: disable-file=EXACT001\n"
            "# reprolint: disable-next=DET001\n"
            "x = 1\n"
        )
        s = Suppressions.parse(src)
        assert s.is_suppressed("EXACT001", 99)   # file-wide
        assert s.is_suppressed("DET001", 3)      # next line only
        assert not s.is_suppressed("DET001", 4)
        assert not s.is_suppressed("LAYER001", 3)

    def test_unused_tracking(self):
        s = Suppressions.parse(
            "a = 1  # reprolint: disable=EXACT001,DET001\n"
        )
        s.is_suppressed("EXACT001", 1)
        stale = s.unused({"EXACT001", "DET001"})
        assert stale == [(1, "DET001")]

    def test_unused_ignores_inactive_rules(self):
        s = Suppressions.parse("a = 1  # reprolint: disable=DET001\n")
        # DET001 did not run this invocation: its waiver is not stale.
        assert s.unused({"EXACT001"}) == []


class TestDriver:
    def test_module_override_controls_scope(self):
        src = "x = 1 / 3\n"
        assert lint_source(src, module="repro.core.fixture")
        # Out of EXACT001 scope: the same source is clean.
        assert not lint_source(src, module="repro.viz.fixture")

    def test_syntax_error_reported_as_finding(self):
        (finding,) = lint_source("def broken(:\n", path="bad.py")
        assert finding.rule == PARSE_ERROR_CODE
        assert "does not parse" in finding.message

    def test_null_byte_reported_as_finding(self):
        # ast.parse raises bare ValueError (not SyntaxError) on null
        # bytes; the driver must report, not crash.
        (finding,) = lint_source("x = 1\x00\n", path="hostile.py")
        assert finding.rule == PARSE_ERROR_CODE
        assert "does not parse" in finding.message

    def test_null_byte_file_on_disk(self, tmp_path):
        hostile = tmp_path / "src"
        hostile.mkdir()
        (hostile / "h.py").write_bytes(b"x = 1\x00\n")
        report = lint_paths([hostile], root=tmp_path)
        assert [f.rule for f in report.findings] == [PARSE_ERROR_CODE]

    def test_findings_sorted_by_location(self):
        src = "y = 2.0\nx = 1 / 3\n"
        findings = lint_source(src, module="repro.core.fixture")
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_lint_paths_counts_files(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        report = lint_paths([tmp_path], root=tmp_path)
        assert report.files_checked == 2
        assert report.clean


class TestUnusedSuppressionReport:
    def _tree(self, tmp_path, source):
        (tmp_path / "pyproject.toml").write_text("")
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(source)
        return tmp_path

    def test_stale_waiver_flagged(self, tmp_path):
        tree = self._tree(tmp_path, "x = 1  # reprolint: disable=EXACT001\n")
        report = lint_paths([tree / "src"], root=tree)
        (finding,) = report.findings
        assert finding.rule == UNUSED_SUPPRESSION_CODE
        assert "EXACT001" in finding.message
        assert finding.line == 1

    def test_live_waiver_not_flagged(self, tmp_path):
        tree = self._tree(
            tmp_path, "x = 1 / 3  # reprolint: disable=EXACT001\n"
        )
        report = lint_paths([tree / "src"], root=tree)
        assert report.clean, [f.render() for f in report.findings]

    def test_project_rule_waiver_counts_as_used(self, tmp_path):
        # A DEAD001 finding comes from the whole-program pass; waiving
        # it keeps the waiver alive in the linted file.
        tree = self._tree(
            tmp_path,
            '__all__ = ["nope"]  # reprolint: disable=DEAD001\n\n\n'
            "def nope():\n    return 0\n",
        )
        report = lint_paths([tree / "src"], root=tree)
        assert report.clean, [f.render() for f in report.findings]


class TestOnePass:
    def test_each_file_parsed_and_tokenised_once(self, tmp_path, monkeypatch):
        (tmp_path / "pyproject.toml").write_text("")
        files = {
            "src/repro/__init__.py": "ROOT = 0\n",
            "src/repro/core/__init__.py": "CORE = 1\n",
            "src/repro/core/mod.py": "x = 1 / 3  # reprolint: disable=EXACT001\n",
            "tests/test_mod.py": "def test_x():\n    assert True\n",
            "tools/gen.py": "GEN = 2\n",  # indexed, not linted
            "extra/outside.py": "OUT = 3\n",  # linted, not indexed
        }
        for rel, text in files.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(text)
        parsed: collections.Counter[str] = collections.Counter()
        tokenised: collections.Counter[str] = collections.Counter()
        real_parse, real_tokens = ast.parse, tokenize.generate_tokens

        def parse(source, *args, **kwargs):
            parsed[source] += 1
            return real_parse(source, *args, **kwargs)

        def tokens(readline):
            tokenised[readline.__self__.getvalue()] += 1
            return real_tokens(readline)

        monkeypatch.setattr(ast, "parse", parse)
        monkeypatch.setattr(tokenize, "generate_tokens", tokens)
        report = lint_paths(
            [tmp_path / "src", tmp_path / "tests", tmp_path / "extra"],
            root=tmp_path,
        )
        assert report.clean, [f.render() for f in report.findings]
        assert report.files_checked == 5
        once = {text: 1 for text in files.values()}
        assert parsed == once
        assert tokenised == once
