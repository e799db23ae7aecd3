"""reprolint CLI surfaces: exit codes, JSON artifact, self-clean gate.

One subprocess test drives ``tools/run_reprolint.py`` exactly as CI
invokes it (path bootstrapping and exit codes); the rest call the same
``main`` in process, on small trees, including the acceptance property
that an injected EXACT001/DET001 violation turns the exit code red.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import build_parser, main
from repro.lint.report import JSON_SCHEMA_VERSION

ROOT = pathlib.Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "run_reprolint.py"


def _tree_with(tmp_path: pathlib.Path, source: str) -> pathlib.Path:
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "pyproject.toml").write_text("")
    (pkg / "injected.py").write_text(source)
    return tmp_path


def run_main(capsys, *args) -> tuple[int, str, str]:
    code = main([str(a) for a in args])
    out, err = capsys.readouterr()
    return code, out, err


class TestSelfClean:
    def test_src_tree_is_clean_in_process(self, real_tree):
        report = real_tree.report
        assert report.clean, "\n".join(f.render() for f in report.findings)
        assert report.files_checked > 50

    def test_whole_tree_is_clean_in_process(self, real_tree):
        # The acceptance gate: src, tests AND tools carry zero
        # unsuppressed findings, stale waivers included.
        report = real_tree.report
        assert report.clean, "\n".join(f.render() for f in report.findings)

    def test_tool_exits_zero_on_src(self, tmp_path):
        tree = _tree_with(tmp_path, "X = 1\n")

        def run_tool(*args):
            # From a foreign cwd: the tool must find its own package.
            return subprocess.run(
                [sys.executable, str(TOOL), *map(str, args)],
                capture_output=True, text=True, cwd=tmp_path,
            )

        clean = run_tool(tree / "src")
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert "clean" in clean.stdout
        (tree / "src" / "repro" / "core" / "bad.py").write_text("Y = 0.5\n")
        assert run_tool(tree / "src").returncode == 1
        assert run_tool(tree / "nowhere").returncode == 2


class TestInjectedViolations:
    def test_exact001_injection_fails_the_run(self, tmp_path, capsys):
        tree = _tree_with(tmp_path, "def f(a, b):\n    return a / b\n")
        out = tmp_path / "report.json"
        code, _, _ = run_main(capsys, tree / "src", "--output", out)
        assert code == 1
        report = json.loads(out.read_text())
        assert report["clean"] is False
        assert report["counts"].get("EXACT001") == 1

    def test_det001_injection_fails_the_run(self, tmp_path, capsys):
        tree = _tree_with(
            tmp_path, "import random\n\nx = random.random()\n"
        )
        code, stdout, _ = run_main(capsys, tree / "src")
        assert code == 1
        assert "DET001" in stdout

    def test_suppressed_injection_passes(self, tmp_path, capsys):
        tree = _tree_with(
            tmp_path,
            "def f(a, b):\n"
            "    return a / b  # reprolint: disable=EXACT001\n",
        )
        code, _, _ = run_main(capsys, tree / "src")
        assert code == 0


class TestJsonReport:
    def test_schema_fields(self, tmp_path, capsys):
        tree = _tree_with(tmp_path, "X = 1\n")
        out = tmp_path / "r.json"
        code, stdout, _ = run_main(
            capsys, tree / "src", "--format", "json", "--output", out
        )
        assert code == 0
        file_doc = json.loads(out.read_text())
        assert json.loads(stdout) == file_doc
        assert set(file_doc) == {
            "schema_version", "tool", "files_checked", "clean", "counts",
            "findings", "root",
        }
        assert file_doc["tool"] == "reprolint"
        assert file_doc["schema_version"] == JSON_SCHEMA_VERSION == 3


class TestFlags:
    def test_parser_knows_exactly_the_surviving_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["src", "--rules", "EXACT001", "--format", "json",
             "--output", "r.json", "--root", "."]
        )
        assert args.paths == ["src"]
        assert args.rules == "EXACT001"
        assert args.output_format == "json"
        assert args.output == "r.json"
        assert args.root == "."
        assert not args.list_rules
        options = {
            o for a in parser._actions for o in a.option_strings
        } - {"-h", "--help"}
        assert options == {
            "--rules", "--format", "--output", "--root", "--list-rules",
        }

    @pytest.mark.parametrize(
        "flag",
        [
            ["--jobs", "2"], ["--no-cache"], ["--baseline", "b.json"],
            ["--update-baseline"], ["--report-unused-suppressions"],
            ["--format", "sarif"],
        ],
        ids=lambda flag: "=".join(flag),
    )
    def test_removed_flags_are_usage_errors(self, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["src", *flag])
        assert exc.value.code == 2


class TestCliErrors:
    def test_unknown_rule_is_usage_error(self, capsys):
        code, _, stderr = run_main(capsys, "src", "--rules", "BOGUS001")
        assert code == 2
        assert "unknown rule" in stderr

    def test_missing_path_is_usage_error(self, capsys):
        code, _, _ = run_main(capsys, "definitely/not/here")
        assert code == 2

    def test_list_rules(self, capsys):
        code, stdout, _ = run_main(capsys, "--list-rules")
        assert code == 0
        for rule in ("EXACT001", "DET001", "LAYER001", "FROZEN001"):
            assert rule in stdout


class TestReproMemSubcommand:
    def test_lint_subcommand_clean(self, tmp_path, capsys, monkeypatch):
        _tree_with(tmp_path, "X = 1\n")
        monkeypatch.chdir(tmp_path)
        assert repro_main(["lint", "src"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_subcommand_rules_filter(self, tmp_path, capsys, monkeypatch):
        _tree_with(tmp_path, "def f(a, b):\n    return a / b\n")
        monkeypatch.chdir(tmp_path)
        assert repro_main(["lint", "src", "--rules", "FROZEN001"]) == 0
        assert repro_main(["lint", "src", "--rules", "EXACT001"]) == 1

    @pytest.mark.parametrize("flag", ["--list-rules"])
    def test_lint_subcommand_list(self, capsys, flag):
        assert repro_main(["lint", flag]) == 0
        assert "LAYER001" in capsys.readouterr().out
