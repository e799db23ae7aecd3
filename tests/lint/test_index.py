"""ProjectIndex: the one-pass whole-program substrate for project rules."""

from __future__ import annotations

import pathlib

from repro.lint import ModuleInfo, ProjectIndex
from repro.lint.index import (
    TREE_DIRS,
    ImportEdge,
    build_module_info,
    iter_tree_files,
    role_for_path,
)

PROJECTS = pathlib.Path(__file__).parent / "fixtures" / "projects"


class TestRoles:
    def test_tree_dirs_cover_roles(self):
        assert set(TREE_DIRS) == {
            "src", "tests", "tools", "benchmarks", "examples",
        }

    def test_role_for_path(self):
        assert role_for_path("src/repro/core/exact.py") == "src"
        assert role_for_path("tests/lint/test_index.py") == "tests"
        assert role_for_path("tools/gen_report.py") == "tools"
        assert role_for_path("benchmarks/bench_backends.py") == "benchmarks"


class TestIterTreeFiles:
    def test_excludes_fixture_corpora_and_pycache(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "ok.py").write_text("x = 1\n")
        bad = tmp_path / "src" / "fixtures"
        bad.mkdir()
        (bad / "nope.py").write_text("x = 1\n")
        cache = tmp_path / "src" / "__pycache__"
        cache.mkdir()
        (cache / "ok.cpython-311.py").write_text("x = 1\n")
        files = [p.name for p in iter_tree_files(tmp_path)]
        assert files == ["ok.py"]

    def test_fixture_tree_as_root_still_indexes(self):
        # The exclusion is root-relative: a committed fixture *project*
        # lives under tests/lint/fixtures/ but is a valid root itself.
        files = list(iter_tree_files(PROJECTS / "graph_bad"))
        assert len(files) >= 6

    def test_sorted_and_includes_loose_root_scripts(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "b.py").write_text("")
        (tmp_path / "src" / "a.py").write_text("")
        (tmp_path / "setup.py").write_text("")
        names = [p.name for p in iter_tree_files(tmp_path)]
        assert names == ["setup.py", "a.py", "b.py"]


class TestModuleInfo:
    def test_real_tree_builds(self, real_tree):
        index = real_tree.index
        info = index.by_module["repro.runner.executor"]
        assert isinstance(info, ModuleInfo)
        assert info.role == "src"
        assert info.package == "runner"
        assert not info.is_package
        assert index.files[info.path] is info

    def test_eager_vs_lazy_imports(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(
            "import os\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    import json\n"
            "def f():\n"
            "    import sys\n"
            "    return sys\n"
            "class C:\n"
            "    import io\n"
        )
        index = ProjectIndex.build(tmp_path)
        info = index.by_module["repro.core.mod"]
        lazy = {e.origin for e in info.imports if e.lazy}
        eager = {e.origin for e in info.imports if not e.lazy}
        assert "json" in lazy and "sys" in lazy
        # Class bodies execute at import time.
        assert "io" in eager and "os" in eager
        assert isinstance(info.imports[0], ImportEdge)

    def test_symbols_exports_and_mutators(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(
            '__all__ = ["f", "X"]\n'
            "X = 1\n"
            "def f():\n"
            "    def inner():\n"
            "        return 0\n"
            "    return inner\n"
            "def g():\n"
            "    global X\n"
            "    X += 1\n"
        )
        index = ProjectIndex.build(tmp_path)
        info = index.by_module["repro.core.mod"]
        assert {"f", "g", "X"} <= set(info.symbols)
        assert info.exports == ("f", "X")
        assert info.export_lines["f"] == 1
        assert "inner" in info.nested_functions
        assert info.global_mutators == frozenset({"g"})

    def test_module_directive_overrides_the_path(self):
        info = build_module_info(
            "tests/lint/fixtures/x.py",
            "# reprolint: module=repro.runner.job\nfrom . import arbiter\n",
        )
        assert info.module == "repro.runner.job"
        assert info.package == "runner"
        assert info.role == "tests"
        assert info.import_map == {"arbiter": "repro.runner.arbiter"}

    def test_uses_expand_attribute_prefixes(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(
            "from repro.obs import names\n"
            "N = names.FOO.bit_length\n"
        )
        index = ProjectIndex.build(tmp_path)
        uses = index.by_module["repro.core.mod"].uses
        assert "repro.obs.names" in uses
        assert "repro.obs.names.FOO" in uses


class TestQueries:
    def test_resolve_module_strips_symbols(self, real_tree):
        index = real_tree.index
        info = index.resolve_module("repro.sim.engine.Engine")
        assert info is not None and info.module == "repro.sim.engine"
        assert index.resolve_module("os.path.join") is None

    def test_is_used_elsewhere_via_script_entry(self):
        index = ProjectIndex.build(PROJECTS / "dead_clean")
        assert index.is_used_elsewhere("repro.cli.app", "main")
        assert index.is_used_elsewhere("repro.core.util", "used")

    def test_unreferenced_symbol_is_dead(self):
        index = ProjectIndex.build(PROJECTS / "dead_bad")
        assert not index.is_used_elsewhere("repro.core.util", "unused")
        assert index.is_used_elsewhere("repro.core.util", "used")


class TestUnparsable:
    def test_unparsable_files_are_skipped(self, tmp_path):
        # PARSE001 owns the error when the file is linted; the index
        # just leaves it out.
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "broken.py").write_text("def broken(:\n")
        (tmp_path / "src" / "ok.py").write_text("x = 1\n")
        assert list(ProjectIndex.build(tmp_path).files) == ["src/ok.py"]
