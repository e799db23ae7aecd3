"""Shared fixtures for the reprolint tests."""

from __future__ import annotations

import pathlib
from typing import NamedTuple

import pytest

from repro.lint import LintReport, ProjectIndex, lint_paths

ROOT = pathlib.Path(__file__).resolve().parents[2]


class RealTree(NamedTuple):
    index: ProjectIndex
    #: every rule over src, tests and tools, as the CI lint step runs it
    report: LintReport


@pytest.fixture(scope="session")
def real_tree() -> RealTree:
    """The repository's own index and whole-tree report, built once per
    test session (each build parses every file of the tree)."""
    return RealTree(
        index=ProjectIndex.build(ROOT),
        report=lint_paths(
            [ROOT / "src", ROOT / "tests", ROOT / "tools"], root=ROOT
        ),
    )
