"""The reprolint core: findings, the rule protocol, and the lint driver.

reprolint is a *project-specific* static analyzer: each rule encodes one
invariant the reproduction's correctness argument rests on (exact
``Fraction`` arithmetic, deterministic ordering, runner-layer
discipline, frozen result objects).  The framework is deliberately
small — pure stdlib ``ast`` walking, no third-party dependencies — so
it can gate CI anywhere the test suite runs.

A :class:`Rule` has two hooks, and may implement either or both:

* ``check(info)`` sees one linted module's
  :class:`~repro.lint.index.ModuleInfo`;
* ``check_project(index)`` runs once per invocation against the
  whole-program :class:`~repro.lint.index.ProjectIndex` (cross-file
  invariants: the import-layer DAG, process-pool pickle safety,
  metric-name discipline, dead exports).

One lint run is one pass: :func:`lint_paths` builds the index once, and
file rules read the linted file's entry from it, so each file is
tokenised once and parsed once.

Suppression: append ``# reprolint: disable=RULE`` (comma-separate for
several rules, or ``all``) to the offending line, put
``# reprolint: disable-next=RULE`` on the line above it, or
``# reprolint: disable-file=RULE`` anywhere in the file to waive the
whole module.  Several directives may share one line.  Suppressions are
the documented escape hatch for *intentional* exceptions — each one in
this repository carries a justification comment — and
:func:`lint_paths` reports waivers that no longer suppress anything as
``SUPPRESS001``.  Fixture files declare their lint scope with
``# reprolint: module=dotted.name``.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .index import EXCLUDED_PARTS, ModuleInfo, ProjectIndex, build_module_info

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "get_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register_rule",
]

#: Pseudo-rule reported when a file cannot be parsed at all.
PARSE_ERROR_CODE = "PARSE001"
#: Pseudo-rule reported for waivers that no longer suppress anything.
UNUSED_SUPPRESSION_CODE = "SUPPRESS001"

@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Rule:
    """Base class for rules: override ``check`` and/or ``check_project``."""

    code: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, info: ModuleInfo) -> bool:
        """Whether ``check`` runs on this module."""
        return True

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        """Findings in one linted module."""
        return iter(())

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        """Findings across the whole tree, once per run.  The driver
        filters them through the owning file's suppressions."""
        return iter(())

    def finding(self, info: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=info.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.code,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    inst = cls()
    if not inst.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if inst.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {inst.code}")
    _REGISTRY[inst.code] = inst
    return cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by code."""
    _ensure_builtin_rules()
    return tuple(_REGISTRY[c] for c in sorted(_REGISTRY))


def get_rules(codes: Sequence[str] | None = None) -> tuple[Rule, ...]:
    """Resolve rule codes to instances (``None`` means every rule)."""
    if codes is None:
        return all_rules()
    _ensure_builtin_rules()
    out = []
    for code in codes:
        try:
            out.append(_REGISTRY[code])
        except KeyError:
            known = ", ".join(sorted(_REGISTRY))
            raise ValueError(f"unknown rule {code!r}; known rules: {known}") from None
    return tuple(out)


def _ensure_builtin_rules() -> None:
    # The rule modules register themselves on import; import them lazily
    # so framework <-> rules stays acyclic.
    from . import graph, rules  # noqa: F401


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one lint invocation."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    root: str | None = None

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))


def _parse_error(path: str, exc: Exception) -> Finding:
    # ast.parse raises bare ValueError on encoding-hostile input (null
    # bytes and friends); report it like a syntax error, don't crash.
    if isinstance(exc, SyntaxError):
        return Finding(
            path, exc.lineno or 1, exc.offset or 0, PARSE_ERROR_CODE,
            f"file does not parse: {exc.msg}",
        )
    return Finding(path, 1, 0, PARSE_ERROR_CODE, f"file does not parse: {exc}")


def _check_module(info: ModuleInfo, rules: Iterable[Rule]) -> list[Finding]:
    """Every rule's ``check`` on one module, waived findings dropped."""
    return [
        f
        for rule in rules
        if rule.applies_to(info)
        for f in rule.check(info)
        if not info.suppressions.is_suppressed(f.rule, f.line)
    ]


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    is_package: bool = False,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint one module's source text with the rules' ``check`` hook."""
    try:
        info = build_module_info(
            path,
            source,
            module=module,
            is_package=is_package if module is not None else None,
        )
    except (SyntaxError, ValueError) as exc:
        return [_parse_error(path, exc)]
    active = rules if rules is not None else all_rules()
    return sorted(_check_module(info, active))


def lint_file(
    path: str | Path,
    *,
    module: str | None = None,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint one file on disk with the rules' ``check`` hook."""
    return lint_source(
        Path(path).read_text(encoding="utf-8"),
        path=str(path),
        module=module,
        rules=rules,
    )


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                # Relative to the requested dir, so a fixture tree can
                # itself be linted when passed explicitly as a path.
                if not EXCLUDED_PARTS.intersection(sub.relative_to(p).parts):
                    yield sub
        elif p.suffix == ".py":
            yield p


def find_project_root(start: str | Path) -> Path | None:
    """Walk upward from ``start`` to the nearest ``pyproject.toml``."""
    p = Path(start).resolve()
    if p.is_file():
        p = p.parent
    for candidate in (p, *p.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return None


def _module_for(file: Path, index: ProjectIndex | None) -> ModuleInfo:
    """The index's entry for a linted file (reported under the path the
    caller gave), or a fresh one for a file outside the index."""
    if index is not None:
        try:
            rel = file.resolve().relative_to(index.root.resolve()).as_posix()
        except ValueError:
            rel = None
        info = index.files.get(rel) if rel is not None else None
        if info is not None:
            return dataclasses.replace(info, path=str(file))
    source = file.read_bytes().decode("utf-8", errors="surrogateescape")
    return build_module_info(str(file), source)


def lint_paths(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[Rule] | None = None,
    root: str | Path | None = None,
) -> LintReport:
    """Lint files/directories plus the project-level rules.

    ``root`` anchors the whole-program index and is auto-detected as the
    nearest ancestor of the first path holding a ``pyproject.toml``.
    Without a root, only the per-module ``check`` hooks run.  With one,
    the project rules run too, and every waiver in a linted file that
    suppressed nothing is reported as ``SUPPRESS001``.
    """
    active = rules if rules is not None else all_rules()
    if root is not None:
        root = Path(root)
    elif paths:
        root = find_project_root(paths[0])
    index = ProjectIndex.build(root) if root is not None else None
    report = LintReport(root=str(root) if root is not None else None)

    linted: list[ModuleInfo] = []
    for file in _iter_python_files(paths):
        report.files_checked += 1
        try:
            info = _module_for(file, index)
        except (SyntaxError, ValueError) as exc:
            report.findings.append(_parse_error(str(file), exc))
            continue
        linted.append(info)
        report.findings.extend(_check_module(info, active))

    if index is not None:
        for rule in active:
            for f in rule.check_project(index):
                owner = index.files.get(f.path)
                if owner is None or not owner.suppressions.is_suppressed(
                    f.rule, f.line
                ):
                    report.findings.append(f)
        codes = {r.code for r in active}
        for info in linted:
            for lineno, code in info.suppressions.unused(codes):
                report.findings.append(
                    Finding(
                        info.path, lineno, 0, UNUSED_SUPPRESSION_CODE,
                        f"suppression of {code} no longer matches any "
                        "finding; remove the stale waiver",
                    )
                )
    report.findings.sort()
    return report
