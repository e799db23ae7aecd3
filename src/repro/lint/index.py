"""One parse pass: the per-module facts every reprolint rule reads.

:func:`build_module_info` reads one source text once: it tokenises it
once (for the ``# reprolint:`` comments) and parses it once, and
records, per module,

* the dotted module name, top-level package and *role* (``src`` /
  ``tests`` / ``tools`` / ``benchmarks`` / ``examples``),
* the parsed tree and the suppression directives,
* the module-level symbol table and ``__all__`` export list,
* every import edge, alias-resolved and tagged *eager* (executes at
  import time) or *lazy* (function-scoped or ``TYPE_CHECKING``-guarded
  — the sanctioned cycle-breaking idiom),
* a coarse use map: every dotted name the module references, expanded
  to all prefixes so ``names.FOO.bit_length`` counts as a use of both
  ``repro.obs.names`` and ``repro.obs.names.FOO``.

:class:`ProjectIndex` holds one :class:`ModuleInfo` per file of the
repository tree.  The lint driver builds it once per run: file rules
read a linted file's entry, project rules read the whole index, and a
linted file outside the tree is built by the same function.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "ImportEdge",
    "ModuleInfo",
    "ProjectIndex",
    "Suppressions",
    "TREE_DIRS",
    "build_module_info",
    "dotted_name",
    "iter_tree_files",
    "module_name_for_path",
    "role_for_path",
]

#: Directories under the project root that make up the indexed tree.
TREE_DIRS = ("src", "tests", "tools", "benchmarks", "examples")

#: Path components that are never indexed or linted: bytecode caches
#: and lint fixtures (fixtures are *data* — intentionally-bad sources
#: that would otherwise pollute the import graph with fake modules).
EXCLUDED_PARTS = frozenset({"__pycache__", "fixtures"})

_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-next|disable-file)\s*="
    r"\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)
_MODULE_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*module\s*=\s*([A-Za-z0-9_.]+)"
)


def _scan_comments(source: str) -> list[tuple[int, str]]:
    """``(lineno, text)`` for every comment token in ``source``.

    Tokenizing (rather than regex-scanning raw lines) keeps directives
    inside *string literals* inert — a test asserting on the text
    ``"# reprolint: disable=X"`` must not waive anything in the test
    file itself.  Sources the tokenizer rejects fall back to scanning
    every line.
    """
    comments: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        comments = list(enumerate(source.splitlines(), start=1))
    return comments


@dataclass
class _Directive:
    """One parsed ``# reprolint:`` waiver and its usage bookkeeping."""

    lineno: int  #: line the directive sits on
    kind: str  #: disable | disable-next | disable-file
    rules: frozenset[str]
    used: set[str] = field(default_factory=set)

    def applies_to_line(self, line: int) -> bool:
        if self.kind == "disable-file":
            return True
        if self.kind == "disable-next":
            return line == self.lineno + 1
        return line == self.lineno


class Suppressions:
    """Per-line and per-file rule waivers parsed from comments.

    Every directive on a line is honoured (``finditer``, not the first
    match), and each records which of its rule codes actually
    suppressed a finding so stale waivers can be reported.
    """

    def __init__(self, comments: Iterable[tuple[int, str]]) -> None:
        self._directives: list[_Directive] = []
        for lineno, text in comments:
            for m in _DIRECTIVE.finditer(text):
                rules = frozenset(
                    r.strip() for r in m.group(2).split(",") if r.strip()
                )
                if rules:
                    self._directives.append(
                        _Directive(lineno, m.group(1), rules)
                    )

    @classmethod
    def parse(cls, source: str) -> "Suppressions":
        return cls(_scan_comments(source))

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether a ``rule`` finding on ``line`` is waived.

        Marks **every** matching directive as used, so a finding
        covered by both a line and a file waiver keeps both alive.
        """
        hit = False
        for d in self._directives:
            if not d.applies_to_line(line):
                continue
            if "all" in d.rules:
                d.used.add("all")
                hit = True
            if rule in d.rules:
                d.used.add(rule)
                hit = True
        return hit

    def unused(self, active_codes: Iterable[str]) -> list[tuple[int, str]]:
        """``(line, rule)`` waiver entries that suppressed nothing.

        Only rules in ``active_codes`` are considered — a waiver for a
        rule that did not run this invocation is not (yet) stale.  An
        ``all`` entry is stale only when the full active set ran over
        the line and nothing matched.
        """
        active = set(active_codes)
        out: list[tuple[int, str]] = []
        for d in self._directives:
            for rule in sorted(d.rules):
                if rule == "all":
                    if not d.used:
                        out.append((d.lineno, rule))
                elif rule in active and rule not in d.used:
                    out.append((d.lineno, rule))
        return out


def module_name_for_path(path: str | Path) -> str:
    """Best-effort dotted module name for a file path.

    Looks for the last ``repro`` component in the path (the package this
    analyzer is written for) and joins everything from there; returns
    ``""`` when the file is not under a ``repro`` tree.  ``__init__.py``
    maps to its package name.
    """
    parts = list(Path(path).parts)
    if "repro" not in parts:
        return ""
    idx = len(parts) - 1 - parts[::-1].index("repro")
    mod_parts = parts[idx:]
    last = mod_parts[-1]
    if last.endswith(".py"):
        last = last[: -len(".py")]
    if last == "__init__":
        mod_parts = mod_parts[:-1]
    else:
        mod_parts[-1] = last
    return ".".join(mod_parts)


def role_for_path(path: str | Path) -> str:
    """Coarse tree role of a file: which top-level dir it lives under.

    Used for rule scoping: engine-bypass discipline (LAYER001) extends
    to ``tools`` (they write committed artifacts) but not to ``tests``
    (which must construct engines to test them).
    """
    parts = Path(path).parts
    for role in ("tests", "tools", "benchmarks", "examples"):
        if role in parts:
            return role
    return "src"


def iter_tree_files(root: Path) -> Iterator[Path]:
    """Every indexable Python file under the project tree, sorted."""
    seen: list[Path] = []
    for name in TREE_DIRS:
        top = root / name
        if not top.is_dir():
            continue
        for sub in top.rglob("*.py"):
            # Exclusion is *root-relative*: a fixture project tree used
            # as a lint root in the test suite lives under a directory
            # named "fixtures" itself, and must still index.
            if not EXCLUDED_PARTS.intersection(sub.relative_to(root).parts):
                seen.append(sub)
    for loose in root.glob("*.py"):
        seen.append(loose)
    return iter(sorted(seen))


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, alias-resolved to a dotted origin."""

    origin: str  #: dotted module (or module.symbol) being imported
    lineno: int
    #: function-scoped or TYPE_CHECKING-guarded: does not execute at
    #: import time, so it cannot participate in an import cycle.
    lazy: bool


@dataclass
class ModuleInfo:
    """Everything a rule may consult about one module."""

    #: root-relative posix path for indexed files; the path as the
    #: caller named it for a file linted from outside the index
    path: str
    #: dotted name: a ``# reprolint: module=`` directive first (fixtures
    #: declare their scope), the path mapping second; "" outside repro
    module: str
    package: str  #: top-level repro subpackage ("core", ...; "" = root)
    role: str  #: src | tests | tools | benchmarks | examples
    is_package: bool
    tree: ast.Module
    suppressions: Suppressions
    import_map: dict[str, str]  #: local name -> dotted origin
    imports: tuple[ImportEdge, ...]
    exports: tuple[str, ...] | None  #: __all__, None when absent
    export_lines: dict[str, int] = field(default_factory=dict)
    symbols: frozenset[str] = frozenset()  #: module-level bindings
    nested_functions: frozenset[str] = frozenset()
    #: module-level functions whose body declares ``global``
    global_mutators: frozenset[str] = frozenset()
    #: every dotted name referenced, expanded to all prefixes
    uses: frozenset[str] = frozenset()
    #: modules star-imported (``from m import *``)
    star_imports: frozenset[str] = frozenset()

    def in_package(self, *prefixes: str) -> bool:
        """Whether this module lives under any of the dotted prefixes."""
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted origin of a name or attribute chain, alias-resolved
        through this module's imports (``None`` for other shapes)."""
        chain = dotted_name(node)
        if chain is None:
            return None
        head = self.import_map.get(chain[0], chain[0])
        return ".".join([head, *chain[1:]])


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _iter_imports(tree: ast.Module) -> Iterator[tuple[ast.stmt, bool]]:
    """Every import statement, tagged lazy (not run at import time).

    Function bodies and ``if TYPE_CHECKING:`` blocks are lazy; every
    other statement body (class bodies included) runs with its parent.
    """

    def visit(node: ast.AST, lazy: bool) -> Iterator[tuple[ast.stmt, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, lazy
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, True)
            elif isinstance(child, ast.If):
                yield from visit(child, lazy or _is_type_checking(child.test))
            elif isinstance(
                child, (ast.stmt, ast.excepthandler, ast.match_case)
            ):
                yield from visit(child, lazy)

    yield from visit(tree, False)


def _resolve_base(base: str, level: int, pkg_parts: list[str]) -> str:
    """Anchor a relative import against the enclosing package."""
    if not level:
        return base
    anchor = pkg_parts[: len(pkg_parts) - (level - 1)]
    return ".".join(anchor + ([base] if base else []))


def _collect_exports(
    tree: ast.Module,
) -> tuple[tuple[str, ...] | None, dict[str, int]]:
    """``__all__`` entries with the line each entry sits on."""
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "__all__"
                and isinstance(value, (ast.List, ast.Tuple))
            ):
                names: list[str] = []
                lines: dict[str, int] = {}
                for elt in value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str
                    ):
                        names.append(elt.value)
                        lines.setdefault(elt.value, elt.lineno)
                return tuple(names), lines
    return None, {}


def dotted_name(node: ast.expr) -> list[str] | None:
    """``a.b.c`` attribute chain as a list, or ``None`` for other shapes."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _prefixes(dotted: str) -> Iterator[str]:
    parts = dotted.split(".")
    for k in range(2, len(parts) + 1):
        yield ".".join(parts[:k])


def build_module_info(
    path: str,
    source: str,
    *,
    module: str | None = None,
    is_package: bool | None = None,
) -> ModuleInfo:
    """Tokenise and parse one module once, and index it.

    ``module``/``is_package`` override what the comments and ``path``
    say.  Raises ``SyntaxError`` (or ``ValueError`` on null bytes) when
    the source does not parse.
    """
    comments = _scan_comments(source)
    tree = ast.parse(source)
    if module is None:
        declared = (
            m.group(1)
            for _, text in comments
            if (m := _MODULE_DIRECTIVE.search(text)) is not None
        )
        module = next(declared, None) or module_name_for_path(path)
    if is_package is None:
        is_package = Path(path).name == "__init__.py"
    mod_parts = module.split(".") if module else []
    pkg_parts = mod_parts if is_package else mod_parts[:-1]

    import_map: dict[str, str] = {}
    edges: list[ImportEdge] = []
    star: set[str] = set()
    uses: set[str] = set()
    for node, lazy in _iter_imports(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                import_map[bound] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                edges.append(ImportEdge(alias.name, node.lineno, lazy))
                uses.update(_prefixes(alias.name))
        else:
            assert isinstance(node, ast.ImportFrom)
            base = _resolve_base(node.module or "", node.level, pkg_parts)
            for alias in node.names:
                if alias.name == "*":
                    if base:
                        star.add(base)
                        edges.append(ImportEdge(base, node.lineno, lazy))
                        uses.update(_prefixes(base))
                    continue
                origin = f"{base}.{alias.name}" if base else alias.name
                import_map[alias.asname or alias.name] = origin
                edges.append(ImportEdge(origin, node.lineno, lazy))
                uses.update(_prefixes(origin))

    symbols: set[str] = set()
    nested: set[str] = set()
    mutators: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.add(node.name)
            if any(isinstance(n, ast.Global) for n in ast.walk(node)):
                mutators.add(node.name)
        elif isinstance(node, ast.ClassDef):
            symbols.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    symbols.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                symbols.add(node.target.id)
    symbols.update(import_map)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name not in symbols:
                nested.add(node.name)
        elif isinstance(node, ast.Attribute):
            chain = dotted_name(node)
            if chain is not None:
                head = import_map.get(chain[0], chain[0])
                uses.update(_prefixes(".".join([head, *chain[1:]])))

    exports, export_lines = _collect_exports(tree)
    return ModuleInfo(
        path=path,
        module=module,
        package=mod_parts[1] if len(mod_parts) > 1 else "",
        role=role_for_path(path),
        is_package=is_package,
        tree=tree,
        suppressions=Suppressions(comments),
        import_map=import_map,
        imports=tuple(edges),
        exports=exports,
        export_lines=export_lines,
        symbols=frozenset(symbols),
        nested_functions=frozenset(nested),
        global_mutators=frozenset(mutators),
        uses=frozenset(uses),
        star_imports=frozenset(star),
    )


def _script_uses(root: Path) -> frozenset[str]:
    """Console-script entry points from ``pyproject.toml`` count as
    uses (``repro.cli:main`` keeps ``main`` alive for DEAD001)."""
    pyproject = root / "pyproject.toml"
    if not pyproject.exists():
        return frozenset()
    try:
        import tomllib

        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except Exception:  # noqa: BLE001 - malformed toml: no script roots
        return frozenset()
    out: set[str] = set()
    scripts = data.get("project", {}).get("scripts", {})
    if isinstance(scripts, dict):
        for target in scripts.values():
            if isinstance(target, str) and ":" in target:
                mod, _, func = target.partition(":")
                out.update(_prefixes(f"{mod}.{func}"))
    return frozenset(out)


@dataclass
class ProjectIndex:
    """The one-pass whole-program index every rule shares."""

    root: Path
    #: root-relative posix path -> module info
    files: dict[str, ModuleInfo]
    #: dotted module name -> info (modules inside a repro tree only)
    by_module: dict[str, ModuleInfo]
    #: dotted-name uses rooted outside the tree (console scripts)
    script_uses: frozenset[str]

    @classmethod
    def build(cls, root: str | Path) -> "ProjectIndex":
        root = Path(root)
        files: dict[str, ModuleInfo] = {}
        by_module: dict[str, ModuleInfo] = {}
        for path in iter_tree_files(root):
            rel = path.relative_to(root).as_posix()
            try:
                info = build_module_info(
                    rel, path.read_bytes().decode("utf-8")
                )
            except (SyntaxError, ValueError):
                continue  # unparsable files are PARSE001's business
            files[rel] = info
            if info.module:
                by_module[info.module] = info
        return cls(
            root=root,
            files=files,
            by_module=by_module,
            script_uses=_script_uses(root),
        )

    # ------------------------------------------------------------------
    # Queries shared by the project rules
    # ------------------------------------------------------------------
    def repro_modules(self) -> Iterator[ModuleInfo]:
        """Every module inside a ``repro`` tree, in dotted order."""
        for name in sorted(self.by_module):
            yield self.by_module[name]

    def resolve_module(self, origin: str) -> ModuleInfo | None:
        """The indexed module an import origin lands in.

        ``repro.runner.backends.FastBackend`` resolves to the
        ``repro.runner.backends`` module by progressively stripping
        trailing symbol components.
        """
        probe = origin
        while probe:
            info = self.by_module.get(probe)
            if info is not None:
                return info
            if "." not in probe:
                return None
            probe = probe.rsplit(".", 1)[0]
        return None

    def is_used_elsewhere(self, module: str, symbol: str) -> bool:
        """Whether ``module.symbol`` is referenced by any *other* file
        in the project (import, attribute chain, star import, or a
        console-script entry point)."""
        target = f"{module}.{symbol}"
        if target in self.script_uses:
            return True
        owner = self.by_module.get(module)
        owner_path = owner.path if owner is not None else None
        for info in self.files.values():
            if info.path == owner_path:
                continue
            if target in info.uses or module in info.star_imports:
                return True
        return False
