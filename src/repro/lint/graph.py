"""LAYER001: the repository layering, on imports and on engine calls.

The reproduction's module architecture is a strict layering::

    obs, lint          (rank 0 — leaves: import no other repro package)
    core               (rank 1 — exact arithmetic, no engine knowledge)
    memory             (rank 2 — bank models over core primitives)
    runner             (rank 3 — orchestration; sim only via backends)
    sim, machine,      (rank 4 — engines, analyses, generators)
    analysis, skewing,
    stochastic, viz
    serve              (rank 5 — the HTTP service over the runner)
    cli                (rank 6 — may import anything)

A module may import downward (strictly smaller rank) or sideways
(same rank, including its own package); importing *upward* inverts the
dependency arrow and is rejected.  Cycles are checked on the *eager*
subgraph only: a function-scoped or ``TYPE_CHECKING``-guarded import
does not execute at import time, so it cannot deadlock module
initialisation — moving an import into the function that needs it is
the sanctioned way to break a cycle, and the layer check still polices
the edge's direction.

Every simulation rides ``run(job, backend=...)`` so backends stay
interchangeable and sweeps stay cacheable: an engine primitive
(:data:`PRIMITIVES`) may be *called* only in its home module or across
a calling row of :data:`BOUNDARY`.  That one table also lists the
sanctioned upward imports; most of its rows license the import alone.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .framework import Finding, Rule, register_rule
from .index import ImportEdge, ModuleInfo, ProjectIndex

__all__ = ["BOUNDARY", "LAYER_RANKS", "LayerRule", "layer_rank"]

#: Rank of each top-level ``repro`` subpackage; smaller = lower layer.
LAYER_RANKS: dict[str, int] = {
    "obs": 0,
    "lint": 0,
    "core": 1,
    "memory": 2,
    "runner": 3,
    "sim": 4,
    "machine": 4,
    "analysis": 4,
    "skewing": 4,
    "stochastic": 4,
    "viz": 4,
    "serve": 5,
    "cli": 6,
    "": 6,  # the repro root package re-exports the public surface
}

#: Rank assumed for a subpackage not listed above: new packages default
#: to the engine tier — they may use everything below the runner but
#: must be added here explicitly before the runner may import them.
DEFAULT_RANK = 4

#: Packages that must import no other repro package at all (rank-0
#: leaves): observability and the linter itself stay embeddable in any
#: context — including each other's absence.
LEAF_PACKAGES = frozenset({"obs", "lint"})

#: Engine primitives by home module.  Calling one bypasses backend
#: checking and the executor's cache; the batch core's entry points
#: also skip the error/fallback bookkeeping only ``BatchBackend`` does.
PRIMITIVES: dict[str, tuple[str, ...]] = {
    "repro.sim.engine": ("Engine", "simulate_streams"),
    "repro.sim.port": ("Port",),
    "repro.runner.fastsim": ("CountedSim", "FlatSim", "find_steady_cycle"),
    "repro.runner.batchsim": (
        "BatchSim", "run_steady_batch", "run_span_batch",
    ),
}

#: The sanctioned boundary edges, (importer, imported module) -> whether
#: the importer may also *call* the imported module's primitives.  An
#: upward import on this table is not a finding.  The calling rows are
#: the backends driving every core; the reference engine building ports
#: and handing steady-state search to the flat core; and the three
#: finite workloads on the counted kernel.  Those are the machine
#: scheduler, which interleaves CPU issue with arbitration, and the
#: skewing and gather evaluators, which measure a fixed window of
#: streams with no steady state.  ``SimJob`` models neither, so they
#: cannot ride ``run(job)``.  The other rows are the spec boundary:
#: ``SimJob``, the analytic tier and the cores consult the sim layer's
#: arbitration grammar (function-scoped imports, so the eager graph
#: stays acyclic) to reject malformed specs at construction, and the
#: counted kernel reports its accounting as the sim layer's
#: ``SimStats``; none of them may run an engine.
BOUNDARY: dict[tuple[str, str], bool] = {
    ("repro.runner.backends", "repro.runner.batchsim"): True,
    ("repro.runner.backends", "repro.runner.fastsim"): True,
    ("repro.runner.backends", "repro.sim.engine"): True,
    ("repro.sim.engine", "repro.runner.fastsim"): True,
    ("repro.sim.engine", "repro.sim.port"): True,
    ("repro.machine.scheduler", "repro.runner.fastsim"): True,
    ("repro.skewing.evaluate", "repro.runner.fastsim"): True,
    ("repro.stochastic.evaluate", "repro.runner.fastsim"): True,
    ("repro.runner.analytic", "repro.sim.arbiter"): False,
    ("repro.runner.batchsim", "repro.sim.arbiter"): False,
    ("repro.runner.fastsim", "repro.sim.arbiter"): False,
    ("repro.runner.fastsim", "repro.sim.stats"): False,
    ("repro.runner.job", "repro.sim.arbiter"): False,
    ("repro.runner.job", "repro.sim.engine"): False,
    ("repro.runner.resilience", "repro.sim.engine"): False,
}


def layer_rank(package: str) -> int:
    """Layer rank of a top-level repro subpackage name."""
    return LAYER_RANKS.get(package, DEFAULT_RANK)


def _primitive_home(origin: str) -> str | None:
    """Home module of the engine primitive a call origin names.

    Matched by dotted suffix (``sim.engine.Engine``), so a relative
    import in a module of unknown package resolves identically.
    """
    for home, names in PRIMITIVES.items():
        suffix = home[len("repro."):]
        for name in names:
            target = f"{suffix}.{name}"
            if origin == target or origin.endswith("." + target):
                return home
    return None


@register_rule
class LayerRule(Rule):
    """The layer DAG on imports, and the runner boundary on calls."""

    code = "LAYER001"
    name = "layer-discipline"
    description = (
        "repro packages import only downward in the layer DAG "
        "(obs/lint < core < memory < runner < engines < serve < cli), "
        "with no eager import cycles; engine primitives are called "
        "only in their home module or across a calling boundary edge, "
        "and everything else rides run(job, backend=...)."
    )

    def applies_to(self, info: ModuleInfo) -> bool:
        # tools/ write committed artifacts, so they ride the runner
        # like package code; tests must construct engines to test them.
        return info.in_package("repro") or info.role == "tools"

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = info.resolve(node.func)
            home = _primitive_home(origin) if origin else None
            if home is None or home == info.module:
                continue
            if BOUNDARY.get((info.module, home)):
                continue
            short = origin.rsplit(".", 1)[-1]
            yield self.finding(
                info, node,
                f"direct {short}() call bypasses the runner layer; build "
                "a SimJob and call run(job, backend=...) so the result "
                "is backend-checked and cacheable",
            )

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        yield from self._check_layers(project)
        yield from self._check_cycles(project)

    # ------------------------------------------------------------------
    # Layering
    # ------------------------------------------------------------------
    def _check_layers(self, project: ProjectIndex) -> Iterator[Finding]:
        for info in project.repro_modules():
            if info.role != "src":
                continue  # test/tool doubles may shadow repro names
            src_pkg = info.package
            src_rank = layer_rank(src_pkg)
            seen: set[tuple[str, int]] = set()
            for edge in info.imports:
                target = project.resolve_module(edge.origin)
                if target is None or target.role != "src":
                    continue
                if not target.module.startswith("repro"):
                    continue
                dst_pkg = target.package
                if dst_pkg == src_pkg:
                    continue
                if (info.module, target.module) in BOUNDARY:
                    continue
                key = (target.module, edge.lineno)
                if key in seen:
                    continue
                seen.add(key)
                dst_rank = layer_rank(dst_pkg)
                if src_pkg in LEAF_PACKAGES:
                    yield self._finding(
                        info,
                        edge,
                        f"leaf package repro.{src_pkg} must not import "
                        f"{target.module}; obs and lint depend on no "
                        "other repro package",
                    )
                elif dst_rank > src_rank:
                    yield self._finding(
                        info,
                        edge,
                        f"upward import: {info.module} (layer "
                        f"{src_pkg or 'root'}, rank {src_rank}) must not "
                        f"import {target.module} (layer {dst_pkg}, rank "
                        f"{dst_rank}); invert the dependency or route it "
                        "through a blessed runner boundary",
                    )

    # ------------------------------------------------------------------
    # Cycles (eager edges only)
    # ------------------------------------------------------------------
    def _check_cycles(self, project: ProjectIndex) -> Iterator[Finding]:
        graph: dict[str, list[tuple[str, ImportEdge]]] = {}
        infos: dict[str, ModuleInfo] = {}
        for info in project.repro_modules():
            if info.role != "src":
                continue
            infos[info.module] = info
            edges: list[tuple[str, ImportEdge]] = []
            for edge in info.imports:
                if edge.lazy:
                    continue
                target = project.resolve_module(edge.origin)
                if (
                    target is None
                    or target.role != "src"
                    or target.module == info.module
                ):
                    continue
                edges.append((target.module, edge))
            graph[info.module] = edges

        for scc in _tarjan(
            {m: [t for t, _ in e] for m, e in graph.items()}
        ):
            if len(scc) < 2:
                continue
            members = sorted(scc)
            anchor = members[0]
            in_cycle = set(scc)
            edge = next(
                (e for t, e in graph[anchor] if t in in_cycle), None
            )
            info = infos[anchor]
            yield Finding(
                path=info.path,
                line=edge.lineno if edge is not None else 1,
                col=0,
                rule=self.code,
                message=(
                    "eager import cycle: "
                    + " -> ".join(members + [anchor])
                    + "; break it by moving one import into the "
                    "function that needs it"
                ),
            )

    def _finding(
        self, info: ModuleInfo, edge: ImportEdge, message: str
    ) -> Finding:
        return Finding(
            path=info.path,
            line=edge.lineno,
            col=0,
            rule=self.code,
            message=message,
        )


def _tarjan(graph: dict[str, list[str]]) -> list[list[str]]:
    """Strongly connected components, iterative Tarjan."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for start in sorted(graph):
        if start in index:
            continue
        work: list[tuple[str, int]] = [(start, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = graph.get(node, [])
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in graph:
                    continue
                if child not in index:
                    work[-1] = (node, i + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                scc: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent, _ = work[-1]
                low[parent] = min(low[parent], low[node])
    return sccs
