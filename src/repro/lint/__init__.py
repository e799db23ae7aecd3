"""reprolint: AST-based invariant analysis for the reproduction.

The reproduction's value rests on invariants that runtime tests only
spot-check: theorem verdicts are exact ``Fraction`` arithmetic, sweeps
are deterministic across process-pool fan-out, and every simulation
rides the runner layer so backends stay bit-identical and cacheable.
This package enforces those invariants *statically*, at CI time:

* ``EXACT001`` — no float contamination in the exactness layers;
* ``DET001`` — no unseeded RNGs, wall-clock reads, or set-order leaks;
* ``LAYER001`` — the layer DAG on imports, and engine primitives only
  behind ``run(job, backend=...)``;
* ``FROZEN001`` — no ``object.__setattr__`` mutation of frozen results;
* ``OBS001`` — monotonic-clock reads confined to ``repro.obs.trace``;
* ``PAR001`` — process-pool workers picklable and global-free;
* ``OBS002`` — instrumentation names from ``repro.obs.names`` only;
* ``DEAD001`` — no dead ``__all__`` surface on leaf modules.

A lint run is one pass over one whole-program
:class:`~repro.lint.index.ProjectIndex`: each file is tokenised and
parsed once, and every rule reads that index.  See ``docs/LINT.md`` for
the full rule catalog.

Run it with ``repro-mem lint`` or ``python tools/run_reprolint.py``;
suppress intentional exceptions with ``# reprolint: disable=RULE``.
The linter itself uses only the standard library, but importing
``repro.lint`` first runs ``repro/__init__``, which imports the runner,
the batch core and NumPy.
"""

from .framework import (
    Finding,
    LintReport,
    Rule,
    all_rules,
    get_rules,
    lint_file,
    lint_paths,
    lint_source,
    register_rule,
)
from .index import ModuleInfo, ProjectIndex, Suppressions, module_name_for_path
from .report import render_json, render_text, to_json_dict

__all__ = [
    "Finding",
    "LintReport",
    "ModuleInfo",
    "ProjectIndex",
    "Rule",
    "Suppressions",
    "all_rules",
    "get_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for_path",
    "register_rule",
    "render_json",
    "render_text",
    "to_json_dict",
]
