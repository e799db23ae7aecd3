#!/usr/bin/env python
"""Generate the golden machine table ``tests/golden/machine.json``.

Every row maps one finite workload of the paper suite to the exact
strings its public driver returns, plus the full per-port conflict
accounting of every machine run the driver made (grants, stall cycles
and episodes by kind, longest stall run, and the run's clock count).
The workloads:

* the Fig. 10 triad for INC 1-16, with the other CPU streaming and on
  a dedicated machine (``run_triad``);
* the 4x4 dueling-triads matrix at n=256 (``dueling_triads``);
* the X-MP kernel suite of ``benchmarks/bench_kernels_xmp.py``
  (``run_program``) and one triad on the VP-200-like machine
  (``run_on``);
* the skewing ablation for strides 1-16 (``stride_sensitivity``);
* structured vs random gathers on 1, 2, 4 and 6 ports
  (``structured_vs_random``).

``tests/golden/test_machine_golden.py`` replays the table and requires
byte-identical rows.  The table pins behaviour, so the script refuses
to overwrite an existing one unless ``--bless`` is given::

    PYTHONPATH=src python tools/gen_golden_machine.py [--bless]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
from typing import Callable, Iterator

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core.fortran import ArraySpec  # noqa: E402
from repro.machine.builder import VP200_SPEC, run_on  # noqa: E402
from repro.machine.experiments import dueling_triads  # noqa: E402
from repro.machine.kernels import (  # noqa: E402
    copy_program,
    daxpy_program,
    matrix_sweep_program,
    sum_program,
)
from repro.machine.scheduler import MachineSimulation  # noqa: E402
from repro.machine.workloads import triad_program  # noqa: E402
from repro.machine.xmp import run_program, run_triad  # noqa: E402
from repro.memory.config import MemoryConfig  # noqa: E402
from repro.memory.layout import CommonBlock  # noqa: E402
from repro.sim.stats import ConflictKind, SimStats  # noqa: E402
from repro.skewing.evaluate import stride_sensitivity  # noqa: E402
from repro.stochastic.evaluate import structured_vs_random  # noqa: E402

TABLE = ROOT / "tests" / "golden" / "machine.json"

#: The skewing and gather memory (``bench_ablation_skewing``,
#: ``bench_context_random_access``).
CFG = MemoryConfig(banks=16, bank_cycle=4)
DUEL_INCS = (1, 2, 3, 8)
DUEL_N = 256
GATHER_PORTS = (1, 2, 4, 6)
#: The kernel suite's sizes and arrays (``bench_kernels_xmp``).
KERNEL_N = 512
VP_INC = 16


def _common() -> CommonBlock:
    return CommonBlock.build([(c, (40000,)) for c in "ABCD"])


def _kernels() -> dict[str, list]:
    common = _common()
    resonant = ArraySpec("M16", (16, 512))
    safe = ArraySpec("M17", (17, 512))
    return {
        "sum": sum_program(1, n=KERNEL_N, common=common, src="A"),
        "copy": copy_program(1, n=KERNEL_N, common=common),
        "daxpy": daxpy_program(1, n=KERNEL_N, common=common),
        "triad": triad_program(1, n=KERNEL_N, common=common),
        "row-j16": matrix_sweep_program(resonant, "row"),
        "row-j17": matrix_sweep_program(safe, "row"),
        "diag-j16": matrix_sweep_program(resonant, "diagonal"),
    }


def workloads() -> dict[str, Callable[[], object]]:
    """Row name -> the driver call that computes it."""
    out: dict[str, Callable[[], object]] = {}
    for other in (True, False):
        for inc in range(1, 17):
            out[f"triad inc={inc} other={int(other)}"] = (
                lambda inc=inc, other=other: run_triad(
                    inc, other_cpu_active=other
                )
            )
    for a in DUEL_INCS:
        for b in DUEL_INCS:
            out[f"duel inc0={a} inc1={b}"] = (
                lambda a=a, b=b: dueling_triads(a, b, n=DUEL_N)
            )
    for name, program in _kernels().items():
        out[f"kernel {name}"] = (
            lambda program=program: run_program(
                program, other_cpu_active=False
            )
        )
    out[f"vp200 triad inc={VP_INC}"] = lambda: run_on(
        VP200_SPEC,
        triad_program(
            VP_INC, n=KERNEL_N, common=_common(),
            vector_length=VP200_SPEC.vector_length,
        ),
    ).cycles
    for d in range(1, 17):
        out[f"skew stride={d}"] = lambda d=d: stride_sensitivity(
            CFG, [d], peers=1, skew=1, horizon=2048, warmup=256
        )
    for p in GATHER_PORTS:
        out[f"gather ports={p}"] = lambda p=p: structured_vs_random(
            CFG, p, horizon=4096, warmup=512
        )
    return out


def stats_row(cycles: int, stats: SimStats) -> dict:
    """Every counter of one machine run, per port."""
    return {
        "cycles": cycles,
        "ports": [
            {
                "grants": ps.grants,
                "stall_cycles": {k.value: ps.stall_cycles[k] for k in ConflictKind},
                "episodes": {k.value: ps.episodes[k] for k in ConflictKind},
                "max_stall_run": ps.max_stall_run,
            }
            for ps in stats.ports
        ],
    }


@contextlib.contextmanager
def recording_runs() -> Iterator[list[dict]]:
    """Record the accounting of every machine run made meanwhile."""
    runs: list[dict] = []
    original = MachineSimulation.run_until_programs_finish

    def recorded(self, *args, **kwargs):
        res = original(self, *args, **kwargs)
        runs.append(stats_row(res.cycles, res.stats))
        return res

    MachineSimulation.run_until_programs_finish = recorded
    try:
        yield runs
    finally:
        MachineSimulation.run_until_programs_finish = original


def row(compute: Callable[[], object]) -> dict:
    """The exact result string of one workload and its machine runs."""
    with recording_runs() as runs:
        result = compute()
    return {"result": repr(result), "runs": runs}


def build_table() -> dict[str, dict]:
    return {name: row(compute) for name, compute in workloads().items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bless", action="store_true",
                    help="overwrite an existing table")
    args = ap.parse_args(argv)
    if TABLE.exists() and not args.bless:
        print(
            f"error: {TABLE} exists; it pins exact outcomes, so pass "
            "--bless to overwrite it",
            file=sys.stderr,
        )
        return 2
    table = build_table()
    TABLE.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in table.items()
    ]
    TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} rows to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
