#!/usr/bin/env python
"""Generate the golden arbitration table ``tests/golden/arbitration.json``.

Every row maps a job's cache key to the exact outcome the reference
engine reports for it: bandwidth as ``num/den``, steady period, grants
per port and the first clock of the periodic regime (``period`` and
``steady_start`` are ``null`` for fixed-horizon jobs).  The job set
covers every arbitration spec the program accepts: the four priority
kinds, split priority/intra pairs, weighted-fair arbiters with equal
and unequal weights, and per-stream and per-bank regulation, on steady
and fixed-horizon jobs of two and three streams, same-CPU and
cross-CPU, with and without memory sections.

``tests/golden/test_arbitration_golden.py`` replays the table on every
simulating backend and requires byte-identical keys and values.  The
table pins behaviour, so the script refuses to overwrite an existing
one unless ``--bless`` is given::

    PYTHONPATH=src python tools/gen_golden_arbitration.py [--bless]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.memory.config import MemoryConfig  # noqa: E402
from repro.runner import SimJob, get_backend  # noqa: E402

TABLE = ROOT / "tests" / "golden" / "arbitration.json"

#: ``(priority, intra_priority, arbiter, regulate)`` variants.  ``wfq``
#: weights are given per stream count, so those variants carry ``None``
#: and take their weights from ``WFQ_WEIGHTS``.
ARBITRATION = [
    ("fixed", None, None, ()),
    ("cyclic", None, None, ()),
    ("block-cyclic:2", None, None, ()),
    ("block-cyclic:3", None, None, ()),
    ("lru", None, None, ()),
    ("cyclic", "lru", None, ()),
    ("lru", "cyclic", None, ()),
    ("fixed", "block-cyclic:3", None, ()),
    ("fixed", "fixed", None, ()),
    ("lru", "lru", None, ()),
    ("fixed", None, "equal", ()),
    ("fixed", None, "unequal", ()),
    ("fixed", None, None, ("stream=1/2",)),
    ("cyclic", None, None, ("stream:0=1/3",)),
    ("fixed", None, None, ("bank:0=1/4",)),
    ("lru", None, None, ("bank=2/3",)),
    ("fixed", None, "unequal", ("stream:1=2/3", "bank:1=1/2")),
]

WFQ_WEIGHTS = {
    "equal": {2: "wfq:1,1", 3: "wfq:1,1,1"},
    "unequal": {2: "wfq:2,1", 3: "wfq:2,1,3"},
}

#: ``(banks, bank_cycle, sections)`` memory shapes.
SHAPES = [(8, 2, None), (12, 3, 3), (12, 2, 2), (13, 4, None), (16, 4, 4)]

#: CPU placements: same-CPU and cross-CPU, two and three streams.
PLACEMENTS = [(0, 0), (0, 1), (0, 0, 1), (0, 1, 2), (0, 0, 0)]

#: Jobs drawn per arbitration variant.
JOBS_PER_VARIANT = 16
SEED = 1985


def _jobs() -> list[SimJob]:
    rng = random.Random(SEED)
    jobs = []
    for priority, intra, arbiter, regulate in ARBITRATION:
        for i in range(JOBS_PER_VARIANT):
            m, n_c, sections = SHAPES[rng.randrange(len(SHAPES))]
            cpus = PLACEMENTS[i % len(PLACEMENTS)]
            specs = [
                (rng.randrange(m), rng.randrange(1, m)) for _ in cpus
            ]
            steady = i % 3 != 2
            jobs.append(
                SimJob.from_specs(
                    MemoryConfig(banks=m, bank_cycle=n_c, sections=sections),
                    specs,
                    cpus=cpus,
                    priority=priority,
                    intra_priority=intra,
                    arbiter=(
                        None if arbiter is None
                        else WFQ_WEIGHTS[arbiter][len(cpus)]
                    ),
                    regulate=regulate,
                    steady=steady,
                    cycles=None if steady else 40 + rng.randrange(40),
                )
            )
    return jobs


def _job_fields(job: SimJob) -> dict:
    return {
        "banks": job.banks,
        "bank_cycle": job.bank_cycle,
        "sections": job.sections,
        "streams": [list(s) for s in job.streams],
        "cpus": list(job.cpus),
        "priority": job.priority,
        "intra_priority": job.intra_priority,
        "arbiter": job.arbiter,
        "regulate": list(job.regulate),
        "steady": job.steady,
        "cycles": job.cycles,
    }


def outcome_row(outcome) -> dict:
    """The exact, backend-independent part of an outcome."""
    bw = outcome.bandwidth
    return {
        "bandwidth": f"{bw.numerator}/{bw.denominator}",
        "period": outcome.period,
        "grants": list(outcome.grants),
        "steady_start": outcome.steady_start,
    }


def build_table() -> dict[str, dict]:
    jobs = _jobs()
    outcomes = get_backend("reference").run_batch(jobs)
    table: dict[str, dict] = {}
    for job, out in zip(jobs, outcomes):
        row = {"job": _job_fields(job), **outcome_row(out)}
        key = job.cache_key()
        if key in table and outcome_row(out) != {
            k: v for k, v in table[key].items() if k != "job"
        }:
            raise SystemExit(f"isomorphic jobs disagree under key {key}")
        table.setdefault(key, row)
    return dict(sorted(table.items()))


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
        f"{json.dumps(key)}: {json.dumps(row, sort_keys=True)}"
        for key, row in table.items()
    ]
    TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} rows to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
