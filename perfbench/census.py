"""``census`` workload: observed regime censuses on fresh auto executors.

Closed loop, one caller.  A round runs every unit of the plan, each on
a fresh ``SweepExecutor(backend="auto")``.  A unit is one full
``observed_regime_census`` of one memory shape: isomorphic pairs and
starts meet in one executor, so the key, memo and dedup layers see a
census's sharing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

IMPORTS = (
    "from repro.analysis.census import observed_regime_census\n"
    "from repro.runner import SweepExecutor"
)
BUILD = 'SweepExecutor(backend="auto")'

#: Full observed censuses, from the cheap fixed rule on a large shape
#: to the stateful rules on small ones.
PLAN = ((40, 4, "fixed"), (28, 4, "cyclic"), (25, 5, "lru"))
#: Jobs replayed on the reference backend per run.
REPLAY = 48
#: Census jobs on each side of the fast/reference A/B.
AB_JOBS = 64


@dataclass(frozen=True)
class Unit:
    m: int
    n_c: int
    priority: str
    pairs: tuple[tuple[int, int], ...]

    def jobs(self) -> list:
        from repro.memory.config import MemoryConfig
        from repro.runner import jobs_for_offsets

        cfg = MemoryConfig(banks=self.m, bank_cycle=self.n_c)
        return [
            job
            for d1, d2 in self.pairs
            for job in jobs_for_offsets(
                cfg, d1, d2, range(self.m), priority=self.priority
            )
        ]


def generate(seed: int) -> list[Unit]:
    """Every shape of ``PLAN``, unit order and pair order shuffled.

    Drawing the shapes or a pair sample from the seed made the rate
    swing by +-30 % between seeds (per-pair cost is heavy-tailed), so
    the seed only reorders work whose total is fixed.
    """
    from repro.analysis.sweep import canonical_pairs

    rng = random.Random(seed)
    units = []
    for m, n_c, priority in PLAN:
        pairs = canonical_pairs(m)
        rng.shuffle(pairs)
        units.append(Unit(m, n_c, priority, tuple(pairs)))
    rng.shuffle(units)
    return units


@dataclass
class Round:
    jobs: int
    counts: list[dict[str, int]]
    stats: dict[str, int]
    #: Kept for the last round only (its memos answer the replay).
    executors: list | None
    #: Reference seconds per unit (see ``pace``), keyed by shape and rule.
    parts: dict


def run_round(units: list[Unit], meter=None) -> Round:
    from repro.analysis import census
    from repro.runner import SweepExecutor

    from perfbench.pace import Meter

    meter = meter or Meter(ticks=False)
    executors = []
    counts = []
    jobs = 0
    for unit in units:
        ex = SweepExecutor(backend="auto")
        with meter.part((unit.m, unit.n_c, unit.priority)):
            counts.append(
                census.observed_regime_census(
                    unit.m,
                    unit.n_c,
                    pairs=list(unit.pairs),
                    priority=unit.priority,
                    executor=ex,
                )
            )
        executors.append(ex)
        jobs += len(unit.pairs) * unit.m
    stats: dict[str, int] = {}
    for ex in executors:
        for k, v in ex.stats.as_dict().items():
            stats[k] = stats.get(k, 0) + v
    return Round(jobs, counts, stats, executors, meter.finish())


def slim(rnd: Round) -> None:
    """Drop what only the last round needs."""
    rnd.executors = None


def outcomes(units: list[Unit], rnd: Round) -> list[tuple]:
    """``(job, outcome or None)`` for every job of a finished round."""
    return [
        (job, ex.peek(job))
        for unit, ex in zip(units, rnd.executors)
        for job in unit.jobs()
    ]


def round_clocks(units: list[Unit], rnd: Round) -> int:
    """Simulated clocks (transient + period) of every job a round resolved."""
    return sum(o.cycles for _, o in outcomes(units, rnd) if o is not None)


def check(units: list[Unit], rounds: list[Round], seed: int) -> tuple[int, int, list[str]]:
    """Counts repeat in every round, and a seeded sample replays
    exactly on the reference backend.  Returns ``(failed, checked, messages)``."""
    from repro.runner import run

    failed, msgs = 0, []
    for i, rnd in enumerate(rounds[1:], 1):
        if rnd.counts != rounds[0].counts:
            failed += 1
            msgs.append(f"census counts of round {i} differ from round 0")
    resolved = outcomes(units, rounds[-1])
    sample = random.Random(seed ^ 0xC3).sample(resolved, min(REPLAY, len(resolved)))
    for job, got in sample:
        want = run(job, backend="reference")
        if got is None or (got.bandwidth, got.period) != (want.bandwidth, want.period):
            failed += 1
            msgs.append(
                f"{job.describe()}: census gave "
                f"{None if got is None else got.bandwidth}, reference {want.bandwidth}"
            )
    return failed, len(sample) + len(rounds) - 1, msgs


def ab_metrics(units: list[Unit], seed: int) -> dict[str, float]:
    """Fast core against the reference engine on a seeded sample of
    census jobs the theory leaves undecided."""
    from repro.runner import solve

    from perfbench.layers import ab_rows

    undecided = [j for u in units for j in u.jobs() if solve(j) is None]
    sample = random.Random(seed ^ 0xAB).sample(undecided, min(AB_JOBS, len(undecided)))
    return ab_rows("runner.fastsim", "vs_reference", "fast", "reference", sample)
