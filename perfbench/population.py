"""``population`` workload: one large ``run_many`` batch per round.

Closed loop, one caller.  A round hands the seed's whole population of
pair jobs to a fresh ``SweepExecutor(backend="auto")`` in one call.
Jobs share little (random shapes, strides and starts), so the analytic
tier decides part of them and the lockstep batch core simulates most
of the rest; the arbiter-policy slice takes the batch core's scalar
``policy`` fallback.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

IMPORTS = "from repro.runner import SimJob, SweepExecutor"
BUILD = 'SweepExecutor(backend="auto")'

SHAPES = ((32, (4, 6)), (64, (4,)))
PRIORITIES = ("fixed", "cyclic", "lru")
#: Share of jobs carrying an arbiter policy or a regulator, and share
#: whose two streams come from one CPU.  Both are assumptions, since no
#: record of real sweeps exists: the policy slice is kept small so the
#: batch core, not its scalar fallback, does most of the work while the
#: fallback still runs on ~200 jobs a round; a minority of one-CPU jobs
#: exercises the same-CPU priority paths without changing what the
#: workload stresses.
POLICY_SHARE = 0.05
SHARED_CPU_SHARE = 0.15
POLICIES = (
    ("wfq:1,2", ()),
    ("wfq:3,1", ()),
    (None, ("stream:0=1/2",)),
    (None, ("stream:1=1/4",)),
)
REPLAY = 48


def grid() -> list[tuple[int, int, int, int, str]]:
    """``(m, n_c, d1, d2, priority)`` of every job, the same for all seeds.

    Per-job cost is heavy-tailed in the strides, so the stride grid is
    fixed and the seed varies only starts, CPU wiring and the policy
    slice; drawing the strides too moved the batch rate by +-10 % from
    seed to seed.
    """
    out = []
    for m, n_cs in SHAPES:
        for d1 in range(1, m):
            for d2 in range(1, m):
                if m == 64 and (d1 + d2) % 2:
                    continue
                for n_c in n_cs:
                    out.append((m, n_c, d1, d2, PRIORITIES[len(out) % 3]))
    return out


def generate(seed: int) -> list:
    """The seed's population of steady two-stream jobs.

    The seed picks which jobs carry a policy and which share a CPU, but
    their numbers are fixed shares of the grid, spread evenly over it:
    drawn job by job, the policy slice's size varied by +-15 % between
    seeds and its strides clustered, and its scalar fallback moved the
    batch's time with both.
    """
    from repro.memory.config import MemoryConfig
    from repro.runner import SimJob

    rng = random.Random(seed)
    shapes = grid()
    n = len(shapes)
    policy = _spread(rng, n, POLICY_SHARE)
    policy_of = {i: POLICIES[k % len(POLICIES)] for k, i in enumerate(policy)}
    shared = set(_spread(rng, n, SHARED_CPU_SHARE))
    jobs = []
    for i, (m, n_c, d1, d2, priority) in enumerate(shapes):
        arbiter, regulate = policy_of.get(i, (None, ()))
        jobs.append(
            SimJob.from_specs(
                MemoryConfig(banks=m, bank_cycle=n_c),
                [(0, d1), (rng.randrange(m), d2)],
                cpus=(0, 0) if i in shared else (0, 1),
                priority=priority,
                arbiter=arbiter,
                regulate=regulate,
            )
        )
    return jobs


def _spread(rng: random.Random, n: int, share: float) -> list[int]:
    """``round(share * n)`` indices below ``n``, one drawn from each of
    as many equal strata."""
    count = round(share * n)
    return [int((k + rng.random()) * n / count) for k in range(count)]


@dataclass
class Round:
    jobs: int
    digest: str
    stats: dict[str, int]
    #: Kept for the last round only.
    outcomes: list | None
    #: Reference seconds of the batch (see ``pace``).
    parts: dict


def run_round(jobs: list, meter=None) -> Round:
    from repro.runner import SweepExecutor

    from perfbench.pace import Meter

    ex = SweepExecutor(backend="auto")
    meter = meter or Meter(ticks=False)
    with meter.part("population"):
        outs = ex.run_many(jobs)
    return Round(len(jobs), checksum(outs), ex.stats.as_dict(), outs, meter.finish())


def slim(rnd: Round) -> None:
    """Drop what only the last round needs."""
    rnd.outcomes = None


def round_clocks(jobs: list, rnd: Round) -> int:
    """Simulated clocks (transient + period) of every resolved job."""
    return sum(o.cycles for o in rnd.outcomes)


def checksum(outcomes) -> str:
    """Digest of every exact field of a list of outcomes, in order."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(
            f"{o.bandwidth}|{o.period}|{o.grants}|{o.steady_start}\n".encode()
        )
    return h.hexdigest()


def undecided(jobs: list) -> list:
    """The jobs the analytic tier leaves to simulation."""
    from repro.runner import solve

    return [j for j in jobs if solve(j) is None]


def check(jobs: list, rounds: list[Round], seed: int) -> tuple[int, int, list[str]]:
    """Replay a seeded sample on the reference backend, and compare the
    exact checksums of the fast and batch backends on the simulated
    jobs.  Returns ``(failed, checked, messages)``."""
    from repro.runner import get_backend, run

    failed, msgs = 0, []
    for i, rnd in enumerate(rounds[1:], 1):
        if rnd.digest != rounds[0].digest:
            failed += 1
            msgs.append(f"population outcomes of round {i} differ from round 0")
    outs = rounds[-1].outcomes
    idx = random.Random(seed ^ 0xC3).sample(range(len(jobs)), REPLAY)
    for i in idx:
        want = run(jobs[i], backend="reference")
        got = outs[i]
        if (got.bandwidth, got.period) != (want.bandwidth, want.period):
            failed += 1
            msgs.append(
                f"{jobs[i].describe()}: population gave {got.bandwidth}, "
                f"reference {want.bandwidth}"
            )
    # auto hands a population this large to the batch core, so the
    # round's simulated outcomes are the batch side of the comparison.
    sim = undecided(jobs)
    by_job = dict(zip(jobs, outs))
    batch = checksum(by_job[j] for j in sim)
    fast = checksum(get_backend("fast").run_batch(sim))
    if batch != fast:
        failed += 1
        msgs.append(f"exact checksums differ: batch {batch}, fast {fast}")
    return failed, REPLAY + len(rounds), msgs


def ab_metrics(jobs: list, seed: int) -> dict[str, float]:
    """Batch core against the fast core on the simulated jobs."""
    from perfbench.layers import ab_rows

    return ab_rows("runner.batchsim", "vs_fast", "batch", "fast", undecided(jobs))
