"""``xmp`` workload: the reference-engine paths of the paper suite.

Closed loop, one caller.  A round runs every item once — the Fig. 10
triad for INC 1-16 in both environments, a dueling-triads matrix, the
skewing ablation and the structured-vs-random comparison — in an order
the seed shuffles anew each round.  The work itself never depends on
the seed, so every round simulates the same machine clocks.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

IMPORTS = (
    "from repro.machine.xmp import run_triad\n"
    "from repro.machine.experiments import dueling_triads\n"
    "from repro.skewing.evaluate import stride_sensitivity\n"
    "from repro.stochastic.evaluate import structured_vs_random"
)
BUILD = "pass"

DUEL_INCS = (1, 2, 3, 8)
DUEL_N = 256
SKEW_HORIZON, SKEW_WARMUP = 2048, 256
GATHER_PORTS = (1, 2, 4, 6)
GATHER_HORIZON, GATHER_WARMUP = 4096, 512

#: Engine clocks of one round: 96,371 triad clocks, the duel matrix,
#: 2 mappings x 16 strides x 2,048 skewing clocks and 2 x 4 x 4,096
#: gather clocks.
ROUND_CLOCKS = 96371 + 15130 + 65536 + 32768
#: Digest of every item's exact result; any change to a simulated
#: number shows here.
RESULTS_DIGEST = "6ab54056310a59b434b346f00d9c6e1424206fab11bc7ab217a4e54d6593b0cd"


def items() -> list[tuple]:
    return (
        [("triad", inc, env) for env in (True, False) for inc in range(1, 17)]
        + [("duel", a, b) for a in DUEL_INCS for b in DUEL_INCS]
        + [("skew", d) for d in range(1, 17)]
        + [("gather", p) for p in GATHER_PORTS]
    )


def generate(seed: int) -> random.Random:
    """The seed's source of item orders (one shuffle per round)."""
    return random.Random(seed)


def round_order(rng: random.Random) -> list[tuple]:
    """The next round's item order."""
    order = items()
    rng.shuffle(order)
    return order


def run_item(item: tuple):
    """``(result, engine clocks)`` of one item."""
    from repro.machine.experiments import dueling_triads
    from repro.machine.xmp import run_triad
    from repro.memory.config import MemoryConfig
    from repro.skewing import evaluate as skew
    from repro.stochastic import evaluate as gather

    cfg = MemoryConfig(banks=16, bank_cycle=4)
    kind = item[0]
    if kind == "triad":
        r = run_triad(item[1], other_cpu_active=item[2])
        return r, r.cycles
    if kind == "duel":
        r = dueling_triads(item[1], item[2], n=DUEL_N)
        return r, r.total_cycles
    if kind == "skew":
        (r,) = skew.stride_sensitivity(
            cfg, [item[1]], peers=1, skew=1,
            horizon=SKEW_HORIZON, warmup=SKEW_WARMUP,
        )
        return r, 2 * SKEW_HORIZON
    r = gather.structured_vs_random(
        cfg, item[1], horizon=GATHER_HORIZON, warmup=GATHER_WARMUP
    )
    return r, 2 * GATHER_HORIZON


@dataclass
class Round:
    jobs: int
    clocks: int
    results: dict
    #: Reference seconds per item (see ``pace``).
    parts: dict


def run_round(rng: random.Random, meter=None) -> Round:
    from perfbench.pace import Meter

    meter = meter or Meter(ticks=False)
    order = round_order(rng)
    results = {}
    clocks = 0
    for item in order:
        with meter.part(item):
            results[item], c = run_item(item)
        clocks += c
    return Round(len(order), clocks, results, meter.finish())


def round_clocks(rng: random.Random, rnd: Round) -> int:
    return rnd.clocks


def digest(results: dict) -> str:
    h = hashlib.sha256()
    for item in items():
        h.update(f"{item}={results[item]!r}\n".encode())
    return h.hexdigest()


def shape_failures(results: dict) -> list[str]:
    """The Fig. 10, skewing and gather claims of the paper suite."""
    by_inc = {i: results[("triad", i, True)] for i in range(1, 17)}
    ded = {i: results[("triad", i, False)] for i in range(1, 17)}
    skewr = {d: results[("skew", d)] for d in range(1, 17)}
    ranked = sorted(by_inc, key=lambda i: by_inc[i].cycles)
    claims = {
        "best increments {1, 6, 11}": {1, 6, 11} <= set(ranked[:5]),
        "INC=2 about +50 %": 1.3 <= by_inc[2].cycles / by_inc[1].cycles <= 2.1,
        "INC=3 about +100 %": 1.7 <= by_inc[3].cycles / by_inc[1].cycles <= 2.6,
        "INC=16 slowest": by_inc[16].cycles == max(r.cycles for r in by_inc.values()),
        "INC=9 worse than INC=1": by_inc[9].cycles > by_inc[1].cycles,
        "barrier gone without the other CPU": ded[2].cycles <= 1.2 * ded[1].cycles,
        "self-conflict stays without the other CPU": ded[16].cycles > 3 * ded[1].cycles,
        "no simultaneous conflicts on a dedicated machine": all(
            r.simultaneous_conflicts == 0 for r in ded.values()
        ),
        "skew lifts stride 16": skewr[16].skewed > 2 * skewr[16].plain,
        "stride 1 unaffected by skew": skewr[1].skewed == skewr[1].plain == 2,
        "structured beats random": all(
            results[("gather", p)].random < results[("gather", p)].structured
            for p in GATHER_PORTS
        ),
    }
    return [name for name, ok in claims.items() if not ok]


def check(rng: random.Random, rounds: list[Round], seed: int) -> tuple[int, int, list[str]]:
    """Claims hold, every round gives the same results and clocks in
    its own order, and the results match the pinned digest.  Returns
    ``(failed, checked, messages)``."""
    failed, msgs = 0, []
    first = digest(rounds[0].results)
    for i, rnd in enumerate(rounds):
        if rnd.clocks != ROUND_CLOCKS:
            failed += 1
            msgs.append(f"round {i} simulated {rnd.clocks} clocks, not {ROUND_CLOCKS}")
        if i and digest(rnd.results) != first:
            failed += 1
            msgs.append(f"round {i} results differ from round 0")
    bad = shape_failures(rounds[-1].results)
    failed += len(bad)
    msgs += [f"claim failed: {name}" for name in bad]
    if first != RESULTS_DIGEST:
        failed += 1
        msgs.append(f"results digest {first} != pinned {RESULTS_DIGEST}")
    return failed, 2 * len(rounds) + 12, msgs
