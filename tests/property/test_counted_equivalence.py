"""The counted kernel against the reference engine on finite workloads.

:class:`repro.runner.fastsim.CountedSim` carries the machine model and
the finite-window evaluators, whose workloads no steady-state suite
covers.  Hypothesis draws 1-6 ports on 1-2 CPUs, sectioned and
unsectioned memories, every priority kind, and queues of arithmetic,
mapped and random streams (finite or infinite) that are reassigned to a
port once its previous stream drained.  The same issue → step → retire
loop drives both sides: the engine one clock per step, the kernel over
whole spans between events.  Cycle counts and per-port ``SimStats``
must be identical.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stream import INFINITE, AccessStream
from repro.memory.config import MemoryConfig
from repro.memory.mapping import InterleavedMapping, LinearSkewMapping
from repro.runner.fastsim import CountedSim
from repro.sim.engine import Engine
from repro.sim.port import Port
from repro.skewing.streams import MappedStream
from repro.stochastic.streams import RandomStream

PRIORITIES = st.sampled_from(
    ["fixed", "cyclic", "lru", "block-cyclic:2", "block-cyclic:3"]
)


@st.composite
def memories(draw) -> MemoryConfig:
    m = draw(st.sampled_from([8, 12, 16]))
    sections = draw(
        st.sampled_from([None] + [s for s in (2, 3, 4) if m % s == 0])
    )
    return MemoryConfig(
        banks=m,
        bank_cycle=draw(st.integers(1, 5)),
        sections=sections,
        section_mapping=draw(st.sampled_from(["cyclic", "consecutive"])),
    )


@st.composite
def streams(draw, m: int):
    length = draw(st.one_of(st.integers(1, 24), st.just(INFINITE)))
    kind = draw(st.sampled_from(["arithmetic", "mapped", "random"]))
    if kind == "arithmetic":
        return AccessStream(
            start_bank=draw(st.integers(0, 2 * m)),
            stride=draw(st.integers(0, 2 * m)),
            length=length,
        )
    if kind == "mapped":
        mapping = draw(
            st.sampled_from([InterleavedMapping(m), LinearSkewMapping(m, 1)])
        )
        return MappedStream(
            mapping=mapping,
            base=draw(st.integers(0, 4 * m)),
            stride=draw(st.integers(1, 2 * m)),
            length=length,
        )
    return RandomStream(seed=draw(st.integers(0, 50)), length=length)


@st.composite
def workloads(draw):
    cfg = draw(memories())
    n = draw(st.integers(1, 6))
    cpus = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    # Per port: (idle clocks before issue, stream) in issue order.
    queues = [
        draw(
            st.lists(
                st.tuples(st.integers(0, 4), streams(cfg.banks)),
                min_size=1,
                max_size=3,
            )
        )
        for _ in range(n)
    ]
    return cfg, cpus, queues, draw(PRIORITIES), draw(st.integers(1, 150))


def drive(advance, assign, idle, queues, clocks: int) -> None:
    """Issue → step → retire until ``clocks``.

    ``advance(limit)`` runs at most ``limit`` clocks (stopping early
    when a stream drains) and returns the clocks it ran.  A port takes
    its next queued stream ``gap`` clocks after it went idle.
    """
    queues = [list(q) for q in queues]
    idle_since = [0] * len(queues)
    draining = [False] * len(queues)
    t = 0
    while t < clocks:
        # Issue.
        for p, queue in enumerate(queues):
            if queue and idle(p) and t >= idle_since[p] + queue[0][0]:
                assign(p, queue.pop(0)[1])
                draining[p] = True
        # Step: up to the next clock at which a port may issue.
        wake = clocks
        for p, queue in enumerate(queues):
            if queue and idle(p):
                wake = min(wake, max(t + 1, idle_since[p] + queue[0][0]))
        t += advance(wake - t)
        # Retire.
        for p in range(len(queues)):
            if draining[p] and idle(p):
                draining[p] = False
                idle_since[p] = t


def run_engine(cfg, cpus, queues, priority, clocks):
    ports = [Port(index=i, cpu=c) for i, c in enumerate(cpus)]
    engine = Engine(cfg, ports, priority=priority)

    def step(limit: int) -> int:
        engine.step()
        return 1

    drive(
        step,
        lambda p, s: ports[p].assign(s),
        lambda p: ports[p].idle,
        queues,
        clocks,
    )
    return engine.cycle, engine.stats


def run_counted(cfg, cpus, queues, priority, clocks):
    sim = CountedSim(cfg, cpus, priority=priority)
    drive(sim.advance, sim.assign, lambda p: not sim.left[p], queues, clocks)
    return sim.cycle, sim.stats()


class TestCountedEqualsEngine:
    @given(workloads())
    @settings(max_examples=150, deadline=None)
    def test_cycles_and_per_port_stats(self, workload):
        assert run_counted(*workload) == run_engine(*workload)

    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_fixed_windows_match(self, workload):
        """``run_span`` (the evaluators' window) equals stepping."""
        cfg, cpus, queues, priority, clocks = workload
        sim = CountedSim(cfg, cpus, priority=priority)
        ports = [Port(index=i, cpu=c) for i, c in enumerate(cpus)]
        engine = Engine(cfg, ports, priority=priority)
        for p, queue in enumerate(queues):
            sim.assign(p, queue[0][1])
            ports[p].assign(queue[0][1])
        sim.run_span(clocks)
        engine.run(clocks)
        assert (sim.cycle, sim.stats()) == (engine.cycle, engine.stats)
