"""Performance — raw simulator throughput (clocks simulated per second).

Not a paper experiment: this tracks the speed of the reproduction's own
engines so regressions in the arbitration loop are caught.  Three
workload shapes spanning the arbitration paths: one port (bank checks
only), two CPUs (simultaneous conflicts), six ports on a sectioned
memory (full three-phase arbitration) — each run on both backends, so
the benchmark table shows the reference/fast gap directly (the standing
claim is fast >= 3x reference; ``tools/bench_compare.py`` checks the
same workloads headlessly).

``test_counted_kernel_ratio`` is a same-run ratio row for the counted
kernel that carries the machine model and the finite-window evaluators:
one finite workload on the reference engine and on the kernel, the
sides interleaved in one process.  A specialised kernel stays only
while this row shows it pays (>= 2x).
"""

from __future__ import annotations

import time
from statistics import median

import pytest

from repro.core.stream import INFINITE, AccessStream
from repro.memory.config import MemoryConfig
from repro.runner import SimJob, run
from repro.runner.fastsim import CountedSim
from repro.sim.engine import Engine
from repro.sim.port import Port

CLOCKS = 2000
#: Interleaved repetitions of each side of the kernel ratio row.
RATIO_REPS = 3
#: The counted kernel's floor over the reference engine.
MIN_KERNEL_SPEEDUP = 2.0

WORKLOADS = [(1, False), (2, False), (6, True)]
WORKLOAD_IDS = ["1port", "2ports", "6ports-sectioned"]


def _config(sectioned: bool) -> MemoryConfig:
    return MemoryConfig(banks=16, bank_cycle=4, sections=4 if sectioned else None)


def _specs(n_ports: int) -> list[tuple[int, int]]:
    return [((3 * i) % 16, 1 + (i % 3)) for i in range(n_ports)]


def _build(n_ports: int, sectioned: bool):
    cfg = _config(sectioned)
    ports = [Port(index=i, cpu=i % 2) for i in range(n_ports)]
    engine = Engine(cfg, ports, priority="cyclic")
    for p, (b, d) in zip(ports, _specs(n_ports)):
        p.assign(AccessStream(start_bank=b, stride=d))
    return engine


@pytest.mark.parametrize("n_ports,sectioned", WORKLOADS, ids=WORKLOAD_IDS)
def test_engine_throughput(benchmark, n_ports, sectioned):
    def run_engine():
        engine = _build(n_ports, sectioned)
        engine.run(CLOCKS)
        return engine.stats.total_grants

    grants = benchmark(run_engine)
    assert grants > 0
    benchmark.extra_info["clocks"] = CLOCKS
    benchmark.extra_info["grants"] = grants
    benchmark.extra_info["backend"] = "reference"


@pytest.mark.parametrize("n_ports,sectioned", WORKLOADS, ids=WORKLOAD_IDS)
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_runner_throughput(benchmark, backend, n_ports, sectioned):
    """Same workloads through the runner layer, on each backend."""
    job = SimJob.from_specs(
        _config(sectioned),
        _specs(n_ports),
        cpus=[i % 2 for i in range(n_ports)],
        priority="cyclic",
        steady=False,
        cycles=CLOCKS,
    )

    def run_job():
        return run(job, backend=backend)

    out = benchmark(run_job)
    assert sum(out.grants) > 0
    benchmark.extra_info["clocks"] = CLOCKS
    benchmark.extra_info["grants"] = sum(out.grants)
    benchmark.extra_info["backend"] = backend


def _finite_window(side: str):
    """Six ports on a sectioned memory for a fixed window of ``CLOCKS``;
    port 0 drains a 64-element stream and is reassigned halfway."""
    cfg = _config(True)
    cpus = [i % 2 for i in range(6)]
    first = [
        AccessStream(start_bank=b, stride=d, length=64 if i == 0 else INFINITE)
        for i, (b, d) in enumerate(_specs(6))
    ]
    second = AccessStream(start_bank=5, stride=3)
    if side == "engine":
        ports = [Port(index=i, cpu=c) for i, c in enumerate(cpus)]
        engine = Engine(cfg, ports, priority="cyclic")
        for port, stream in zip(ports, first):
            port.assign(stream)
        engine.run(CLOCKS // 2)
        ports[0].assign(second)
        engine.run(CLOCKS - CLOCKS // 2)
        return engine.stats
    sim = CountedSim(cfg, cpus, priority="cyclic")
    for port, stream in enumerate(first):
        sim.assign(port, stream)
    sim.run_span(CLOCKS // 2)
    sim.assign(0, second)
    sim.run_span(CLOCKS - CLOCKS // 2)
    return sim.stats()


def test_counted_kernel_ratio(benchmark):
    """Same-run ratio: the counted kernel against the reference engine."""

    def interleaved():
        times: dict[str, list[float]] = {"engine": [], "kernel": []}
        stats = {}
        for rep in range(RATIO_REPS):
            order = ("engine", "kernel") if rep % 2 == 0 else ("kernel", "engine")
            for side in order:
                t0 = time.perf_counter()
                stats[side] = _finite_window(side)
                times[side].append(time.perf_counter() - t0)
        return stats, median(times["engine"]) / median(times["kernel"])

    stats, speedup = benchmark.pedantic(interleaved, rounds=1, iterations=1)
    assert stats["kernel"] == stats["engine"]
    assert stats["engine"].ports[0].grants > 64  # the reassigned stream ran
    assert speedup >= MIN_KERNEL_SPEEDUP, f"counted kernel only {speedup:.2f}x"
    benchmark.extra_info["clocks"] = CLOCKS
    benchmark.extra_info["speedup_vs_reference"] = round(speedup, 2)
