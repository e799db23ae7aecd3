"""Machine-level simulation loop: CPUs issuing into the shared memory.

Couples :class:`~repro.machine.cpu.CpuModel` instances to one
:class:`~repro.runner.fastsim.CountedSim` memory kernel: each clock,
every CPU first issues ready instructions onto idle ports, then the
memory arbitration runs, then drained instructions retire.  The run
ends when every CPU's program has completed (background-only CPUs never
hold the machine up).

Issue can only change what it does when a port drains or when an
instruction's chain latency runs out, so the loop hands the kernel
whole spans between those events; the kernel stops on its own after a
clock in which a stream drains.  The result is the same as issuing and
retiring every clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.config import MemoryConfig
from ..runner.fastsim import CountedSim
from ..sim.stats import SimStats
from .cpu import CpuModel

__all__ = ["MachineSimulation", "MachineRunResult"]


@dataclass
class MachineRunResult:
    """Outcome of a machine run.

    ``cycles`` is the execution time in clock periods — the quantity
    Fig. 10(a)/(b) plots (the paper reports CPU seconds; ours differ by
    the constant clock period τ, which cancels in every shape claim).
    """

    cycles: int
    stats: SimStats


class MachineSimulation:
    """A memory kernel plus the CPUs that feed it."""

    def __init__(
        self,
        config: MemoryConfig,
        cpus: list[CpuModel],
        *,
        priority: str = "cyclic",
    ) -> None:
        if not cpus:
            raise ValueError("need at least one CPU")
        ports = [slot for cpu in cpus for slot in cpu.ports]
        # The kernel numbers ports densely in priority order; validate
        # wiring here so the error points at machine assembly.
        for expect, port in enumerate(ports):
            if port.index != expect:
                raise ValueError(
                    f"port indices must be dense and ordered across CPUs; "
                    f"found index {port.index} at position {expect}"
                )
        self.config = config
        self.cpus = cpus
        self.sim = CountedSim(
            config, [port.cpu for port in ports], priority=priority
        )
        for cpu in cpus:
            cpu.sim = self.sim

    @property
    def clock(self) -> int:
        return self.sim.cycle

    def run_until_programs_finish(self, max_cycles: int = 2_000_000) -> MachineRunResult:
        """Advance clocks until every CPU program retired its last
        instruction; background streams keep flowing meanwhile."""
        sim = self.sim
        while not all(cpu.program_finished for cpu in self.cpus):
            clock = sim.cycle
            if clock >= max_cycles:
                raise RuntimeError(
                    f"programs not finished within {max_cycles} clocks"
                )
            limit = max_cycles - clock
            for cpu in self.cpus:
                cpu.issue(clock)
                if cpu.wake is not None and cpu.wake - clock < limit:
                    limit = cpu.wake - clock
            sim.advance(limit)
            for cpu in self.cpus:
                cpu.collect_completions(sim.cycle - 1)
        return MachineRunResult(cycles=sim.cycle, stats=sim.stats())
