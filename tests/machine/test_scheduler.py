"""Unit tests for repro.machine.scheduler."""

from __future__ import annotations

import pytest

from repro.core.stream import AccessStream
from repro.machine.cpu import CpuModel, CpuPort
from repro.machine.instructions import PortKind, VectorInstruction
from repro.machine.scheduler import MachineSimulation
from repro.memory.config import MemoryConfig


def one_cpu_machine(program, m=8, n_c=2, chain=0, start_index=0):
    slots = [
        CpuPort(index=start_index, cpu=0, kind=PortKind.READ),
        CpuPort(index=start_index + 1, cpu=0, kind=PortKind.WRITE),
    ]
    cpu = CpuModel(0, slots, chain_latency=chain)
    cpu.load_program(program)
    cfg = MemoryConfig(banks=m, bank_cycle=n_c)
    return MachineSimulation(cfg, [cpu])


def instr(uid, kind=PortKind.READ, length=4, deps=()):
    return VectorInstruction(
        uid=uid, name=f"i{uid}", kind=kind, base=0, stride=1,
        length=length, depends_on=tuple(deps),
    )


class TestRunToCompletion:
    def test_single_load_time(self):
        sim = one_cpu_machine([instr(0, length=4)])
        res = sim.run_until_programs_finish()
        # 4 conflict-free unit-stride grants: clocks 0..3; loop exits at 4.
        assert res.cycles == 4
        assert res.stats.total_grants == 4

    def test_load_then_store_chain(self):
        sim = one_cpu_machine(
            [instr(0, length=4), instr(1, kind=PortKind.WRITE, length=4, deps=[0])]
        )
        res = sim.run_until_programs_finish()
        # store issues the clock after the load completes (chain 0):
        # load occupies 0..3, store 4..7.
        assert res.cycles == 8

    def test_chain_latency_adds_gap(self):
        sim = one_cpu_machine(
            [instr(0, length=4),
             instr(1, kind=PortKind.WRITE, length=4, deps=[0])],
            chain=5,
        )
        res = sim.run_until_programs_finish()
        assert res.cycles == 4 + 4 + 4  # completion 3, ready at 8, runs 8..11

    def test_bound_enforced(self):
        sim = one_cpu_machine([instr(0, length=50)])
        with pytest.raises(RuntimeError):
            sim.run_until_programs_finish(max_cycles=10)


class TestMultiCpu:
    def test_background_cpu_never_blocks(self):
        slots0 = [CpuPort(index=0, cpu=0, kind=PortKind.READ)]
        cpu0 = CpuModel(0, slots0)
        cpu0.load_program([instr(0, length=4)])
        slots1 = [CpuPort(index=1, cpu=1, kind=PortKind.READ)]
        cpu1 = CpuModel(1, slots1)
        cfg = MemoryConfig(banks=8, bank_cycle=2)
        sim = MachineSimulation(cfg, [cpu0, cpu1])
        cpu1.set_background({0: AccessStream(4, 1)})
        res = sim.run_until_programs_finish()
        assert res.cycles == 4
        # the background stream really ran
        assert res.stats.ports[1].grants == 4


class TestWiring:
    def test_port_index_density_checked(self):
        with pytest.raises(ValueError):
            one_cpu_machine([instr(0)], start_index=3)

    def test_needs_cpus(self):
        cfg = MemoryConfig(banks=8, bank_cycle=2)
        with pytest.raises(ValueError):
            MachineSimulation(cfg, [])
