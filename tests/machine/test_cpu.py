"""Unit tests for repro.machine.cpu (issue logic and chaining)."""

from __future__ import annotations

import pytest

from repro.core.stream import AccessStream
from repro.machine.cpu import CpuModel, CpuPort
from repro.machine.instructions import PortKind, VectorInstruction
from repro.machine.scheduler import MachineSimulation
from repro.memory.config import MemoryConfig


def make_cpu(chain_latency=0):
    """One CPU wired into a 16-bank machine (its ports live in the
    machine's memory kernel)."""
    slots = [
        CpuPort(index=0, cpu=0, kind=PortKind.READ),
        CpuPort(index=1, cpu=0, kind=PortKind.READ),
        CpuPort(index=2, cpu=0, kind=PortKind.WRITE),
    ]
    cpu = CpuModel(0, slots, chain_latency=chain_latency)
    MachineSimulation(MemoryConfig(banks=16, bank_cycle=4), [cpu])
    return cpu


def idle(cpu, pos):
    return not cpu.sim.left[cpu.ports[pos].index]


def load(uid, deps=(), kind=PortKind.READ, length=4):
    return VectorInstruction(
        uid=uid, name=f"i{uid}", kind=kind, base=uid, stride=1,
        length=length, depends_on=tuple(deps),
    )


class TestIssue:
    def test_independent_loads_fill_read_ports(self):
        cpu = make_cpu()
        cpu.load_program([load(0), load(1), load(2)])
        issued = cpu.issue(clock=0)
        # two read ports -> first two loads issue, third waits
        assert [i.uid for i in issued] == [0, 1]
        assert cpu.issue(clock=1) == []  # ports still busy

    def test_write_port_only_takes_stores(self):
        cpu = make_cpu()
        cpu.load_program([load(0, kind=PortKind.WRITE)])
        issued = cpu.issue(0)
        assert issued and cpu.ports[2].current_uid == 0
        assert cpu.ports[0].current_uid is None

    def test_dependency_blocks_issue(self):
        cpu = make_cpu()
        cpu.load_program([load(0), load(1, deps=[0], kind=PortKind.WRITE)])
        issued = cpu.issue(0)
        assert [i.uid for i in issued] == [0]
        # dep 0 not complete: store may not issue even though port 2 idle
        assert cpu.issue(1) == []

    def test_chain_latency_delays_dependents(self):
        cpu = make_cpu(chain_latency=3)
        cpu.load_program([load(0, length=1), load(1, deps=[0], kind=PortKind.WRITE)])
        cpu.issue(0)
        # one clock drains the one-element load
        assert cpu.sim.advance(1) == 1
        done = cpu.collect_completions(clock=0)
        assert [i.uid for i in done] == [0]
        assert cpu.issue(1) == []   # 1 < 0 + 3
        assert cpu.wake == 3
        assert cpu.issue(2) == []
        assert [i.uid for i in cpu.issue(3)] == [1]

    def test_program_finished(self):
        cpu = make_cpu()
        cpu.load_program([load(0, length=1)])
        assert not cpu.program_finished
        cpu.issue(0)
        cpu.sim.advance(1)
        cpu.collect_completions(0)
        assert cpu.program_finished
        assert cpu.last_completion == 0
        assert cpu.issue_clock(0) == 0
        assert cpu.completion_clock(0) == 0

    def test_empty_program_vacuously_finished(self):
        assert make_cpu().program_finished


class TestBackground:
    def test_set_background(self):
        cpu = make_cpu()
        cpu.set_background({0: AccessStream(0, 1), 2: AccessStream(4, 1)})
        assert not idle(cpu, 0)
        assert idle(cpu, 1)
        assert not idle(cpu, 2)
        # background never blocks program completion
        assert cpu.program_finished

    def test_background_must_be_infinite(self):
        cpu = make_cpu()
        with pytest.raises(ValueError):
            cpu.set_background({0: AccessStream(0, 1, length=3)})


class TestValidation:
    def test_program_validation(self):
        cpu = make_cpu()
        with pytest.raises(ValueError):
            cpu.load_program([load(0), load(0)])  # duplicate uid
        with pytest.raises(ValueError):
            cpu.load_program([load(1, deps=[99])])  # unknown dep

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            CpuModel(0, [], chain_latency=0)
        with pytest.raises(ValueError):
            CpuModel(0, [CpuPort(index=0, cpu=1, kind=PortKind.READ)])
        with pytest.raises(ValueError):
            make_cpu(chain_latency=-1)
        with pytest.raises(ValueError):
            CpuPort(index=-1, cpu=0, kind=PortKind.READ)

    def test_cpu_outside_a_machine_cannot_drive_ports(self):
        cpu = CpuModel(0, [CpuPort(index=0, cpu=0, kind=PortKind.READ)])
        cpu.load_program([load(0)])
        with pytest.raises(RuntimeError, match="not part of a machine"):
            cpu.issue(0)
