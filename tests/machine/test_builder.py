"""Unit tests for repro.machine.builder (generic machines, VP preset)."""

from __future__ import annotations

import pytest

from repro.machine.builder import (
    VP200_SPEC,
    XMP_SPEC,
    MachineSpec,
    build_machine,
    run_on,
)
from repro.machine.instructions import PortKind
from repro.machine.workloads import triad_program, unit_stride_background
from repro.memory.config import MemoryConfig
from repro.memory.layout import CommonBlock


@pytest.fixture
def common():
    return CommonBlock.build([(n, (40000,)) for n in "ABCD"])


class TestMachineSpec:
    def test_xmp_spec_shape(self):
        assert XMP_SPEC.cpus == 2
        assert XMP_SPEC.total_ports == 6
        assert XMP_SPEC.vector_length == 64

    def test_vp_spec_shape(self):
        assert VP200_SPEC.cpus == 1
        assert VP200_SPEC.total_ports == 4
        assert VP200_SPEC.config.banks == 32
        assert VP200_SPEC.vector_length == 256

    def test_validation(self):
        cfg = MemoryConfig(banks=8, bank_cycle=2)
        with pytest.raises(ValueError):
            MachineSpec("x", cfg, (), 64)
        with pytest.raises(ValueError):
            MachineSpec("x", cfg, ((),), 64)
        with pytest.raises(ValueError):
            MachineSpec("x", cfg, ((PortKind.READ,),), 0)
        with pytest.raises(ValueError):
            MachineSpec("x", cfg, ((PortKind.READ,),), 64, chain_latency=-1)


class TestBuildMachine:
    def test_port_indices_dense_across_cpus(self):
        sim = build_machine(XMP_SPEC)
        indices = [s.index for c in sim.cpus for s in c.ports]
        assert indices == list(range(6))

    def test_builder_matches_build_xmp(self, common):
        """The declarative XMP spec behaves exactly like the hand-wired
        machine in repro.machine.xmp."""
        from repro.machine.xmp import run_program

        prog = triad_program(2, n=256, common=common)
        via_spec = run_on(XMP_SPEC, prog)
        via_xmp = run_program(
            list(prog), other_cpu_active=False, priority="cyclic"
        )
        assert via_spec.cycles == via_xmp.cycles


class TestRunOn:
    def test_triad_runs_on_vp(self, common):
        prog = triad_program(
            1, n=512, common=common, vector_length=VP200_SPEC.vector_length
        )
        res = run_on(VP200_SPEC, prog)
        assert res.stats.total_grants == 4 * 512

    def test_vp_shrugs_off_stride_16(self, common):
        """16 is only half the VP's 32-bank interleave: r = 2 on the
        X-MP but r = 2... on 32 banks gcd(32,16)=16 ⇒ r=2 as well — use
        stride 8: r=2 on 16 banks (bad), r=4 = n_c on 32 banks (clean)."""
        prog8 = triad_program(
            8, n=256, common=common, vector_length=VP200_SPEC.vector_length
        )
        vp = run_on(VP200_SPEC, prog8)
        xmp = run_on(
            XMP_SPEC,
            triad_program(8, n=256, common=common, vector_length=64),
        )
        assert vp.cycles < xmp.cycles

    def test_background_on_other_cpu(self, common):
        prog = triad_program(1, n=128, common=common)
        res = run_on(
            XMP_SPEC,
            prog,
            background={1: unit_stride_background(16)},
        )
        quiet = run_on(XMP_SPEC, triad_program(1, n=128, common=common))
        assert res.cycles >= quiet.cycles

    def test_background_validation(self, common):
        prog = triad_program(1, n=64, common=common)
        with pytest.raises(ValueError):
            run_on(XMP_SPEC, prog, background={0: unit_stride_background(16)})
        with pytest.raises(ValueError):
            run_on(XMP_SPEC, prog, cpu=5)
