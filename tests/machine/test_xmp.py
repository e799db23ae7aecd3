"""Unit tests for repro.machine.xmp (machine assembly + triad driver)."""

from __future__ import annotations

import pytest

from repro.machine.instructions import PortKind
from repro.machine.xmp import XMP_CONFIG, build_xmp, run_triad, triad_sweep


class TestAssembly:
    def test_config_shape(self):
        assert XMP_CONFIG.banks == 16
        assert XMP_CONFIG.bank_cycle == 4
        assert XMP_CONFIG.effective_sections == 4

    def test_two_cpus_three_ports_each(self):
        sim = build_xmp()
        assert len(sim.cpus) == 2
        for cpu in sim.cpus:
            kinds = [slot.kind for slot in cpu.ports]
            assert kinds == [PortKind.READ, PortKind.READ, PortKind.WRITE]
        # global port indices dense 0..5
        indices = [s.index for c in sim.cpus for s in c.ports]
        assert indices == list(range(6))

    def test_cpu_ids(self):
        sim = build_xmp()
        assert [c.cpu_id for c in sim.cpus] == [0, 1]


class TestRunTriad:
    def test_dedicated_run_basic(self):
        r = run_triad(1, other_cpu_active=False, n=128)
        assert r.inc == 1
        assert not r.other_cpu_active
        # 128 elements: 2 segments; must take at least 128 clocks for
        # grants on the store port alone.
        assert r.cycles > 128
        assert r.triad_grants == 4 * 128  # 3 loads + 1 store per element

    def test_contended_slower_than_dedicated(self):
        a = run_triad(2, other_cpu_active=True, n=128)
        b = run_triad(2, other_cpu_active=False, n=128)
        assert a.cycles > b.cycles
        assert a.other_cpu_active and not b.other_cpu_active

    def test_conflict_counts_nonnegative_and_consistent(self):
        r = run_triad(3, other_cpu_active=True, n=128)
        assert r.bank_conflicts >= 0
        assert r.bank_stall_cycles >= r.bank_conflicts
        assert r.section_stall_cycles >= r.section_conflicts
        assert r.simultaneous_stall_cycles >= r.simultaneous_conflicts

    def test_self_conflicting_stride_is_slow(self):
        # INC=16 ≡ 0 mod 16: every stream hammers one bank (r=1 < n_c).
        slow = run_triad(16, other_cpu_active=False, n=128)
        fast = run_triad(1, other_cpu_active=False, n=128)
        assert slow.cycles > 2 * fast.cycles

    def test_clocks_per_element(self):
        r = run_triad(1, other_cpu_active=False)
        assert r.clocks_per_element == r.cycles / 1024


class TestTriadSweep:
    def test_sweep_shape(self):
        rows = triad_sweep(range(1, 4), other_cpu_active=False, n=128)
        assert [r.inc for r in rows] == [1, 2, 3]

    def test_sweep_kwargs_passthrough(self):
        rows = triad_sweep([1], other_cpu_active=True, n=64)
        assert rows[0].other_cpu_active
