"""Unit tests for the counted kernel's port protocol.

Its arbitration and accounting are checked against the reference
engine in ``tests/property/test_counted_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.core.stream import AccessStream
from repro.memory.config import MemoryConfig
from repro.runner.fastsim import CountedSim
from repro.sim.stats import ConflictKind

CFG = MemoryConfig(banks=8, bank_cycle=2)


def test_assign_needs_an_idle_port():
    sim = CountedSim(CFG, [0])
    sim.assign(0, AccessStream(0, 1, length=2))
    with pytest.raises(RuntimeError, match="pending"):
        sim.assign(0, AccessStream(0, 1))


def test_empty_stream_leaves_the_port_idle():
    sim = CountedSim(CFG, [0])
    sim.assign(0, AccessStream(0, 1, length=0))
    assert sim.left == [0]
    sim.run_span(3)
    assert sim.grants == [0]


def test_advance_stops_after_a_drain():
    sim = CountedSim(CFG, [0, 1])
    sim.assign(0, AccessStream(0, 1, length=3))
    sim.assign(1, AccessStream(4, 1))
    assert sim.advance(10) == 3
    assert sim.left[0] == 0 and sim.grants == [3, 3]
    # Only infinite streams remain: the span runs to its limit.
    assert sim.advance(10) == 10
    assert sim.cycle == 13


def test_reassigned_port_keeps_counting():
    sim = CountedSim(CFG, [0])
    sim.assign(0, AccessStream(0, 1, length=2))  # banks 0, 1 at clocks 0, 1
    sim.run_span(2)
    sim.assign(0, AccessStream(1, 1, length=2))  # bank 1 busy until clock 3
    sim.run_span(3)
    (port,) = sim.stats().ports
    assert sim.stats().cycles == 5
    assert port.grants == 4
    assert port.stall_cycles[ConflictKind.BANK] == 1
    assert port.episodes[ConflictKind.BANK] == 1
    assert port.max_stall_run == 1


def test_run_span_rejects_negative_clocks():
    with pytest.raises(ValueError):
        CountedSim(CFG, [0]).run_span(-1)


def test_needs_a_port():
    with pytest.raises(ValueError):
        CountedSim(CFG, [])
