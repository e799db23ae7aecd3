"""Skewing-scheme evaluation (the conclusion's outlook, quantified).

The paper's last paragraph suggests skewing schemes ([1], [4], [11],
[12]) as a way to build uniform access environments.  This module runs
the comparison the paper stops short of: the same strided workloads under
the plain interleave versus a skewed placement, measured with the same
conflict-counting simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..memory.config import MemoryConfig
from ..memory.mapping import AddressMapping, InterleavedMapping, LinearSkewMapping
from ..runner.fastsim import CountedSim
from .streams import MappedStream

__all__ = ["SkewComparison", "measure_bandwidth", "compare_mappings", "stride_sensitivity"]


@dataclass(frozen=True)
class SkewComparison:
    """Bandwidth of one workload under two mappings."""

    stride: int
    plain: Fraction
    skewed: Fraction

    @property
    def improvement(self) -> float:
        """Relative gain of the skewed mapping (0 = none)."""
        if self.plain == 0:
            return float("inf") if self.skewed > 0 else 0.0
        return float(self.skewed / self.plain) - 1.0


def measure_bandwidth(
    config: MemoryConfig,
    mapping: AddressMapping,
    strides: list[int],
    *,
    bases: list[int] | None = None,
    cpus: list[int] | None = None,
    horizon: int = 4096,
    warmup: int = 256,
) -> Fraction:
    """Average grants/clock of concurrent mapped streams after warm-up.

    Skewed bank walks need not be eventually periodic in the engine's
    small state key, so we measure a long finite window instead of using
    exact cycle detection.  ``warmup`` clocks are excluded to damp the
    startup transient.
    """
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")
    if bases is None:
        bases = list(range(len(strides)))
    if cpus is None:
        cpus = list(range(len(strides)))
    sim = CountedSim(config, cpus)
    for port, base, stride in zip(sim.ports, bases, strides):
        sim.assign(port, MappedStream(mapping=mapping, base=base, stride=stride))
    sim.run_span(warmup)
    grants0 = sum(sim.grants)
    sim.run_span(horizon - warmup)
    return Fraction(sum(sim.grants) - grants0, horizon - warmup)


def compare_mappings(
    config: MemoryConfig,
    strides: list[int],
    *,
    skew: int = 1,
    **kwargs,
) -> SkewComparison:
    """Plain vs linear-skewed bandwidth for one workload."""
    plain = measure_bandwidth(
        config, InterleavedMapping(config.banks), strides, **kwargs
    )
    skewed = measure_bandwidth(
        config, LinearSkewMapping(config.banks, skew), strides, **kwargs
    )
    return SkewComparison(
        stride=strides[0] if strides else 0, plain=plain, skewed=skewed
    )


def stride_sensitivity(
    config: MemoryConfig,
    strides: range | list[int],
    *,
    peers: int = 1,
    skew: int = 1,
    **kwargs,
) -> list[SkewComparison]:
    """Bench T-E's series: each stride paired against unit-stride peers.

    For every stride ``d`` the workload is one stream of address stride
    ``d`` plus ``peers`` unit-stride streams (the Fig. 10 environment in
    miniature); returns one plain-vs-skewed row per ``d``.
    """
    rows: list[SkewComparison] = []
    for d in strides:
        workload = [d] + [1] * peers
        plain = measure_bandwidth(
            config, InterleavedMapping(config.banks), workload, **kwargs
        )
        skewed = measure_bandwidth(
            config, LinearSkewMapping(config.banks, skew), workload, **kwargs
        )
        rows.append(SkewComparison(stride=d, plain=plain, skewed=skewed))
    return rows
