"""Structured vs random access, quantified under one conflict model.

The paper's whole premise is that vector (structured) access deserves
its own analysis because it can do *much* better than the random-access
models of the prior literature predict.  These helpers measure that gap
on the same simulator: p random gather streams vs p well-placed
unit-stride streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core.stream import AccessStream
from ..memory.config import MemoryConfig
from ..runner.fastsim import CountedSim
from .streams import RandomStream

__all__ = ["GatherComparison", "random_stream_bandwidth", "structured_vs_random"]


@dataclass(frozen=True)
class GatherComparison:
    """Measured bandwidths of matched structured and random workloads."""

    ports: int
    structured: Fraction
    random: Fraction

    @property
    def structured_advantage(self) -> float:
        """How many times faster structured access runs."""
        if self.random == 0:
            return float("inf")
        return float(self.structured / self.random)


def random_stream_bandwidth(
    config: MemoryConfig,
    ports: int,
    *,
    seed: int = 1,
    horizon: int = 4096,
    warmup: int = 512,
    cpus: list[int] | None = None,
) -> Fraction:
    """Average grants/clock of ``ports`` random gather streams.

    Resubmission semantics (a blocked element is retried, Section II's
    dynamic conflict resolution) — the realistic machine behaviour, as
    opposed to the drop-and-redraw assumption of the binomial model.
    """
    if ports <= 0:
        raise ValueError("port count must be positive")
    if cpus is None:
        cpus = list(range(ports))
    return _window_bandwidth(
        config, cpus, [RandomStream(seed=seed + i) for i in range(len(cpus))],
        horizon=horizon, warmup=warmup,
    )


def _window_bandwidth(
    config: MemoryConfig,
    cpus: list[int],
    streams: list,
    *,
    horizon: int,
    warmup: int,
) -> Fraction:
    """Grants per clock over ``[warmup, horizon)``: a finite window,
    since random streams have no steady state for the runner's cycle
    detector (and both sides of a comparison share the accounting)."""
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")
    sim = CountedSim(config, cpus)
    for port, stream in enumerate(streams):
        sim.assign(port, stream)
    sim.run_span(warmup)
    g0 = sum(sim.grants)
    sim.run_span(horizon - warmup)
    return Fraction(sum(sim.grants) - g0, horizon - warmup)


def structured_vs_random(
    config: MemoryConfig,
    ports: int,
    *,
    seed: int = 1,
    horizon: int = 4096,
    warmup: int = 512,
) -> GatherComparison:
    """Same port count, same memory: staggered unit strides vs gathers."""
    if ports <= 0:
        raise ValueError("port count must be positive")
    m, n_c = config.banks, config.bank_cycle
    structured = _window_bandwidth(
        config,
        list(range(ports)),
        [AccessStream(start_bank=(i * n_c) % m, stride=1) for i in range(ports)],
        horizon=horizon,
        warmup=warmup,
    )
    random = random_stream_bandwidth(
        config, ports, seed=seed, horizon=horizon, warmup=warmup
    )
    return GatherComparison(ports=ports, structured=structured, random=random)
