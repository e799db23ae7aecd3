"""Cycle-accurate interleaved-memory simulator.

Python re-implementation of the Fortran 77 simulator the authors ran next
to their Cray X-MP measurements (Section IV):

``port``
    Request side: one pending access per clock, stall-on-deny.
``arbiter``
    The :class:`ArbiterPolicy` protocol and its policies: the paper's
    fixed / cyclic / block-cyclic priority rules and weighted-fair
    rotation as favoured-port schedules, LRU, and token-bucket
    bandwidth regulation around any of them.
``engine``
    The per-clock arbitration loop (bank → section → simultaneous) and
    exact steady-state (cyclic state) detection.
``pairs``
    Two-stream front end with start-offset sweeps.
``stats``
    Conflict counters (stall cycles and episodes, per type).
``trace``
    Event log feeding the figure renderer in :mod:`repro.viz`.
"""

from .arbiter import (
    ArbiterPolicy,
    LRUPolicy,
    RegulatedArbiter,
    RegulationSpec,
    SchedulePolicy,
    SplitPolicy,
    TokenBucket,
    canonical_arbiter,
    canonical_regulation,
    make_arbiter,
    parse_priority,
    parse_regulation,
)
from .engine import Engine, SimulationResult, simulate_streams
from .multi import MultiResult, equal_stride_table, simulate_multi
from .statespace import (
    StartSpaceProfile,
    Trajectory,
    start_space_profile,
    trajectory,
)
from .pairs import (
    ObservedRegime,
    PairResult,
    bandwidth_by_offset,
    best_offset,
    offsets_achieving,
    simulate_pair,
    worst_offset,
)
from .port import Port
from .stats import ConflictKind, PortStats, SimStats
from .trace import CycleTrace, DenialEvent, GrantEvent, TraceRecorder

__all__ = [
    "ArbiterPolicy",
    "ConflictKind",
    "CycleTrace",
    "DenialEvent",
    "Engine",
    "GrantEvent",
    "LRUPolicy",
    "MultiResult",
    "ObservedRegime",
    "PairResult",
    "Port",
    "PortStats",
    "RegulatedArbiter",
    "RegulationSpec",
    "SchedulePolicy",
    "SimStats",
    "SimulationResult",
    "SplitPolicy",
    "StartSpaceProfile",
    "TokenBucket",
    "TraceRecorder",
    "Trajectory",
    "bandwidth_by_offset",
    "canonical_arbiter",
    "canonical_regulation",
    "equal_stride_table",
    "best_offset",
    "make_arbiter",
    "offsets_achieving",
    "parse_priority",
    "parse_regulation",
    "simulate_multi",
    "simulate_pair",
    "simulate_streams",
    "start_space_profile",
    "trajectory",
    "worst_offset",
]
