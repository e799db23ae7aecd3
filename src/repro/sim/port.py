"""Memory ports: the request side of the simulator.

A port (Section II) requests one memory location per clock period on
behalf of its current vector instruction, and "has the capability of
delaying an access request if it cannot be serviced" — a denial stalls
the whole stream by one clock (dynamic conflict resolution).

The core two-stream experiments assign one (usually infinite) stream
per port and never touch it again; a finite stream leaves the port idle
once drained, and :meth:`Port.assign` then gives it the next one.  (The
Cray X-MP machine model keeps its ports in the flat counted kernel,
:class:`repro.runner.fastsim.CountedSim`, which follows the same
protocol.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.stream import AccessStream

__all__ = ["Port"]


@dataclass
class Port:
    """A single access port bound to a CPU.

    Attributes
    ----------
    index:
        Global port id used by priority rules and statistics.
    cpu:
        Owning CPU id; section conflicts only arise among ports of the
        same CPU, simultaneous bank conflicts only across CPUs.
    label:
        Trace label; defaults to ``str(index + 1)`` to match the paper's
        "1"/"2" stream names.
    """

    index: int
    cpu: int = 0
    label: str = ""

    _stream: AccessStream | None = field(default=None, repr=False)
    _position: int = field(default=0, repr=False)
    _granted_total: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("port index must be non-negative")
        if self.cpu < 0:
            raise ValueError("cpu id must be non-negative")
        if not self.label:
            self.label = str(self.index + 1)

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def assign(self, stream: AccessStream) -> None:
        """Attach a new stream; only legal when the port is idle."""
        if not self.idle:
            raise RuntimeError(
                f"port {self.index} still busy at position {self._position}"
            )
        self._stream = stream if stream.label else stream.with_label(self.label)
        self._position = 0

    @property
    def stream(self) -> AccessStream | None:
        """The currently assigned stream (``None`` when never assigned)."""
        return self._stream

    @property
    def idle(self) -> bool:
        """True when there is no pending request this clock."""
        if self._stream is None:
            return True
        if self._stream.is_infinite:
            return False
        return self._position >= self._stream.length

    @property
    def position(self) -> int:
        """Index of the next (pending) request within the stream."""
        return self._position

    @property
    def granted_total(self) -> int:
        """Lifetime grant count across all assigned streams."""
        return self._granted_total

    # ------------------------------------------------------------------
    # Per-clock protocol
    # ------------------------------------------------------------------
    def current_bank(self, m: int) -> int:
        """Bank of the pending request; raises when idle."""
        if self.idle:
            raise RuntimeError(f"port {self.index} has no pending request")
        assert self._stream is not None
        return self._stream.bank_at(self._position, m)

    def advance(self) -> None:
        """Consume the pending request after a grant."""
        if self.idle:
            raise RuntimeError(f"port {self.index} has no pending request")
        self._position += 1
        self._granted_total += 1

    # ------------------------------------------------------------------
    # State for cycle detection
    # ------------------------------------------------------------------
    def snapshot_bank(self, m: int) -> int | None:
        """Pending bank, or ``None`` when idle.

        For an *infinite* constant-stride stream the entire future is a
        function of the pending bank alone (``bank_{k+1} = bank_k + d``),
        so this single integer suffices as the port's steady-state
        component.
        """
        return None if self.idle else self.current_bank(m)

    def reset(self) -> None:
        """Forget the stream and counters (fresh port)."""
        self._stream = None
        self._position = 0
        self._granted_total = 0
