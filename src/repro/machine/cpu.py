"""CPU model: ports, in-order issue, chaining.

Each CPU owns a fixed set of memory ports (two read, one write on the
X-MP) and runs one *program* — a dependency-ordered list of
:class:`~repro.machine.instructions.VectorInstruction`.  Issue rules:

* an instruction may issue once every dependency has completed at least
  ``chain_latency`` clocks earlier (the functional-unit pipeline between
  a load's last element and the dependent store's first element);
* it needs an idle port of its kind; with several idle candidates the
  lowest-indexed is used;
* at most one instruction issues per port per clock, and issue happens
  at a clock boundary *before* arbitration, so a freshly issued stream
  makes its first request in the same clock period.

Instead of a program, a port can carry a *background* infinite stream —
how the Section IV experiment models "the other CPU", whose tailored
program keeps all three of its ports streaming with distance 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.stream import AccessStream
from .instructions import PortKind, VectorInstruction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runner.fastsim import CountedSim

__all__ = ["CpuPort", "CpuModel"]


@dataclass
class CpuPort:
    """A machine port: its memory port index, owning CPU and kind."""

    #: Global port index in the memory kernel (priority order).
    index: int
    cpu: int
    kind: PortKind
    #: uid of the instruction currently draining through this port.
    current_uid: int | None = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("port index must be non-negative")
        if self.cpu < 0:
            raise ValueError("cpu id must be non-negative")


class CpuModel:
    """One CPU: ports plus an instruction program (or background load)."""

    def __init__(
        self,
        cpu_id: int,
        ports: list[CpuPort],
        *,
        chain_latency: int = 8,
    ) -> None:
        if not ports:
            raise ValueError("CPU needs at least one port")
        if any(p.cpu != cpu_id for p in ports):
            raise ValueError("all ports must belong to this CPU")
        if chain_latency < 0:
            raise ValueError("chain latency must be non-negative")
        self.cpu_id = cpu_id
        self.ports = ports
        self.chain_latency = chain_latency
        #: The memory kernel the ports live in; set by the machine.
        self.sim: CountedSim | None = None
        #: Earliest later clock at which an unissued instruction turns
        #: ready, as of the last :meth:`issue` (``None``: none does
        #: before a port drains).
        self.wake: int | None = None
        self._program: list[VectorInstruction] = []
        self._unissued: list[VectorInstruction] = []
        self._by_uid: dict[int, VectorInstruction] = {}
        self._completed: dict[int, int] = {}  # uid -> completion clock
        self._issue_clock: dict[int, int] = {}
        self._port_of: dict[int, int] = {}  # uid -> port position

    def _kernel(self) -> CountedSim:
        if self.sim is None:
            raise RuntimeError(
                f"CPU {self.cpu_id} is not part of a machine simulation"
            )
        return self.sim

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------
    def load_program(self, program: list[VectorInstruction]) -> None:
        """Attach a program; uids must be unique, deps must resolve."""
        uids = [i.uid for i in program]
        if len(set(uids)) != len(uids):
            raise ValueError("duplicate instruction uids")
        known = set(uids)
        for instr in program:
            for dep in instr.depends_on:
                if dep not in known:
                    raise ValueError(
                        f"{instr.name} depends on unknown uid {dep}"
                    )
        self._program = list(program)
        self._unissued = list(program)
        self._by_uid = {i.uid: i for i in program}
        self._completed.clear()
        self._issue_clock.clear()
        self._port_of.clear()

    def set_background(self, streams: dict[int, AccessStream]) -> None:
        """Assign infinite streams directly to ports (no program).

        ``streams`` maps a port position (index into this CPU's port
        list) to the stream it should drive forever.
        """
        sim = self._kernel()
        for pos, stream in streams.items():
            if not stream.is_infinite:
                raise ValueError("background streams must be infinite")
            sim.assign(self.ports[pos].index, stream)
            self.ports[pos].current_uid = None

    # ------------------------------------------------------------------
    # Per-clock protocol (driven by the machine scheduler)
    # ------------------------------------------------------------------
    def _ready_at(self, instr: VectorInstruction) -> int | None:
        """First clock ``instr`` may issue, or ``None`` while one of its
        dependencies has not completed."""
        at = 0
        for dep in instr.depends_on:
            done = self._completed.get(dep)
            if done is None:
                return None
            if done + self.chain_latency > at:
                at = done + self.chain_latency
        return at

    def issue(self, clock: int) -> list[VectorInstruction]:
        """Issue every ready instruction that finds an idle port.

        Returns the instructions issued this clock (for logging).
        In-order per port kind: candidates are scanned in program order,
        so a stalled older load blocks younger loads only when no port is
        free — matching the machine's ability to run independent loads on
        its two read ports out of lockstep.  Only unissued instructions
        are scanned, and not at all while every port is busy.  Also sets
        :attr:`wake`.
        """
        self.wake = None
        if not self._unissued:
            return []
        sim = self._kernel()
        left = sim.left
        idle = [
            slot for slot in self.ports
            if slot.current_uid is None and not left[slot.index]
        ]
        if not idle:
            return []
        issued: list[VectorInstruction] = []
        wake = None
        for instr in self._unissued:
            at = self._ready_at(instr)
            if at is None:
                continue
            if at > clock:
                if wake is None or at < wake:
                    wake = at
                continue
            slot = next((s for s in idle if s.kind is instr.kind), None)
            if slot is None:
                continue
            idle.remove(slot)
            sim.assign(slot.index, instr.stream(sim.m))
            slot.current_uid = instr.uid
            self._issue_clock[instr.uid] = clock
            self._port_of[instr.uid] = self.ports.index(slot)
            issued.append(instr)
            if not idle:
                break
        self.wake = wake
        if issued:
            self._unissued = [
                i for i in self._unissued if i.uid not in self._issue_clock
            ]
        return issued

    def collect_completions(self, clock: int) -> list[VectorInstruction]:
        """After a simulated clock, retire instructions whose stream drained.

        A stream whose last element was granted in clock ``t`` completes
        at ``t`` (the port is idle again from ``t + 1``).
        """
        left = self._kernel().left
        done: list[VectorInstruction] = []
        for slot in self.ports:
            if slot.current_uid is not None and not left[slot.index]:
                uid = slot.current_uid
                self._completed[uid] = clock
                slot.current_uid = None
                done.append(self._by_uid[uid])
        return done

    # ------------------------------------------------------------------
    # Progress introspection
    # ------------------------------------------------------------------
    @property
    def program_finished(self) -> bool:
        """All program instructions completed (vacuously true if none)."""
        return len(self._completed) == len(self._program)

    def completion_clock(self, uid: int) -> int:
        return self._completed[uid]

    def issue_clock(self, uid: int) -> int:
        return self._issue_clock[uid]

    def port_of(self, uid: int) -> int:
        """Port position (within this CPU) an instruction issued on."""
        return self._port_of[uid]

    def timeline(self) -> list[tuple[str, int, int, int]]:
        """``(name, port position, issue clock, completion clock)`` per
        retired instruction, in issue order.  The raw material of the
        machine Gantt view (:mod:`repro.machine.timeline`)."""
        rows = []
        for instr in self._program:
            uid = instr.uid
            if uid in self._completed:
                rows.append(
                    (
                        instr.name,
                        self._port_of[uid],
                        self._issue_clock[uid],
                        self._completed[uid],
                    )
                )
        rows.sort(key=lambda r: (r[2], r[1]))
        return rows

    @property
    def last_completion(self) -> int:
        """Clock of the final retirement (program must be finished)."""
        if not self._program or not self.program_finished:
            raise RuntimeError("program not finished")
        return max(self._completed.values())
