"""Flat-array simulation core and O(1)-memory steady-state detection.

This module is Tier B of the runner's execution pipeline: a re-usable,
allocation-light implementation of the engine's two-stage arbitration
(bank busy → per-CPU section path → cross-CPU simultaneous bank) over
plain integer lists, plus Brent's cycle-detection algorithm for finding
the steady state without the historical ``seen`` dictionary.

The dictionary detector hashed a full-width state tuple *every clock*
and kept every visited state alive — O(cycles × state-width) memory and
an O(state-width) tuple build per clock.  Brent's algorithm keeps one
anchor snapshot (re-taken at powers of two) and compares the live state
against it with short-circuiting C-level list equality; memory is O(1)
in the run length and the per-clock cost is dominated by the arbitration
itself.

Bit-identity contract (relied on by the backends and locked by
``tests/property``): for the same start state the detector reports
exactly the first-repeat answer of the dictionary version — the minimal
transient ``mu`` (first clock of the periodic regime), the minimal
period ``lam``, per-port grants over ``[mu, mu+lam)``, and a total of
``mu + lam`` simulated clocks; jobs whose ``mu + lam`` exceeds
``max_cycles`` raise the same ``RuntimeError``.

:class:`CountedSim` is the same arbitration for finite workloads: port
reassignment, finite, mapped and random streams, and per-port conflict
accounting equal to the reference engine's.  The X-MP machine model and
the finite-window evaluators run on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..core.stream import AccessStream
from ..obs import metrics as _metrics
from ..obs import names as _names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..memory.config import MemoryConfig
    from ..sim.arbiter import ArbiterPolicy
    from ..sim.stats import SimStats
    from .job import SimJob

__all__ = ["CountedSim", "FlatSim", "find_steady_cycle"]


def _record_steady(mu: int, lam: int) -> None:
    """Feed the detector's answer to the mu/lam histograms (no-op when
    metrics are off — one None check per steady job, nothing per clock)."""
    reg = _metrics.active_metrics()
    if reg is not None:
        reg.histogram(_names.FASTSIM_STEADY_MU).observe(mu)
        reg.histogram(_names.FASTSIM_STEADY_LAM).observe(lam)

#: One full comparable state: positions, policy snapshot, bank
#: countdowns.  Positions lead because they discriminate fastest.
StateKey = tuple[list[int], tuple, list[int]]


class FlatSim:
    """One workload's state in flat integer lists, steppable per clock.

    Semantically identical to :class:`repro.sim.engine.Engine` for
    infinite constant-stride streams (the property suite cross-checks
    every steady outcome); keeps no statistics, no trace, and allocates
    nothing per clock on the conflict-free path.
    """

    __slots__ = (
        "m",
        "n_c",
        "n",
        "sect",
        "cpu",
        "pos",
        "stride",
        "policy",
        "static",
        "busy",
        "grants",
        "cycle",
        "ports",
        "step",
        "_pair_same_cpu",
    )

    #: Per-instance dispatch: the specialised or generic step function.
    step: Callable[[], None]

    def __init__(
        self,
        *,
        m: int,
        n_c: int,
        sect: Sequence[int],
        cpus: Sequence[int],
        positions: Sequence[int],
        strides: Sequence[int],
        policy: "ArbiterPolicy",
        busy: Sequence[int] | None = None,
        start_cycle: int = 0,
    ) -> None:
        self.m = m
        self.n_c = n_c
        self.n = len(positions)
        self.sect = list(sect)
        self.cpu = list(cpus)
        self.pos = [b % m for b in positions]
        self.stride = [d % m for d in strides]
        self.policy = policy
        # A static policy (the fixed rule) has a constant snapshot, so
        # state identity skips it and walkers may share the object.
        self.static = policy.static
        # Banks are tracked as absolute busy-until clocks (bank ``b`` is
        # free at clock ``t`` iff ``busy[b] <= t``), not countdowns: a
        # grant writes one timestamp and the per-clock decrement sweep
        # of the countdown representation disappears entirely.  ``busy``
        # arrives as engine-style countdown counters.
        self.busy = (
            [0] * m
            if busy is None
            else [start_cycle + c if c else 0 for c in busy]
        )
        self.grants = [0] * self.n
        # Absolute clock fed to the policy: policies cloned from a
        # mid-run engine carry timestamps in the engine's numbering.
        self.cycle = start_cycle
        self.ports = list(range(self.n))
        # Sweeps overwhelmingly run two fixed-priority streams; that
        # shape gets a branch-only step with no dicts and no policy
        # calls (port 0 wins every tie).
        self._pair_same_cpu = self.n == 2 and self.cpu[0] == self.cpu[1]
        self.step = (
            self._step_pair_fixed
            if self.n == 2 and self.static
            else self._step_policy
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_job(cls, job: "SimJob", sect: Sequence[int] | None = None) -> "FlatSim":
        """Fresh simulation of ``job`` from its start state.

        ``sect`` lets batch drivers share one precomputed bank→section
        table across every job with the same memory shape.
        """
        from ..memory.sections import section_map_for
        from ..sim.arbiter import make_arbiter

        m = job.banks
        if sect is None:
            smap = section_map_for(job.config)
            sect = [smap.section_of(j) for j in range(m)]
        return cls(
            m=m,
            n_c=job.bank_cycle,
            sect=sect,
            cpus=job.cpus,
            positions=[b for b, _ in job.streams],
            strides=[d for _, d in job.streams],
            policy=make_arbiter(
                len(job.streams),
                m,
                priority=job.priority,
                intra_priority=job.intra_priority,
                arbiter=job.arbiter,
                regulate=job.regulate,
            ),
        )

    def clone_start(self) -> "FlatSim":
        """Cheap structural copy of this (never-stepped) template.

        Only valid for static policies, which are stateless and can be
        shared between walkers; read-only tables (``sect``, ``cpu``,
        ``stride``) are shared, mutable state is copied.
        """
        new = FlatSim.__new__(FlatSim)
        new.m = self.m
        new.n_c = self.n_c
        new.n = self.n
        new.sect = self.sect
        new.cpu = self.cpu
        new.pos = self.pos.copy()
        new.stride = self.stride
        new.policy = self.policy
        new.static = self.static
        new.busy = self.busy.copy()
        new.grants = self.grants.copy()
        new.cycle = self.cycle
        new.ports = self.ports
        new._pair_same_cpu = self._pair_same_cpu
        new.step = (
            new._step_pair_fixed if new.n == 2 else new._step_policy
        )
        return new

    # ------------------------------------------------------------------
    # One clock period — the exact three-phase arbitration of
    # Engine.step(), on flat state.
    # ------------------------------------------------------------------
    def _step_pair_fixed(self) -> None:
        """Two streams, static policy: the generic step with every branch
        resolved at construction time (bit-identical trajectory)."""
        busy = self.busy
        pos = self.pos
        t = self.cycle
        b0 = pos[0]
        b1 = pos[1]
        g0 = busy[b0] <= t
        g1 = busy[b1] <= t
        if (
            g0
            and g1
            and (
                b0 == b1
                if not self._pair_same_cpu
                else self.sect[b0] == self.sect[b1]
            )
        ):
            # Section conflict (same CPU) or simultaneous bank conflict
            # (across CPUs): fixed priority grants port 0.
            g1 = False
        until = t + self.n_c
        m = self.m
        if g0:
            busy[b0] = until
            self.grants[0] += 1
            b0 += self.stride[0]
            pos[0] = b0 - m if b0 >= m else b0
        if g1:
            busy[b1] = until
            self.grants[1] += 1
            b1 += self.stride[1]
            pos[1] = b1 - m if b1 >= m else b1
        self.cycle = t + 1

    def _step_policy(self) -> None:
        """The generic step: three-phase arbitration with the policy
        ranking contenders and (when regulated) vetoing admissions —
        the flat mirror of ``Engine.step``."""
        busy = self.busy
        pos = self.pos
        cycle = self.cycle
        pol = self.policy
        # Phase 1 — bank conflicts: active banks reject everyone.
        free = [p for p in self.ports if busy[pos[p]] <= cycle]
        # Phase 1b — regulator vetoes.
        if pol.regulated and free:
            free = [p for p in free if pol.admit(p, pos[p], cycle)]
        # Phase 2 — section conflicts: per (cpu, path) at most one.
        if len(free) > 1:
            cpu = self.cpu
            sect = self.sect
            groups: dict[tuple[int, int], list[int]] = {}
            for p in free:
                key = (cpu[p], sect[pos[p]])
                g = groups.get(key)
                if g is None:
                    groups[key] = [p]
                else:
                    g.append(p)
            if len(groups) != len(free):
                free = [
                    members[0]
                    if len(members) == 1
                    else pol.rank_section(members, cycle)
                    for members in groups.values()
                ]
            # Phase 3 — simultaneous bank conflicts: per bank at most
            # one grant (cross-CPU by construction after phase 2).
            if len(free) > 1:
                banks: dict[int, list[int]] = {}
                for p in free:
                    b = pos[p]
                    g = banks.get(b)
                    if g is None:
                        banks[b] = [p]
                    else:
                        g.append(p)
                if len(banks) != len(free):
                    free = [
                        members[0]
                        if len(members) == 1
                        else pol.rank_bank(sorted(members), b, cycle)
                        for b, members in banks.items()
                    ]
        # Commit grants.
        m = self.m
        until = cycle + self.n_c
        stride = self.stride
        grants = self.grants
        for p in free:
            b = pos[p]
            busy[b] = until
            grants[p] += 1
            pol.granted(p, b, cycle)
            b += stride[p]
            pos[p] = b - m if b >= m else b
        # Clock edge.
        pol.tick(cycle)
        self.cycle = cycle + 1

    def run_span(self, clocks: int) -> None:
        """Advance a fixed number of clock periods."""
        if self.n == 2 and self.static:
            self._run_span_pair(clocks)
            return
        step = self.step
        for _ in range(clocks):
            step()

    def _run_span_pair(self, clocks: int) -> None:
        """Fused two-port fixed loop: one frame for the whole span, all
        hot state carried in integer locals and written back on exit."""
        busy = self.busy
        sect = self.sect
        s0, s1 = self.stride
        n_c = self.n_c
        m = self.m
        same_cpu = self._pair_same_cpu
        b0, b1 = self.pos
        c0, c1 = self.grants
        t = self.cycle
        for _ in range(clocks):
            g0 = busy[b0] <= t
            g1 = busy[b1] <= t
            if (
                g0
                and g1
                and (sect[b0] == sect[b1] if same_cpu else b0 == b1)
            ):
                g1 = False
            until = t + n_c
            if g0:
                busy[b0] = until
                c0 += 1
                b0 += s0
                if b0 >= m:
                    b0 -= m
            if g1:
                busy[b1] = until
                c1 += 1
                b1 += s1
                if b1 >= m:
                    b1 -= m
            t += 1
        self.pos[0] = b0
        self.pos[1] = b1
        self.grants[0] = c0
        self.grants[1] = c1
        self.cycle = t

    # ------------------------------------------------------------------
    # Bulk detector loops
    # ------------------------------------------------------------------
    def walk_until_match(self, key: StateKey, window: int) -> int:
        """Step up to ``window`` clocks, checking for ``key`` after each.

        Returns the number of steps taken when the state matched, or
        ``-1`` when the window closed without a match (the walker then
        sits exactly ``window`` steps further on).
        """
        if self.n == 2 and self.static:
            return self._walk_until_match_pair(key, window)
        step = self.step
        matches = self.matches
        for taken in range(1, window + 1):
            step()
            if matches(key):
                return taken
        return -1

    def _walk_until_match_pair(self, key: StateKey, window: int) -> int:
        """Fused step-and-compare for the two-port fixed shape.

        The position compare is the only per-clock check (a static
        policy's snapshot is constant); the O(m) busy normalisation runs
        on the rare position collision.
        """
        busy = self.busy
        sect = self.sect
        s0, s1 = self.stride
        n_c = self.n_c
        m = self.m
        same_cpu = self._pair_same_cpu
        k0, k1 = key[0]
        kbusy = key[2]
        b0, b1 = self.pos
        c0, c1 = self.grants
        t = self.cycle
        taken = 0
        found = -1
        while taken < window:
            g0 = busy[b0] <= t
            g1 = busy[b1] <= t
            if (
                g0
                and g1
                and (sect[b0] == sect[b1] if same_cpu else b0 == b1)
            ):
                g1 = False
            until = t + n_c
            if g0:
                busy[b0] = until
                c0 += 1
                b0 += s0
                if b0 >= m:
                    b0 -= m
            if g1:
                busy[b1] = until
                c1 += 1
                b1 += s1
                if b1 >= m:
                    b1 -= m
            t += 1
            taken += 1
            if (
                b0 == k0
                and b1 == k1
                and [u - t if u > t else 0 for u in busy] == kbusy
            ):
                found = taken
                break
        self.pos[0] = b0
        self.pos[1] = b1
        self.grants[0] = c0
        self.grants[1] = c1
        self.cycle = t
        return found

    # ------------------------------------------------------------------
    # State identity (for cycle detection)
    # ------------------------------------------------------------------
    def _busy_counters(self) -> list[int]:
        """Busy-until clocks as clock-invariant remaining counters."""
        t = self.cycle
        return [u - t if u > t else 0 for u in self.busy]

    def key(self) -> StateKey:
        """Copy of the full comparable state (the detector's anchor)."""
        return (self.pos.copy(), self.policy.snapshot(), self._busy_counters())

    def matches(self, key: StateKey) -> bool:
        """Whether the live state equals an anchor (short-circuiting).

        Positions discriminate almost every clock, so the O(m) busy
        normalisation only happens on the rare position collision.
        """
        if self.pos != key[0]:
            return False
        if not self.static and self.policy.snapshot() != key[1]:
            return False
        return self._busy_counters() == key[2]

    def same_state(self, other: "FlatSim") -> bool:
        """Whether two walkers of one workload are in the same state
        (the walkers may sit at different absolute clocks)."""
        if self.pos != other.pos:
            return False
        if not self.static and self.policy.snapshot() != other.policy.snapshot():
            return False
        return self._busy_counters() == other._busy_counters()


def _meet_pair(trail: FlatSim, lead: FlatSim, mu_limit: int) -> int:
    """Fused phase-2 meeting loop for the two-port fixed shape.

    Steps both walkers in lockstep until their (clock-normalised)
    states coincide, returning the step count ``mu`` — or ``-1`` once
    ``mu_limit`` lockstep steps passed without a meeting.  Both sims
    are left at the exit state (positions, grants, clock written back).
    """
    busy_a = trail.busy
    busy_b = lead.busy
    sect = trail.sect
    s0, s1 = trail.stride
    n_c = trail.n_c
    m = trail.m
    same_cpu = trail._pair_same_cpu
    a0, a1 = trail.pos
    b0, b1 = lead.pos
    ca0, ca1 = trail.grants
    cb0, cb1 = lead.grants
    ta = trail.cycle
    tb = lead.cycle
    mu = 0
    while True:
        if (
            a0 == b0
            and a1 == b1
            and [u - ta if u > ta else 0 for u in busy_a]
            == [u - tb if u > tb else 0 for u in busy_b]
        ):
            break
        if mu >= mu_limit:
            mu = -1
            break
        g0 = busy_a[a0] <= ta
        g1 = busy_a[a1] <= ta
        if (
            g0
            and g1
            and (sect[a0] == sect[a1] if same_cpu else a0 == a1)
        ):
            g1 = False
        until = ta + n_c
        if g0:
            busy_a[a0] = until
            ca0 += 1
            a0 += s0
            if a0 >= m:
                a0 -= m
        if g1:
            busy_a[a1] = until
            ca1 += 1
            a1 += s1
            if a1 >= m:
                a1 -= m
        ta += 1
        g0 = busy_b[b0] <= tb
        g1 = busy_b[b1] <= tb
        if (
            g0
            and g1
            and (sect[b0] == sect[b1] if same_cpu else b0 == b1)
        ):
            g1 = False
        until = tb + n_c
        if g0:
            busy_b[b0] = until
            cb0 += 1
            b0 += s0
            if b0 >= m:
                b0 -= m
        if g1:
            busy_b[b1] = until
            cb1 += 1
            b1 += s1
            if b1 >= m:
                b1 -= m
        tb += 1
        mu += 1
    trail.pos[0] = a0
    trail.pos[1] = a1
    trail.grants[0] = ca0
    trail.grants[1] = ca1
    trail.cycle = ta
    lead.pos[0] = b0
    lead.pos[1] = b1
    lead.grants[0] = cb0
    lead.grants[1] = cb1
    lead.cycle = tb
    return mu


def find_steady_cycle(
    make: Callable[[], FlatSim], max_cycles: int
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """Brent's algorithm over fresh walkers from ``make()``.

    Returns ``(mu, lam, grants_at_mu, grants_at_mu_plus_lam)`` where
    ``mu`` is the minimal transient, ``lam`` the minimal period and the
    grant tuples are cumulative per-port grants after ``mu`` and
    ``mu + lam`` clocks — everything the backends need to report the
    exact steady outcome of the historical first-repeat detector.

    Raises the detector's ``RuntimeError`` iff ``mu + lam > max_cycles``
    (phase 1 is bounded by ``3·max_cycles + 4`` steps, which Brent never
    exceeds while ``mu + lam <= max_cycles``).
    """

    def exhausted() -> RuntimeError:
        return RuntimeError(
            f"no cyclic state within {max_cycles} cycles "
            "(state space exhausted the bound)"
        )

    if max_cycles < 0:
        raise exhausted()

    # Static-policy workloads spawn walkers by cheap structural copy of
    # one never-stepped template instead of re-deriving the job thrice.
    template = make()
    if template.static:
        make = template.clone_start
        hare = make()
    else:
        hare = template

    # Phase 1 — find the minimal period lam.  The anchor ("tortoise")
    # re-roots at every power of two; transient states never recur, so
    # the first match is at distance exactly lam.  Each power-of-two
    # window runs as one fused walk-and-compare span; the global step
    # budget (never hit while mu + lam <= max_cycles) caps the windows.
    limit = 3 * max_cycles + 4
    power = 1
    total = 0
    while True:
        anchor = hare.key()
        window = min(power, limit + 1 - total)
        took = hare.walk_until_match(anchor, window)
        if took >= 0:
            lam = took
            break
        total += window
        if window < power:
            raise exhausted()
        power <<= 1
    if lam > max_cycles:
        raise exhausted()

    # Phase 2 — find the minimal transient mu: walk two fresh walkers
    # lam apart until they meet; the meeting point is the first state of
    # the periodic regime, and the walkers' grant counters are exactly
    # the cumulative grants after mu and mu + lam clocks.
    lead = make()
    lead.run_span(lam)
    trail = make()
    if trail.n == 2 and trail.static:
        mu = _meet_pair(trail, lead, max_cycles - lam)
        if mu < 0:
            raise exhausted()
        _record_steady(mu, lam)
        return mu, lam, tuple(trail.grants), tuple(lead.grants)
    mu = 0
    while not trail.same_state(lead):
        if mu + lam >= max_cycles:
            raise exhausted()
        trail.step()
        lead.step()
        mu += 1
    _record_steady(mu, lam)
    return mu, lam, tuple(trail.grants), tuple(lead.grants)


class CountedSim:
    """Flat kernel for finite workloads, with conflict accounting.

    The finite counterpart of :class:`FlatSim`: the X-MP machine model
    and the finite-window evaluators (skewing, gathers) run on it.  It
    steps the engine's arbitration (bank busy → per-CPU section path →
    cross-CPU simultaneous bank, contenders ranked by the
    :func:`~repro.sim.arbiter.make_arbiter` policy) over integer lists,
    and counts every denial by cause exactly like
    :class:`~repro.sim.stats.PortStats`, so :meth:`stats` equals the
    reference engine's ``SimStats`` for the same run.

    Each port holds a pending bank and a remaining-request count
    (``0`` idle, negative for an infinite stream).  A constant-stride
    :class:`~repro.core.stream.AccessStream` walks its banks by adding
    the stride; any other stream (mapped, random) supplies its banks
    through ``bank_at``, read once per grant.  :meth:`assign` gives an
    idle port a new stream at any clock, so ports can be reassigned.
    """

    __slots__ = (
        "m",
        "n_c",
        "sect",
        "cpu_key",
        "policy",
        "ports",
        "cycle",
        "busy",
        "bank",
        "stride",
        "left",
        "source",
        "index",
        "grants",
        "run",
        "longest",
        "stalls",
        "episodes",
    )

    def __init__(
        self,
        config: "MemoryConfig",
        cpus: Sequence[int],
        *,
        priority: str = "fixed",
    ) -> None:
        from ..memory.sections import section_map_for
        from ..sim.arbiter import make_arbiter

        if not cpus:
            raise ValueError("need at least one port")
        m = config.banks
        n = len(cpus)
        smap = section_map_for(config)
        self.m = m
        self.n_c = config.bank_cycle
        self.sect = [smap.section_of(j) for j in range(m)]
        # (cpu, section) path identity as one integer: cpu * m + section.
        self.cpu_key = [c * m for c in cpus]
        self.policy = make_arbiter(n, m, priority=priority)
        self.ports = list(range(n))
        self.cycle = 0
        #: Busy-until clock per bank (free at ``t`` iff ``busy <= t``).
        self.busy = [0] * m
        self.bank = [0] * n
        self.stride = [0] * n
        self.left = [0] * n
        self.source: list[Callable[[int, int], int] | None] = [None] * n
        #: Request index of the pending request (``source`` ports).
        self.index = [0] * n
        self.grants = [0] * n
        #: Current and longest run of denied clocks per port.
        self.run = [0] * n
        self.longest = [0] * n
        #: Stall cycles and episodes per port, by cause: bank, section,
        #: simultaneous bank.
        self.stalls = ([0] * n, [0] * n, [0] * n)
        self.episodes = ([0] * n, [0] * n, [0] * n)

    def assign(self, port: int, stream) -> None:
        """Give an idle ``port`` a new stream from the current clock on."""
        if self.left[port]:
            raise RuntimeError(f"port {port} still has requests pending")
        m = self.m
        length = -1 if stream.is_infinite else stream.length
        self.left[port] = length
        self.index[port] = 0
        if isinstance(stream, AccessStream):
            self.source[port] = None
            self.stride[port] = stream.stride % m
            self.bank[port] = stream.start_bank % m
        else:
            self.source[port] = stream.bank_at
            if length:
                self.bank[port] = stream.bank_at(0, m)

    def run_span(self, clocks: int) -> None:
        """Advance exactly ``clocks`` clock periods."""
        if clocks < 0:
            raise ValueError("cycle count must be non-negative")
        while clocks:
            clocks -= self.advance(clocks)

    def advance(self, limit: int) -> int:
        """Advance up to ``limit`` clocks, stopping after the first clock
        in which a finite stream drains; returns the clocks advanced.

        One frame runs the whole span with the hot state in locals:
        a machine driver re-enters only when a port frees up.
        """
        busy = self.busy
        bank = self.bank
        left = self.left
        stride = self.stride
        source = self.source
        index = self.index
        sect = self.sect
        cpu_key = self.cpu_key
        grants = self.grants
        run = self.run
        longest = self.longest
        st_bank, st_sect, st_sim = self.stalls
        ep_bank, ep_sect, ep_sim = self.episodes
        pol = self.policy
        granted = pol.granted
        tick = pol.tick
        ports = self.ports
        m = self.m
        n_c = self.n_c
        start = t = self.cycle
        end = t + limit
        while t < end:
            # Phase 1 — bank conflicts: active banks reject everyone.
            free = []
            for p in ports:
                if not left[p]:
                    continue
                if busy[bank[p]] > t:
                    r = run[p]
                    if not r:
                        ep_bank[p] += 1
                    run[p] = r + 1
                    st_bank[p] += 1
                else:
                    free.append(p)
            if len(free) > 1:
                # Phase 2 — section conflicts: per (cpu, path) at most
                # one grant.
                if len({cpu_key[p] + sect[bank[p]] for p in free}) != len(free):
                    paths: dict[int, list[int]] = {}
                    for p in free:
                        key = cpu_key[p] + sect[bank[p]]
                        g = paths.get(key)
                        if g is None:
                            paths[key] = [p]
                        else:
                            g.append(p)
                    free = []
                    for members in paths.values():
                        if len(members) == 1:
                            free.append(members[0])
                            continue
                        win = pol.rank_section(members, t)
                        free.append(win)
                        for p in members:
                            if p != win:
                                r = run[p]
                                if not r:
                                    ep_sect[p] += 1
                                run[p] = r + 1
                                st_sect[p] += 1
                # Phase 3 — simultaneous bank conflicts: per bank at
                # most one grant (cross-CPU by construction).
                if len(free) > 1 and len({bank[p] for p in free}) != len(free):
                    banks: dict[int, list[int]] = {}
                    for p in free:
                        b = bank[p]
                        g = banks.get(b)
                        if g is None:
                            banks[b] = [p]
                        else:
                            g.append(p)
                    free = []
                    for b, members in banks.items():
                        if len(members) == 1:
                            free.append(members[0])
                            continue
                        members.sort()
                        win = pol.rank_bank(members, b, t)
                        free.append(win)
                        for p in members:
                            if p != win:
                                r = run[p]
                                if not r:
                                    ep_sim[p] += 1
                                run[p] = r + 1
                                st_sim[p] += 1
            # Commit grants.
            drained = False
            until = t + n_c
            for p in free:
                b = bank[p]
                busy[b] = until
                grants[p] += 1
                r = run[p]
                if r:
                    if r > longest[p]:
                        longest[p] = r
                    run[p] = 0
                granted(p, b, t)
                k = left[p] - 1
                left[p] = k
                if not k:
                    drained = True
                    continue
                src = source[p]
                if src is None:
                    b += stride[p]
                    bank[p] = b - m if b >= m else b
                else:
                    i = index[p] + 1
                    index[p] = i
                    bank[p] = src(i, m)
            # Clock edge.
            tick(t)
            t += 1
            if drained:
                break
        self.cycle = t
        return t - start

    def stats(self) -> "SimStats":
        """The run's accounting as the reference engine's ``SimStats``."""
        from ..sim.stats import ConflictKind, PortStats, SimStats

        kinds = (
            ConflictKind.BANK, ConflictKind.SECTION, ConflictKind.SIMULTANEOUS
        )

        def counts(table: tuple[list[int], ...], p: int) -> dict:
            out = {kind: 0 for kind in ConflictKind}
            out.update((kind, col[p]) for kind, col in zip(kinds, table))
            return out

        return SimStats(
            ports=[
                PortStats(
                    grants=self.grants[p],
                    stall_cycles=counts(self.stalls, p),
                    episodes=counts(self.episodes, p),
                    max_stall_run=max(self.longest[p], self.run[p]),
                    _stalled=self.run[p] > 0,
                    _run=self.run[p],
                )
                for p in self.ports
            ],
            cycles=self.cycle,
        )
