"""Pluggable arbitration policies with per-stream/per-bank regulation.

The paper's Section II rule — "a priority rule determines which port
will be able to proceed" — is one point in a larger design space: the
arbiter both *ranks* contenders (who wins a section or simultaneous
bank conflict) and, on real machines with QoS isolation, may *veto*
grants outright (a stream or bank that has exhausted its bandwidth
budget waits even when its bank is free).  This module factors that
space into a small protocol:

* :class:`ArbiterPolicy` — the one protocol: rank section contenders,
  rank simultaneous-bank contenders, admit-or-veto a request, plus a
  ``tick``/``granted``/``snapshot``/``restore`` state-machine
  discipline so policies remain legal members of the steady-cycle
  detector's state.
* :class:`SchedulePolicy` — the favoured port walks a cyclic schedule
  and the nearest contender in cyclic port order wins.  The paper's
  ``fixed``, ``cyclic`` and ``block-cyclic:N`` rules and weighted-fair
  ``wfq:W0,W1,...`` arbitration differ only in the schedule.
* :class:`LRUPolicy` — least-recently-granted port wins (ablation).
* :class:`SplitPolicy` — one policy for section conflicts and another
  for simultaneous bank conflicts (a job's ``intra_priority``).
* :class:`TokenBucket` / :class:`RegulatedArbiter` — integer token
  buckets throttling individual streams and banks: a grant costs
  ``window`` tokens, every clock refills ``rate``, a request is vetoed
  while the bucket holds fewer than ``window`` tokens.  Long-run grant
  rate is therefore at most ``rate/window`` grants per clock, held
  exactly (all-integer arithmetic, bounded level) — Fraction-exact in
  the sense of EXACT001: no floats anywhere.

Regulators with ``rate >= window`` are *vacuous*: the bucket refills to
its cap every clock and can never veto (see
:func:`regulation_is_vacuous`); the analytic tier uses this to keep its
closed forms honest.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "ArbiterPolicy",
    "SchedulePolicy",
    "LRUPolicy",
    "SplitPolicy",
    "TokenBucket",
    "RegulatedArbiter",
    "RegulationSpec",
    "make_arbiter",
    "parse_priority",
    "canonical_arbiter",
    "canonical_regulation",
    "parse_regulation",
    "regulation_is_vacuous",
    "regulation_renumbering_safe",
]


# ----------------------------------------------------------------------
# Regulation specs: ``stream=R/W``, ``stream:IDX=R/W``, ``bank=R/W``,
# ``bank:IDX=R/W``
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegulationSpec:
    """One parsed regulator capping a stream or bank's grant rate.

    The budget is at most ``rate/window`` grants per clock.

    ``index is None`` applies one independent bucket to *every* stream
    (or bank); an explicit index throttles just that one.
    """

    scope: str  # "stream" | "bank"
    index: int | None
    rate: int
    window: int

    def render(self) -> str:
        target = (
            self.scope if self.index is None else f"{self.scope}:{self.index}"
        )
        return f"{target}={self.rate}/{self.window}"

    @property
    def vacuous(self) -> bool:
        """Whether this bucket can never veto (refill covers the cost)."""
        return self.rate >= self.window


def _parse_one_regulation(text: str) -> RegulationSpec:
    def bad(reason: str) -> ValueError:
        return ValueError(
            f"invalid regulation spec {text!r}: {reason} "
            "(expected 'stream[:IDX]=RATE/WINDOW' or 'bank[:IDX]=RATE/WINDOW')"
        )

    if not isinstance(text, str) or "=" not in text:
        raise bad("missing '='")
    target, _, budget = text.partition("=")
    scope, _, raw_index = target.partition(":")
    if scope not in ("stream", "bank"):
        raise bad(f"unknown target {scope!r}")
    index: int | None = None
    if raw_index:
        try:
            index = int(raw_index)
        except ValueError:
            raise bad(f"index {raw_index!r} is not an integer") from None
        if index < 0:
            raise bad("index must be non-negative")
    if "/" not in budget:
        raise bad("missing '/' in the RATE/WINDOW budget")
    raw_rate, _, raw_window = budget.partition("/")
    try:
        rate = int(raw_rate)
        window = int(raw_window)
    except ValueError:
        raise bad("RATE and WINDOW must be integers") from None
    if rate <= 0 or window <= 0:
        raise bad("RATE and WINDOW must be positive")
    return RegulationSpec(scope=scope, index=index, rate=rate, window=window)


def parse_regulation(specs: Sequence[str]) -> tuple[RegulationSpec, ...]:
    """Parse and cross-validate a set of regulation specs.

    Per scope, either one uniform spec (no index) or any number of
    distinct per-index specs is allowed; mixing the two, or repeating a
    target, is rejected rather than silently merged.
    """
    parsed = tuple(_parse_one_regulation(s) for s in specs)
    seen: set[tuple[str, int | None]] = set()
    uniform: set[str] = set()
    indexed: set[str] = set()
    for spec in parsed:
        key = (spec.scope, spec.index)
        if key in seen:
            raise ValueError(
                f"invalid regulation: duplicate target "
                f"{spec.render().partition('=')[0]!r}"
            )
        seen.add(key)
        (uniform if spec.index is None else indexed).add(spec.scope)
    both = uniform & indexed
    if both:
        raise ValueError(
            f"invalid regulation: uniform and per-index "
            f"{sorted(both)[0]!r} regulators cannot be combined"
        )
    return parsed


def validate_regulation(
    specs: Sequence[str], n_ports: int, banks: int
) -> tuple[RegulationSpec, ...]:
    """:func:`parse_regulation` plus index range checks."""
    parsed = parse_regulation(specs)
    for spec in parsed:
        bound = n_ports if spec.scope == "stream" else banks
        if spec.index is not None and spec.index >= bound:
            raise ValueError(
                f"invalid regulation spec {spec.render()!r}: "
                f"{spec.scope} index {spec.index} out of range "
                f"(have {bound})"
            )
    return parsed


def canonical_regulation(specs: Sequence[str]) -> tuple[str, ...]:
    """Canonical rendering: parsed, sorted by target, re-rendered.

    Buckets are independent, so spec order carries no meaning; sorting
    makes ``SimJob`` identity (and with it cache keys and coalescing)
    insensitive to it.
    """
    parsed = parse_regulation(specs)
    ordered = sorted(
        parsed, key=lambda s: (s.scope, s.index is not None, s.index or 0)
    )
    return tuple(s.render() for s in ordered)


def regulation_is_vacuous(specs: Sequence[str]) -> bool:
    """Whether every regulator refills at least its grant cost — i.e.
    no bucket can ever veto and the regulated run is bit-identical to
    the unregulated one."""
    return all(s.vacuous for s in parse_regulation(specs))


def regulation_renumbering_safe(specs: Sequence[str]) -> bool:
    """Whether bank renumbering (the Appendix isomorphism) preserves
    the regulation.  Uniform ``bank=`` buckets are permutation-invariant
    (every bank gets an identical bucket); ``bank:IDX=`` pins a specific
    bank and is not."""
    return all(
        s.scope != "bank" or s.index is None for s in parse_regulation(specs)
    )


# ----------------------------------------------------------------------
# The policy protocol
# ----------------------------------------------------------------------
def _snapshot_ints(name: str, snap: tuple, length: int) -> tuple[int, ...]:
    """Validate a snapshot as ``length`` plain ints, or raise clearly.

    Snapshots travel through the steady-cycle detector and (in tests)
    across policy instances; a corrupted or cross-policy tuple must
    fail with a message naming the policy, not an opaque unpack error
    deep in cycle detection.
    """
    if not isinstance(snap, tuple) or len(snap) != length:
        raise ValueError(
            f"{name} snapshot must be a {length}-tuple, got {snap!r}"
        )
    for value in snap:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(
                f"{name} snapshot must contain only integers, got {snap!r}"
            )
    return tuple(int(v) for v in snap)


class ArbiterPolicy(abc.ABC):
    """Strategy resolving one clock's arbitration, with optional veto.

    The engine consults the policy in its three-phase order: after the
    bank-busy filter, :meth:`admit` may veto a request (regulators);
    :meth:`rank_section` picks the winner of a per-CPU path conflict;
    :meth:`rank_bank` the winner of a cross-CPU simultaneous bank
    conflict.  Contenders arrive as port indices in ascending order.
    ``tick`` is called once per simulated clock (after arbitration),
    ``granted`` once per granted port.  Policy state is part of the
    simulated Markov chain, so :meth:`snapshot` must be bounded and
    exactly restorable for steady-cycle detection.
    """

    #: Whether :meth:`admit` can ever veto; ``False`` lets hot paths
    #: skip the admission sweep entirely.
    regulated: bool = False
    #: Whether the policy is stateless and every conflict goes to the
    #: lowest contending port (the paper's fixed rule).  The flat core
    #: then skips state compares and runs two ports on fused kernels.
    static: bool = False

    @abc.abstractmethod
    def rank_section(self, contenders: Sequence[int], cycle: int) -> int:
        """Winner of a per-CPU section-path conflict (ports ascending)."""

    @abc.abstractmethod
    def rank_bank(
        self, contenders: Sequence[int], bank: int | None, cycle: int
    ) -> int:
        """Winner of a simultaneous bank conflict (ports ascending)."""

    def favoured(self, n_ports: int, cycle: int) -> int:
        """The port ranked first this clock (trace headers)."""
        return self.rank_bank(list(range(n_ports)), None, cycle)

    def admit(self, port: int, bank: int, cycle: int) -> bool:
        """Whether ``port``'s request for ``bank`` may proceed."""
        return True

    def granted(self, port: int, bank: int, cycle: int) -> None:
        """Grant notification hook."""

    def tick(self, cycle: int) -> None:
        """Clock-edge hook."""

    @abc.abstractmethod
    def snapshot(self) -> tuple:
        """Hashable internal state for cycle detection."""

    @abc.abstractmethod
    def restore(self, snap: tuple) -> None:
        """Inverse of :meth:`snapshot` (validate; raise on mismatch)."""

    @property
    @abc.abstractmethod
    def spec(self) -> str:
        """Canonical config-string identity of this policy."""


def _wrr_schedule(weights: Sequence[int]) -> list[int]:
    """Smooth weighted round-robin order over one full period.

    Deterministic: each slot favours the port with the largest
    accumulated credit (ties to the lowest index), then debits it one
    period's worth.  Port ``p`` appears exactly ``weights[p]`` times.
    """
    n = len(weights)
    total = sum(weights)
    credit = [0] * n
    schedule: list[int] = []
    for _ in range(total):
        for i in range(n):
            credit[i] += weights[i]
        best = 0
        for i in range(1, n):
            if credit[i] > credit[best]:
                best = i
        credit[best] -= total
        schedule.append(best)
    return schedule


class SchedulePolicy(ArbiterPolicy):
    """Schedule-driven priority: the favoured port walks a cyclic schedule.

    Clock ``t`` favours port ``schedule[t mod len(schedule)]``; the
    winner is the first contender at or above the favoured port, or
    else the first contender — the nearest one in cyclic port order.
    The schedule is the whole difference between the rules:

    * ``fixed`` — ``[0]``: the lowest port always wins, the rule under
      which Fig. 8a's linked conflict persists forever;
    * ``cyclic`` — ``0..n-1``: the favoured port advances every clock,
      which breaks the phase-lock of linked conflicts (Fig. 8b);
    * ``block-cyclic:N`` — each port ``N`` times: the Fig. 8(b) header
      row ``111222111222...`` holds priority for ``N = n_c`` clocks;
    * ``wfq:W0,W1,...`` — the smooth weighted round-robin order, in
      which port ``p`` is favoured ``W[p]`` times per ``sum(W)``
      clocks, so heavy ports win proportionally more conflicts without
      ever starving the light ones.

    The only state is the schedule slot, so the state space stays
    finite.  A schedule longer than one slot free-runs with the clock,
    which is why the analytic tier refuses ``block-cyclic`` and ``wfq``.
    """

    def __init__(self, spec: str, schedule: Sequence[int]) -> None:
        if not schedule:
            raise ValueError("need a non-empty schedule")
        self._spec = spec
        self.schedule = tuple(schedule)
        self.static = self.schedule == (0,)
        self.slot = 0

    def _rank(self, contenders: Sequence[int]) -> int:
        favoured = self.schedule[self.slot]
        for port in contenders:
            if port >= favoured:
                return port
        if not contenders:
            raise ValueError("no contenders")
        return contenders[0]

    def rank_section(self, contenders: Sequence[int], cycle: int) -> int:
        return self._rank(contenders)

    def rank_bank(
        self, contenders: Sequence[int], bank: int | None, cycle: int
    ) -> int:
        return self._rank(contenders)

    def favoured(self, n_ports: int, cycle: int) -> int:
        return self.schedule[self.slot]

    def tick(self, cycle: int) -> None:
        slot = self.slot + 1
        self.slot = 0 if slot == len(self.schedule) else slot

    def snapshot(self) -> tuple:
        return (self.slot,)

    def restore(self, snap: tuple) -> None:
        name = self._spec.partition(":")[0]
        (slot,) = _snapshot_ints(name, snap, 1)
        if not 0 <= slot < len(self.schedule):
            raise ValueError(
                f"{name} snapshot slot {slot} out of range for a "
                f"{len(self.schedule)}-slot schedule"
            )
        self.slot = slot

    @property
    def spec(self) -> str:
        return self._spec


class LRUPolicy(ArbiterPolicy):
    """Least-recently-granted port wins — a fairness-greedy ablation.

    Not in the paper; included to ablate the priority design space
    (DESIGN.md §5.1).  Ties (never granted yet) fall back to port order.
    """

    def __init__(self, n_ports: int) -> None:
        if n_ports <= 0:
            raise ValueError("need at least one port")
        self.n_ports = n_ports
        self._last_grant = [-1] * n_ports

    def _rank(self, contenders: Sequence[int]) -> int:
        last = self._last_grant
        return min(contenders, key=lambda p: (last[p], p))

    def rank_section(self, contenders: Sequence[int], cycle: int) -> int:
        return self._rank(contenders)

    def rank_bank(
        self, contenders: Sequence[int], bank: int | None, cycle: int
    ) -> int:
        return self._rank(contenders)

    def granted(self, port: int, bank: int, cycle: int) -> None:
        self._last_grant[port] = cycle

    def snapshot(self) -> tuple:
        # Only the *relative order* of last grants matters for future
        # decisions; normalise to ranks so the state space stays finite.
        last = self._last_grant
        order = sorted(range(self.n_ports), key=lambda p: (last[p], p))
        ranks = [0] * self.n_ports
        for rank, p in enumerate(order):
            ranks[p] = rank
        return tuple(ranks)

    def restore(self, snap: tuple) -> None:
        ranks = _snapshot_ints("lru", snap, self.n_ports)
        if sorted(ranks) != list(range(self.n_ports)):
            raise ValueError(
                f"lru snapshot must be a permutation of ranks "
                f"0..{self.n_ports - 1}, got {snap!r}"
            )
        # Ranks map back to synthetic timestamps preserving the order.
        # They must sit strictly below any cycle number the policy can
        # see next: restoring to 0..n-1 would let a synthetic timestamp
        # compare *newer* than a real grant made at cycle < n-1,
        # inverting LRU order after a restore early in a run.  Negative
        # timestamps (rank - n_ports) are older than every real cycle
        # (>= 0) and than the never-granted initial value only relative
        # to each other — exactly the recorded relative order.
        self._last_grant = [rank - self.n_ports for rank in ranks]

    @property
    def spec(self) -> str:
        return "lru"


class SplitPolicy(ArbiterPolicy):
    """Separate policies for the two conflict kinds.

    ``bank`` ranks cross-CPU simultaneous bank conflicts (a job's
    ``priority``), ``section`` ranks per-CPU path conflicts (its
    ``intra_priority``); real machines may differ here — the X-MP's
    port priority within a CPU was fixed by port role while the
    inter-CPU rule rotated.  Both policies tick once per clock, but
    only the bank policy hears grants.  The section policy therefore
    never learns who won: a split ``intra_priority="lru"`` ranks path
    conflicts exactly like ``fixed`` (never-granted ties fall back to
    port order).  Exact outcomes and stored results depend on this.
    """

    def __init__(self, bank: ArbiterPolicy, section: ArbiterPolicy) -> None:
        self.bank = bank
        self.section = section
        self.static = bank.static and section.static

    def rank_section(self, contenders: Sequence[int], cycle: int) -> int:
        return self.section.rank_section(contenders, cycle)

    def rank_bank(
        self, contenders: Sequence[int], bank: int | None, cycle: int
    ) -> int:
        return self.bank.rank_bank(contenders, bank, cycle)

    def favoured(self, n_ports: int, cycle: int) -> int:
        return self.bank.favoured(n_ports, cycle)

    def granted(self, port: int, bank: int, cycle: int) -> None:
        self.bank.granted(port, bank, cycle)

    def tick(self, cycle: int) -> None:
        self.bank.tick(cycle)
        self.section.tick(cycle)

    def snapshot(self) -> tuple:
        return (self.bank.snapshot(), self.section.snapshot())

    def restore(self, snap: tuple) -> None:
        if not isinstance(snap, tuple) or len(snap) != 2:
            raise ValueError(
                f"priority-arbiter snapshot must be a "
                f"(priority, intra) pair, got {snap!r}"
            )
        self.bank.restore(snap[0])
        self.section.restore(snap[1])

    @property
    def spec(self) -> str:
        return f"{self.bank.spec}/{self.section.spec}"


# ----------------------------------------------------------------------
# Regulation: integer token buckets
# ----------------------------------------------------------------------
class TokenBucket:
    """All-integer token bucket metering grants against a budget.

    A grant costs ``window`` tokens, every clock edge refills ``rate``,
    capped at ``max(rate, window)``.

    Admission requires a full grant's worth of tokens, so the level
    never goes negative and the long-run grant rate is exactly bounded
    by ``rate/window`` grants per clock.  The level is the bucket's
    entire state: bounded, integer, snapshot-safe.
    """

    __slots__ = ("rate", "window", "cap", "level")

    def __init__(self, rate: int, window: int) -> None:
        self.rate = rate
        self.window = window
        self.cap = max(rate, window)
        self.level = self.cap  # start full: first request always admitted

    def admit(self) -> bool:
        return self.level >= self.window

    def spend(self) -> None:
        self.level -= self.window

    def tick(self) -> None:
        level = self.level + self.rate
        self.level = self.cap if level > self.cap else level


class RegulatedArbiter(ArbiterPolicy):
    """Wrap any base policy with per-stream and/or per-bank buckets.

    A request must pass *both* its stream's and its bank's bucket (when
    present) to be admitted; a grant spends from both.  Buckets from a
    uniform spec (``stream=``/``bank=``) are independent instances with
    identical parameters, so bank renumbering maps the regulated system
    onto itself (see :func:`regulation_renumbering_safe`).
    """

    regulated = True

    def __init__(
        self,
        base: ArbiterPolicy,
        specs: Sequence[RegulationSpec],
        n_ports: int,
        banks: int,
    ) -> None:
        self.base = base
        self.specs = tuple(specs)
        self._stream: list[TokenBucket | None] = [None] * n_ports
        self._bank: list[TokenBucket | None] = [None] * banks
        for spec in self.specs:
            table = self._stream if spec.scope == "stream" else self._bank
            targets = (
                range(len(table)) if spec.index is None else (spec.index,)
            )
            for i in targets:
                if i >= len(table):
                    raise ValueError(
                        f"invalid regulation spec {spec.render()!r}: "
                        f"{spec.scope} index {i} out of range "
                        f"(have {len(table)})"
                    )
                table[i] = TokenBucket(spec.rate, spec.window)
        self._buckets: list[TokenBucket] = [
            b for b in (*self._stream, *self._bank) if b is not None
        ]

    def rank_section(self, contenders: Sequence[int], cycle: int) -> int:
        return self.base.rank_section(contenders, cycle)

    def rank_bank(
        self, contenders: Sequence[int], bank: int | None, cycle: int
    ) -> int:
        return self.base.rank_bank(contenders, bank, cycle)

    def favoured(self, n_ports: int, cycle: int) -> int:
        return self.base.favoured(n_ports, cycle)

    def admit(self, port: int, bank: int, cycle: int) -> bool:
        sb = self._stream[port]
        if sb is not None and not sb.admit():
            return False
        bb = self._bank[bank]
        return bb is None or bb.admit()

    def granted(self, port: int, bank: int, cycle: int) -> None:
        sb = self._stream[port]
        if sb is not None:
            sb.spend()
        bb = self._bank[bank]
        if bb is not None:
            bb.spend()
        self.base.granted(port, bank, cycle)

    def tick(self, cycle: int) -> None:
        for bucket in self._buckets:
            bucket.tick()
        self.base.tick(cycle)

    def snapshot(self) -> tuple:
        return (
            self.base.snapshot(),
            tuple(b.level for b in self._buckets),
        )

    def restore(self, snap: tuple) -> None:
        if not isinstance(snap, tuple) or len(snap) != 2:
            raise ValueError(
                f"regulated-arbiter snapshot must be a "
                f"(base, levels) pair, got {snap!r}"
            )
        base_snap, levels = snap
        if not isinstance(levels, tuple) or len(levels) != len(self._buckets):
            raise ValueError(
                f"regulated-arbiter snapshot needs {len(self._buckets)} "
                f"bucket levels, got {levels!r}"
            )
        for bucket, level in zip(self._buckets, levels):
            if (
                not isinstance(level, int)
                or isinstance(level, bool)
                or not 0 <= level <= bucket.cap
            ):
                raise ValueError(
                    f"regulated-arbiter snapshot level {level!r} out of "
                    f"range 0..{bucket.cap}"
                )
        self.base.restore(base_snap)
        for bucket, level in zip(self._buckets, levels):
            bucket.level = level

    @property
    def spec(self) -> str:
        budget = ",".join(s.render() for s in self.specs)
        return f"{self.base.spec}+regulate({budget})"


# ----------------------------------------------------------------------
# Spec strings: the one place they are parsed and turned into policies
# ----------------------------------------------------------------------
def parse_priority(name: str) -> tuple[str, int]:
    """Validate a priority spec, returning ``(kind, block)``.

    The one grammar authority: :func:`make_arbiter`, job validation,
    the batch core's rule codes and the serve wire contract all route
    through it, so a malformed spec fails everywhere with the same
    "invalid priority spec" message.
    """
    if name in ("fixed", "cyclic", "lru"):
        return name, 1
    if isinstance(name, str) and name.startswith("block-cyclic:"):
        spec = name.split(":", 1)[1]
        try:
            block = int(spec)
        except ValueError:
            raise ValueError(
                f"invalid priority spec {name!r}: block length {spec!r} "
                f"is not an integer"
            ) from None
        if block <= 0:
            raise ValueError(
                f"invalid priority spec {name!r}: block length must be "
                f"positive"
            )
        return "block-cyclic", block
    raise ValueError(
        f"invalid priority spec {name!r}: expected 'fixed', 'cyclic', "
        f"'lru' or 'block-cyclic:N'"
    )


def canonical_arbiter(spec: str | None, n_ports: int) -> str | None:
    """Validate and normalise an arbiter spec string.

    Returns ``None`` for the default priority wiring, a normalised
    ``wfq:W0,...`` string otherwise.  Raises ``ValueError`` on
    malformed or mis-sized specs."""
    if spec is None or spec == "priority":
        return None
    if spec.startswith("wfq:"):
        raw = spec[len("wfq:"):]
        try:
            weights = [int(w) for w in raw.split(",")]
        except ValueError:
            raise ValueError(
                f"invalid arbiter spec {spec!r}: weights must be "
                f"comma-separated integers"
            ) from None
        if len(weights) != n_ports:
            raise ValueError(
                f"invalid arbiter spec {spec!r}: need one weight per "
                f"stream (have {n_ports} streams, got {len(weights)} "
                f"weights)"
            )
        if any(w <= 0 for w in weights):
            raise ValueError(
                f"invalid arbiter spec {spec!r}: weights must be positive"
            )
        return "wfq:" + ",".join(str(w) for w in weights)
    raise ValueError(
        f"invalid arbiter spec {spec!r}: expected 'priority' or "
        f"'wfq:W0,W1,...'"
    )


def _priority_policy(spec: str, n_ports: int) -> ArbiterPolicy:
    """The policy a priority spec names: LRU, or a favoured-port
    schedule (``cyclic`` is ``block-cyclic:1``)."""
    kind, block = parse_priority(spec)
    if kind == "lru":
        return LRUPolicy(n_ports)
    if kind == "fixed":
        return SchedulePolicy(spec, [0])
    return SchedulePolicy(
        spec, [p for p in range(n_ports) for _ in range(block)]
    )


def make_arbiter(
    n_ports: int,
    banks: int,
    *,
    priority: str = "fixed",
    intra_priority: str | None = None,
    arbiter: str | None = None,
    regulate: Sequence[str] = (),
) -> ArbiterPolicy:
    """Build the policy for one job's spec strings.

    The one constructor: the reference engine and the flat core both
    build their policy here.  The priority specs are validated even
    when a ``wfq`` arbiter replaces them.
    """
    base = _priority_policy(priority, n_ports)
    if intra_priority is not None:
        base = SplitPolicy(base, _priority_policy(intra_priority, n_ports))
    spec = canonical_arbiter(arbiter, n_ports)
    if spec is not None:
        weights = [int(w) for w in spec[len("wfq:"):].split(",")]
        base = SchedulePolicy(spec, _wrr_schedule(weights))
    if regulate:
        base = RegulatedArbiter(
            base, validate_regulation(regulate, n_ports, banks), n_ports, banks
        )
    return base
