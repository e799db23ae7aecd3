"""Unit tests for the priority rules, as the policies of repro.sim.arbiter."""

from __future__ import annotations

import pytest

from repro.sim.arbiter import (
    LRUPolicy,
    SchedulePolicy,
    make_arbiter,
    parse_priority,
)


def rule(spec: str, n_ports: int = 3):
    """The policy a priority spec names."""
    return make_arbiter(n_ports, 8, priority=spec)


def choose(policy, contenders, cycle: int = 0) -> int:
    return policy.rank_bank(contenders, None, cycle)


class TestFixed:
    def test_lowest_index_wins(self):
        policy = rule("fixed")
        assert choose(policy, [0, 2, 5]) == 0
        assert choose(policy, [3], 7) == 3

    def test_stateless(self):
        policy = rule("fixed")
        assert policy.static
        before = policy.snapshot()
        policy.tick(0)
        policy.granted(1, 0, 0)
        assert policy.snapshot() == before
        assert choose(policy, [1, 2], 100) == 1

    def test_empty_contenders(self):
        with pytest.raises(ValueError):
            choose(rule("fixed"), [])


class TestCyclic:
    def test_rotation_changes_winner(self):
        policy = rule("cyclic", 3)
        assert choose(policy, [0, 1, 2], 0) == 0
        policy.tick(0)
        assert choose(policy, [0, 1, 2], 1) == 1
        policy.tick(1)
        assert choose(policy, [0, 1, 2], 2) == 2
        policy.tick(2)
        assert choose(policy, [0, 1, 2], 3) == 0  # wrapped

    def test_favoured_absent(self):
        policy = rule("cyclic", 4)
        policy.tick(0)  # port 1 favoured
        # contenders 0 and 3: 3 is the next one at or above port 1.
        assert choose(policy, [0, 3], 1) == 3

    def test_fairness_over_window(self):
        policy = rule("cyclic", 2)
        wins = [0, 0]
        for t in range(10):
            wins[choose(policy, [0, 1], t)] += 1
            policy.tick(t)
        assert wins == [5, 5]

    def test_snapshot_roundtrip(self):
        policy = rule("cyclic", 3)
        policy.tick(0)
        snap = policy.snapshot()
        policy.tick(1)
        policy.restore(snap)
        assert choose(policy, [0, 1, 2], 9) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            rule("cyclic", 0)
        with pytest.raises(ValueError):
            choose(rule("cyclic", 2), [])


class TestLRU:
    def test_never_granted_ties_break_by_index(self):
        policy = LRUPolicy(3)
        assert choose(policy, [1, 2]) == 1

    def test_recent_grant_loses(self):
        policy = LRUPolicy(3)
        policy.granted(0, bank=0, cycle=0)
        assert choose(policy, [0, 1], 1) == 1
        policy.granted(1, bank=0, cycle=1)
        assert choose(policy, [0, 1], 2) == 0

    def test_snapshot_is_rank_based(self):
        # Absolute timestamps must not leak into the state key (they
        # grow without bound and would defeat cycle detection).
        a = LRUPolicy(2)
        a.granted(0, bank=0, cycle=5)
        a.granted(1, bank=0, cycle=9)
        b = LRUPolicy(2)
        b.granted(0, bank=0, cycle=100)
        b.granted(1, bank=0, cycle=200)
        assert a.snapshot() == b.snapshot()

    def test_restore_preserves_order(self):
        policy = LRUPolicy(3)
        policy.granted(2, bank=0, cycle=0)
        policy.granted(0, bank=0, cycle=1)
        snap = policy.snapshot()
        fresh = LRUPolicy(3)
        fresh.restore(snap)
        # 1 never granted -> wins; then 2 (older) over 0.
        assert choose(fresh, [0, 1, 2], 5) == 1
        assert choose(fresh, [0, 2], 5) == 2


class TestFactory:
    def test_names(self):
        fixed = rule("fixed", 2)
        assert isinstance(fixed, SchedulePolicy) and fixed.schedule == (0,)
        cyclic = rule("cyclic", 2)
        assert isinstance(cyclic, SchedulePolicy)
        assert cyclic.schedule == (0, 1)
        assert isinstance(rule("lru", 2), LRUPolicy)

    def test_unknown(self):
        with pytest.raises(ValueError):
            rule("coin-flip", 2)

    def test_rule_name_property(self):
        assert rule("cyclic", 2).spec == "cyclic"
        assert rule("lru", 2).spec == "lru"


class TestBlockCyclic:
    def test_holds_priority_for_block_clocks(self):
        policy = rule("block-cyclic:3", 2)
        winners = []
        for t in range(12):
            winners.append(choose(policy, [0, 1], t))
            policy.tick(t)
        assert winners == [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]

    def test_block_one_matches_cyclic(self):
        a = rule("block-cyclic:1", 3)
        b = rule("cyclic", 3)
        for t in range(9):
            assert choose(a, [0, 1, 2], t) == choose(b, [0, 1, 2], t)
            a.tick(t)
            b.tick(t)

    def test_snapshot_roundtrip(self):
        policy = rule("block-cyclic:3", 2)
        for t in range(4):
            policy.tick(t)
        snap = policy.snapshot()
        fresh = rule("block-cyclic:3", 2)
        fresh.restore(snap)
        assert choose(fresh, [0, 1], 9) == choose(policy, [0, 1], 9)

    def test_factory_spelling(self):
        policy = rule("block-cyclic:4", 2)
        assert isinstance(policy, SchedulePolicy)
        assert policy.schedule == (0, 0, 0, 0, 1, 1, 1, 1)
        assert policy.spec == "block-cyclic:4"

    def test_validation(self):
        with pytest.raises(ValueError):
            rule("block-cyclic:3", 0)
        with pytest.raises(ValueError):
            rule("block-cyclic:0", 2)
        with pytest.raises(ValueError):
            choose(rule("block-cyclic:3", 2), [])

    def test_resolves_fig8_from_both_paper_starts(self):
        """The paper's Fig. 8b header shows priority rotating every
        n_c = 3 clocks; that exact rule frees the linked conflict at
        both b2=0 and b2=1 — per-clock rotation only manages b2=1."""
        from repro.memory.config import FIG8_CONFIG
        from repro.sim.pairs import simulate_pair

        for b2 in (0, 1):
            pr = simulate_pair(
                FIG8_CONFIG, 1, 1, b2=b2, same_cpu=True,
                priority="block-cyclic:3",
            )
            assert pr.bandwidth == 2, b2


class TestLRURestoreEarly:
    """Regression: restore used to write ranks straight back as
    timestamps, so a synthetic timestamp (up to n-1) could compare
    *newer* than a real grant made at a cycle below n-1 — inverting
    LRU order right after an early restore.  The fix maps rank r to
    the negative timestamp r - n_ports, older than any real cycle."""

    def test_restored_twin_tracks_original_before_cycle_n(self):
        original = LRUPolicy(3)
        original.granted(0, bank=0, cycle=0)
        twin = LRUPolicy(3)
        twin.restore(original.snapshot())
        # Same event on both at a cycle still below n_ports ...
        original.granted(1, bank=0, cycle=1)
        twin.granted(1, bank=0, cycle=1)
        # ... must leave them agreeing (port 2 is least recent).
        assert choose(original, [0, 1, 2], 2) == 2
        assert choose(twin, [0, 1, 2], 2) == 2
        assert twin.snapshot() == original.snapshot()

    def test_restore_preserves_order_against_fresh_grants(self):
        policy = LRUPolicy(4)
        for port, cycle in ((2, 0), (0, 1), (3, 2)):
            policy.granted(port, bank=0, cycle=cycle)
        snap = policy.snapshot()
        twin = LRUPolicy(4)
        twin.restore(snap)
        for cycle in range(3, 12):
            contenders = [0, 1, 2, 3]
            assert choose(twin, contenders, cycle) == choose(
                policy, contenders, cycle
            ), cycle
            winner = choose(policy, contenders, cycle)
            policy.granted(winner, bank=0, cycle=cycle)
            twin.granted(winner, bank=0, cycle=cycle)


class TestRestoreValidation:
    def test_cyclic_rejects_mismatched_shapes(self):
        policy = rule("cyclic", 3)
        with pytest.raises(ValueError, match="cyclic snapshot"):
            policy.restore(())
        with pytest.raises(ValueError, match="cyclic snapshot"):
            policy.restore((0, 1))
        with pytest.raises(ValueError, match="only integers"):
            policy.restore(("1",))
        with pytest.raises(ValueError, match="out of range"):
            policy.restore((3,))
        with pytest.raises(ValueError, match="out of range"):
            policy.restore((-1,))

    def test_block_cyclic_rejects_foreign_phase(self):
        policy = rule("block-cyclic:3", 2)
        with pytest.raises(ValueError, match="block-cyclic snapshot"):
            policy.restore((1, 2))
        with pytest.raises(ValueError, match="out of range"):
            policy.restore((6,))  # full rotation is block * n_ports = 6
        policy.restore((5,))  # the last valid phase is fine

    def test_lru_rejects_non_permutations(self):
        policy = LRUPolicy(3)
        with pytest.raises(ValueError, match="permutation"):
            policy.restore((0, 0, 1))
        with pytest.raises(ValueError, match="permutation"):
            policy.restore((0, 1, 3))
        with pytest.raises(ValueError, match="lru snapshot"):
            policy.restore((0, 1))
        with pytest.raises(ValueError, match="only integers"):
            policy.restore((0, 1, True))

    def test_cross_rule_snapshot_names_the_rule(self):
        lru = LRUPolicy(2)
        cyclic = rule("cyclic", 2)
        with pytest.raises(ValueError, match="cyclic snapshot"):
            cyclic.restore(lru.snapshot())


class TestSpecGrammar:
    def test_parse_known_kinds(self):
        assert parse_priority("fixed") == ("fixed", 1)
        assert parse_priority("cyclic") == ("cyclic", 1)
        assert parse_priority("lru") == ("lru", 1)
        assert parse_priority("block-cyclic:7") == ("block-cyclic", 7)

    @pytest.mark.parametrize("spec", [
        "block-cyclic:x", "block-cyclic:", "block-cyclic:0",
        "block-cyclic:-2", "block-cyclic", "round-robin", "", "FIXED",
    ])
    def test_malformed_specs_fail_clearly(self, spec):
        from repro.runner.batchsim import _rule_code

        with pytest.raises(ValueError, match="invalid priority spec"):
            parse_priority(spec)
        with pytest.raises(ValueError, match="invalid priority spec"):
            rule(spec, 2)
        with pytest.raises(ValueError, match="invalid priority spec"):
            make_arbiter(2, 8, intra_priority=spec)
        # The batch core reads specs through the same grammar, so it
        # fails with the very same message.
        with pytest.raises(ValueError) as batch:
            _rule_code(spec)
        with pytest.raises(ValueError) as grammar:
            parse_priority(spec)
        assert str(batch.value) == str(grammar.value)
