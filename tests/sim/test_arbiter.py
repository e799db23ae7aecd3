"""Unit tests for repro.sim.arbiter: specs, buckets, policies."""

from __future__ import annotations

import pytest

from repro.sim.arbiter import (
    LRUPolicy,
    RegulationSpec,
    RegulatedArbiter,
    SchedulePolicy,
    SplitPolicy,
    TokenBucket,
    canonical_arbiter,
    canonical_regulation,
    make_arbiter,
    parse_regulation,
    regulation_is_vacuous,
    regulation_renumbering_safe,
    validate_regulation,
)


def rule(spec: str, n_ports: int):
    """The policy a priority spec names."""
    return make_arbiter(n_ports, 8, priority=spec)


class TestRegulationGrammar:
    def test_parse_shapes(self):
        (uniform,) = parse_regulation(["stream=1/4"])
        assert uniform == RegulationSpec("stream", None, 1, 4)
        assert uniform.render() == "stream=1/4"
        assert not uniform.vacuous
        (indexed,) = parse_regulation(["bank:3=2/8"])
        assert (indexed.scope, indexed.index) == ("bank", 3)
        assert indexed.render() == "bank:3=2/8"

    @pytest.mark.parametrize("spec", [
        "stream", "stream=1", "stream=1/0", "stream=0/4", "stream=-1/4",
        "stream=a/b", "stream:x=1/4", "stream:-1=1/4", "cpu=1/4", "",
    ])
    def test_malformed_specs(self, spec):
        with pytest.raises(ValueError, match="invalid regulation spec"):
            parse_regulation([spec])

    def test_duplicate_target_rejected(self):
        with pytest.raises(ValueError, match="duplicate target"):
            parse_regulation(["stream:0=1/4", "stream:0=2/4"])

    def test_uniform_and_indexed_cannot_mix(self):
        with pytest.raises(ValueError, match="cannot be combined"):
            parse_regulation(["stream=1/4", "stream:1=1/2"])
        # Distinct scopes are fine.
        parse_regulation(["stream=1/4", "bank:1=1/2"])

    def test_index_range_checked_against_shape(self):
        validate_regulation(["stream:1=1/4"], n_ports=2, banks=8)
        with pytest.raises(ValueError, match="out of range"):
            validate_regulation(["stream:2=1/4"], n_ports=2, banks=8)
        with pytest.raises(ValueError, match="out of range"):
            validate_regulation(["bank:8=1/4"], n_ports=2, banks=8)

    def test_canonical_sorts_and_rerenders(self):
        specs = ["stream:2=1/4", "bank=2/3", "stream:0=1/2"]
        assert canonical_regulation(specs) == (
            "bank=2/3", "stream:0=1/2", "stream:2=1/4",
        )
        # Canonicalisation is idempotent.
        once = canonical_regulation(specs)
        assert canonical_regulation(once) == once

    def test_vacuity_and_renumbering_predicates(self):
        assert regulation_is_vacuous(["stream=4/4", "bank=9/2"])
        assert not regulation_is_vacuous(["stream=4/4", "bank=1/2"])
        assert regulation_renumbering_safe(["bank=1/2", "stream:0=1/4"])
        assert not regulation_renumbering_safe(["bank:3=1/2"])


class TestTokenBucket:
    def test_long_run_rate_is_exact(self):
        # rate/window = 1/4: exactly one admission per 4 clocks.
        bucket = TokenBucket(1, 4)
        grants = 0
        for _ in range(400):
            if bucket.admit():
                bucket.spend()
                grants += 1
            bucket.tick()
        assert grants == 100  # one admission per full window, exactly

    def test_level_stays_bounded(self):
        bucket = TokenBucket(3, 5)
        for clock in range(100):
            if clock % 7 == 0 and bucket.admit():
                bucket.spend()
            bucket.tick()
            assert 0 <= bucket.level <= bucket.cap

    def test_vacuous_bucket_never_vetoes(self):
        bucket = TokenBucket(4, 4)
        for _ in range(50):
            assert bucket.admit()
            bucket.spend()
            bucket.tick()


class TestSplitPolicy:
    def test_matches_raw_rules_bit_for_bit(self):
        pol = SplitPolicy(rule("cyclic", 3), LRUPolicy(3))
        ref_prio, ref_intra = rule("cyclic", 3), LRUPolicy(3)
        for cycle in range(24):
            contenders = [cycle % 3, (cycle + 1) % 3]
            contenders.sort()
            assert pol.rank_bank(contenders, 0, cycle) == ref_prio.rank_bank(
                contenders, 0, cycle
            )
            assert pol.rank_section(
                contenders, cycle
            ) == ref_intra.rank_section(contenders, cycle)
            winner = pol.rank_bank(contenders, 0, cycle)
            # Only the bank policy hears grants.
            pol.granted(winner, 0, cycle)
            ref_prio.granted(winner, 0, cycle)
            pol.tick(cycle)
            ref_prio.tick(cycle)
            ref_intra.tick(cycle)
            assert pol.snapshot() == (
                ref_prio.snapshot(), ref_intra.snapshot()
            )

    def test_shared_rule_ticks_once(self):
        pol = make_arbiter(2, 8, priority="block-cyclic:3")
        assert isinstance(pol, SchedulePolicy)  # no intra: one policy
        pol.tick(0)
        assert pol.snapshot() == (1,)

    def test_snapshot_restore_roundtrip_and_validation(self):
        pol = SplitPolicy(rule("cyclic", 2), LRUPolicy(2))
        pol.granted(1, 0, cycle=0)
        pol.tick(0)
        snap = pol.snapshot()
        twin = SplitPolicy(rule("cyclic", 2), LRUPolicy(2))
        twin.restore(snap)
        assert twin.snapshot() == snap
        with pytest.raises(ValueError, match="priority-arbiter snapshot"):
            twin.restore((1,))

    def test_section_policy_hears_no_grants(self):
        """A split LRU section policy is never told who won, so it
        keeps ranking path conflicts by port order, like ``fixed``."""
        pol = make_arbiter(3, 8, priority="cyclic", intra_priority="lru")
        for cycle in range(12):
            assert pol.rank_section([0, 1, 2], cycle) == 0
            pol.granted(0, 0, cycle)
            pol.tick(cycle)

    def test_never_regulated(self):
        pol = make_arbiter(2, 8, priority="fixed", intra_priority="fixed")
        assert isinstance(pol, SplitPolicy)
        assert not pol.regulated
        assert pol.static  # both halves are the fixed rule
        assert pol.admit(0, 5, 0)
        assert pol.spec == "fixed/fixed"


class TestWeightedFair:
    def test_schedule_frequencies_match_weights(self):
        pol = make_arbiter(2, 8, arbiter="wfq:3,1")
        favoured = []
        for cycle in range(8):
            favoured.append(pol.favoured(2, cycle))
            pol.tick(cycle)
        assert favoured.count(0) == 6 and favoured.count(1) == 2
        # Smooth WRR spreads the light port out, no starvation burst.
        assert favoured[:4].count(1) == 1

    def test_equal_weights_degenerate_to_cyclic(self):
        pol = make_arbiter(3, 8, arbiter="wfq:1,1,1")
        cyclic = rule("cyclic", 3)
        for cycle in range(9):
            assert pol.rank_bank([0, 1, 2], None, cycle) == cyclic.rank_bank(
                [0, 1, 2], None, cycle
            )
            pol.tick(cycle)
            cyclic.tick(cycle)

    def test_restore_validation(self):
        pol = make_arbiter(2, 8, arbiter="wfq:2,1")
        with pytest.raises(ValueError, match="wfq snapshot"):
            pol.restore((1, 2))
        with pytest.raises(ValueError, match="out of range"):
            pol.restore((3,))  # schedule has sum(weights) = 3 slots
        pol.restore((2,))
        assert pol.snapshot() == (2,)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            SchedulePolicy("wfq:", [])
        with pytest.raises(ValueError, match="weights must be positive"):
            make_arbiter(2, 8, arbiter="wfq:1,0")
        with pytest.raises(ValueError, match="comma-separated integers"):
            make_arbiter(2, 8, arbiter="wfq:1,True")


class TestRegulatedArbiter:
    def _make(self, specs, n_ports=2, banks=4):
        return make_arbiter(n_ports, banks, regulate=specs)

    def test_stream_bucket_vetoes_only_its_stream(self):
        pol = self._make(["stream:0=1/4"])
        assert pol.regulated
        pol.granted(0, 0, cycle=0)  # exhausts stream 0's bucket
        assert not pol.admit(0, 1, 1)
        assert pol.admit(1, 1, 1)  # stream 1 unregulated

    def test_bank_bucket_vetoes_every_port(self):
        pol = self._make(["bank:2=1/8"])
        pol.granted(1, 2, cycle=0)
        assert not pol.admit(0, 2, 1)
        assert not pol.admit(1, 2, 1)
        assert pol.admit(0, 3, 1)  # other banks unregulated

    def test_refill_readmits_at_the_exact_clock(self):
        pol = self._make(["stream=1/4"])
        pol.granted(0, 0, cycle=0)
        for cycle in range(3):
            pol.tick(cycle)
            assert not pol.admit(0, 0, cycle + 1)
        pol.tick(3)
        assert pol.admit(0, 0, 4)

    def test_uniform_spec_gives_independent_buckets(self):
        pol = self._make(["stream=1/4"])
        pol.granted(0, 0, cycle=0)
        assert not pol.admit(0, 1, 1)
        assert pol.admit(1, 1, 1)  # own bucket, still full

    def test_snapshot_restore_roundtrip(self):
        pol = self._make(["stream=1/4", "bank:1=2/4"])
        pol.granted(0, 1, cycle=0)
        pol.tick(0)
        snap = pol.snapshot()
        twin = self._make(["stream=1/4", "bank:1=2/4"])
        twin.restore(snap)
        assert twin.snapshot() == snap
        for port in range(2):
            for bank in range(4):
                assert twin.admit(port, bank, 1) == pol.admit(port, bank, 1)

    def test_restore_validation(self):
        pol = self._make(["stream=1/4"])
        with pytest.raises(ValueError, match="regulated-arbiter snapshot"):
            pol.restore(((), ()))  # wrong level count (2 buckets)
        with pytest.raises(ValueError, match="out of range"):
            pol.restore((((), ()), (99, 0)))
        with pytest.raises(ValueError, match="regulated-arbiter snapshot"):
            pol.restore("junk")

    def test_spec_renders_base_and_budget(self):
        pol = make_arbiter(
            2, 4, arbiter="wfq:3,1", regulate=["stream:0=1/4"]
        )
        assert pol.spec == "wfq:3,1+regulate(stream:0=1/4)"


class TestArbiterSpec:
    def test_canonical_default_and_wfq(self):
        assert canonical_arbiter(None, 2) is None
        assert canonical_arbiter("priority", 2) is None
        assert canonical_arbiter("wfq:03,1", 2) == "wfq:3,1"

    @pytest.mark.parametrize("spec,n", [
        ("wfq:a,b", 2), ("wfq:1", 2), ("wfq:1,2,3", 2), ("wfq:0,1", 2),
        ("wfq:-1,1", 2), ("rr", 2),
    ])
    def test_malformed_arbiter_specs(self, spec, n):
        with pytest.raises(ValueError, match="invalid arbiter spec"):
            canonical_arbiter(spec, n)

    def test_factory_builds_expected_types(self):
        assert isinstance(make_arbiter(2, 8), SchedulePolicy)
        assert isinstance(make_arbiter(2, 8, priority="lru"), LRUPolicy)
        assert isinstance(
            make_arbiter(2, 8, intra_priority="lru"), SplitPolicy
        )
        assert isinstance(
            make_arbiter(2, 8, arbiter="wfq:1,1"), SchedulePolicy
        )
        assert isinstance(
            make_arbiter(2, 8, regulate=["stream=1/2"]), RegulatedArbiter
        )
