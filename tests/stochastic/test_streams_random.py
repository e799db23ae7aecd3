"""Unit tests for repro.stochastic.streams and evaluate."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.memory.config import MemoryConfig
from repro.stochastic.evaluate import (
    random_stream_bandwidth,
    structured_vs_random,
)
from repro.stochastic.streams import RandomStream, splitmix64


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_64_bit_range(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            v = splitmix64(x)
            assert 0 <= v < 2**64

    def test_spreads(self):
        values = {splitmix64(k) % 16 for k in range(256)}
        assert values == set(range(16))


class TestRandomStream:
    def test_deterministic_per_index(self):
        s = RandomStream(seed=3)
        assert s.bank_at(10, 16) == s.bank_at(10, 16)

    def test_different_seeds_differ(self):
        a = RandomStream(seed=1).banks(16, 64)
        b = RandomStream(seed=2).banks(16, 64)
        assert a != b

    def test_roughly_uniform(self):
        banks = RandomStream(seed=5).banks(16, 4096)
        counts = [banks.count(j) for j in range(16)]
        for c in counts:
            assert 160 < c < 360  # 256 expected

    def test_finite_length(self):
        s = RandomStream(seed=1, length=4)
        s.bank_at(3, 8)
        with pytest.raises(IndexError):
            s.bank_at(4, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomStream(seed=-1)
        with pytest.raises(ValueError):
            RandomStream(seed=1, length=-2)
        with pytest.raises(ValueError):
            RandomStream(seed=1).bank_at(-1, 8)
        with pytest.raises(ValueError):
            RandomStream(seed=1).bank_at(0, 0)

    def test_with_label_and_bound(self):
        s = RandomStream(seed=1).with_label("g")
        assert s.label == "g"
        assert s.bound(16) is s


class TestEvaluate:
    @pytest.fixture
    def cfg(self):
        return MemoryConfig(banks=16, bank_cycle=4)

    def test_one_random_stream_below_full_rate(self, cfg):
        bw = random_stream_bandwidth(cfg, 1, horizon=2048, warmup=256)
        # random addresses revisit busy banks: b_eff < 1 but well above
        # the worst case 1/n_c.
        assert Fraction(1, 4) < bw < 1

    def test_structured_beats_random(self, cfg):
        cmp = structured_vs_random(cfg, 4, horizon=2048, warmup=256)
        assert cmp.structured == 4  # staggered unit strides: perfect
        assert cmp.random < cmp.structured
        assert cmp.structured_advantage > 1.5

    def test_reproducible(self, cfg):
        a = random_stream_bandwidth(cfg, 2, seed=9, horizon=1024, warmup=128)
        b = random_stream_bandwidth(cfg, 2, seed=9, horizon=1024, warmup=128)
        assert a == b

    def test_validation(self, cfg):
        with pytest.raises(ValueError):
            random_stream_bandwidth(cfg, 0)
        with pytest.raises(ValueError):
            random_stream_bandwidth(cfg, 1, horizon=10, warmup=10)
        with pytest.raises(ValueError):
            structured_vs_random(cfg, 0)
        # An empty window is rejected on the structured side too (it
        # used to divide by zero).
        with pytest.raises(ValueError, match="horizon must exceed warmup"):
            structured_vs_random(cfg, 2, horizon=10, warmup=10)
