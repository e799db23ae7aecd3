"""Tests of the benchmark itself: seeded generators and output checks.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from perfbench import census, oracle, pace, population, xmp

WRONG = Fraction(1, 7)


def _skew_bandwidth(monkeypatch) -> None:
    """Make every fast-core outcome report a wrong bandwidth."""
    from repro.runner.backends import FastBackend

    real = FastBackend._run_with_sect

    def wrong(self, job, sect):
        out = real(self, job, sect)
        return replace(out, bandwidth=out.bandwidth + WRONG)

    monkeypatch.setattr(FastBackend, "_run_with_sect", wrong)


# ----------------------------------------------------------------------
# Parts are timed in reference seconds
# ----------------------------------------------------------------------
def test_meter_scales_by_host_speed_and_drops_its_slices(monkeypatch):
    def slow_slice():
        # A host at half the reference speed; the slice costs 10 ms.
        time.sleep(0.01)
        return 2 * pace.REF_S

    monkeypatch.setattr(pace, "_slice", slow_slice)
    meter = pace.Meter()
    with meter.part("p"):
        for _ in range(30):
            time.sleep(0.01)
    # 0.3 s of the part's own wall time at half speed; the ~6 slices run
    # during it (60 ms) are not counted.
    assert 0.145 < meter.finish()["p"] < 0.165


# ----------------------------------------------------------------------
# Generators are deterministic per seed
# ----------------------------------------------------------------------
def test_census_plan_is_seeded():
    assert census.generate(3) == census.generate(3)
    assert census.generate(3) != census.generate(4)
    # The seed only reorders: every seed covers the same jobs.
    assert {u.m: set(u.pairs) for u in census.generate(3)} == {
        u.m: set(u.pairs) for u in census.generate(4)
    }


def test_population_is_seeded():
    a, b = population.generate(5), population.generate(5)
    assert a == b
    assert a != population.generate(6)
    policy = [j for j in a if j.arbiter is not None or j.regulate]
    assert 0 < len(policy) < len(a) // 10


def test_xmp_orders_are_seeded():
    r1, r2 = xmp.generate(7), xmp.generate(7)
    assert [xmp.round_order(r1) for _ in range(3)] == [
        xmp.round_order(r2) for _ in range(3)
    ]
    assert xmp.round_order(xmp.generate(7)) != xmp.round_order(xmp.generate(8))
    assert sorted(xmp.round_order(xmp.generate(7))) == sorted(xmp.items())


def test_oracle_plan_is_seeded_and_writes_are_novel():
    from repro.serve.protocol import job_from_payload

    a, b = oracle.plan(11, 4), oracle.plan(11, 4)
    assert a == b
    assert a != oracle.plan(12, 4)
    reqs = [r for phase in a.values() for r in phase]
    writes = [job_from_payload(body).cache_key() for kind, _, body in reqs if kind == "write"]
    reads = {job_from_payload(body).cache_key() for kind, _, body in reqs if kind == "read"}
    assert writes and len(set(writes)) == len(writes)
    assert not reads & set(writes)
    # Warm-up traffic never touches a shape of the measured mix.
    measured = {body["banks"] for kind, _, body in reqs if body and kind != "sweep"}
    assert oracle.WARM_M not in measured
    assert {body["banks"] for _, _, body in oracle.warmup_requests(11)} == {oracle.WARM_M}


# ----------------------------------------------------------------------
# An injected wrong b_eff fails each workload's check
# ----------------------------------------------------------------------
def _small_census():
    from repro.analysis.sweep import canonical_pairs

    return [census.Unit(12, 3, "cyclic", tuple(canonical_pairs(12)))]


def test_census_check_passes_and_catches_wrong_beff(monkeypatch):
    units = _small_census()
    good = [census.run_round(units), census.run_round(units)]
    assert census.check(units, good, seed=1)[0] == 0
    _skew_bandwidth(monkeypatch)
    bad = [census.run_round(units)]
    failed, _, msgs = census.check(units, bad, seed=1)
    assert failed > 0 and msgs


def test_population_check_passes_and_catches_wrong_beff(monkeypatch):
    jobs = population.generate(2)[:400]
    assert population.check(jobs, [population.run_round(jobs)], seed=2)[0] == 0
    from repro.runner.backends import BatchBackend

    real = BatchBackend.run_batch

    def wrong(self, batch):
        return [replace(o, bandwidth=o.bandwidth + WRONG) for o in real(self, batch)]

    monkeypatch.setattr(BatchBackend, "run_batch", wrong)
    failed, _, msgs = population.check(jobs, [population.run_round(jobs)], seed=2)
    assert failed > 0 and any("checksum" in m for m in msgs)


@pytest.fixture(scope="module")
def xmp_round():
    return xmp.run_round(xmp.generate(1))


def test_xmp_check_passes_and_catches_wrong_beff(xmp_round, monkeypatch):
    assert xmp_round.clocks == xmp.ROUND_CLOCKS
    assert xmp.check(None, [xmp_round], seed=1)[0] == 0
    from repro.skewing import evaluate

    real = evaluate.measure_bandwidth
    monkeypatch.setattr(
        evaluate, "measure_bandwidth", lambda *a, **k: real(*a, **k) + WRONG
    )
    results = dict(xmp_round.results)
    for d in range(1, 17):
        results[("skew", d)], _ = xmp.run_item(("skew", d))
    bad = replace(xmp_round, results=results)
    failed, _, msgs = xmp.check(None, [bad], seed=1)
    assert failed > 0 and any("digest" in m for m in msgs)


def test_oracle_check_catches_wrong_beff():
    from repro.runner import run
    from repro.serve.protocol import job_from_payload

    body = oracle.Mix(3).write()
    want = run(job_from_payload(body), backend="reference").bandwidth

    def record(bandwidth: Fraction) -> oracle.Record:
        reply = json.dumps({"bandwidth": f"{bandwidth.numerator}/{bandwidth.denominator}"})
        return oracle.Record("write", "/v1/beff", body, 0.0, 0.0, 0.0, 200, reply.encode())

    assert oracle.check([record(want)]) == (0, 1, [])
    failed, checked, msgs = oracle.check([record(want + WRONG)])
    assert (failed, checked) == (1, 1) and msgs
