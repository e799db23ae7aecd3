"""Replay the golden arbitration table on every simulating backend.

``arbitration.json`` pins the exact outcome of jobs covering every
arbitration spec (see ``tools/gen_golden_arbitration.py``).  The
reference and flat cores share their arbitration policies, so the
cross-backend property suites cannot catch a mistake made in both; a
committed table can.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.runner import SimJob, get_backend

ROOT = pathlib.Path(__file__).resolve().parents[2]
TABLE = pathlib.Path(__file__).with_name("arbitration.json")


def _generator():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import gen_golden_arbitration
    finally:
        sys.path.pop(0)
    return gen_golden_arbitration


def _job(fields: dict) -> SimJob:
    return SimJob(
        **{
            **fields,
            "streams": tuple(tuple(s) for s in fields["streams"]),
            "cpus": tuple(fields["cpus"]),
            "regulate": tuple(fields["regulate"]),
        }
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(TABLE.read_text())


def test_keys_are_the_jobs_cache_keys(golden):
    assert [_job(row["job"]).cache_key() for row in golden.values()] == list(
        golden
    )


@pytest.mark.parametrize("backend", ["reference", "fast", "batch", "auto"])
def test_replay_is_byte_identical(golden, backend):
    outcome_row = _generator().outcome_row
    jobs = [_job(row["job"]) for row in golden.values()]
    outcomes = get_backend(backend).run_batch(jobs)
    replayed = {
        job.cache_key(): {"job": row["job"], **outcome_row(out)}
        for job, row, out in zip(jobs, golden.values(), outcomes)
    }
    assert json.dumps(replayed, sort_keys=True) == json.dumps(
        golden, sort_keys=True
    )


def test_generator_refuses_to_overwrite_without_bless(capsys):
    before = TABLE.read_bytes()
    assert _generator().main([]) == 2
    assert "--bless" in capsys.readouterr().err
    assert TABLE.read_bytes() == before
