"""Replay the golden machine table.

``machine.json`` pins the exact results and per-port conflict
accounting of the paper suite's finite workloads: the Fig. 10 triads,
dueling triads, the X-MP kernel suite, a VP-200-like triad, the
skewing ablation and the gather comparison (see
``tools/gen_golden_machine.py``).  These workloads have no steady
state, so no cross-backend suite covers them; the table does.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
TABLE = pathlib.Path(__file__).with_name("machine.json")


def _generator():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import gen_golden_machine
    finally:
        sys.path.pop(0)
    return gen_golden_machine


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(TABLE.read_text())


def test_replay_is_byte_identical(golden):
    replayed = _generator().build_table()
    assert json.dumps(replayed, sort_keys=True) == json.dumps(
        golden, sort_keys=True
    )


def test_generator_refuses_to_overwrite_without_bless(capsys):
    before = TABLE.read_bytes()
    assert _generator().main([]) == 2
    assert "--bless" in capsys.readouterr().err
    assert TABLE.read_bytes() == before
