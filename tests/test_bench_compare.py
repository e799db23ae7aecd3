"""``tools/bench_compare.py --compare --keys`` matches test names exactly."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

KEYS = [
    "benchmarks/bench_regime_census.py::test_census_population",
    "benchmarks/bench_regime_census.py::test_regime_census",
    "benchmarks/bench_start_space.py::test_start_space",
]


def _bench_compare():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import bench_compare
    finally:
        sys.path.pop(0)
    return bench_compare


@pytest.fixture
def artifacts(tmp_path):
    paths = []
    for name in ("before", "after"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "schema": 1, "unit": "seconds",
            "benchmarks": {key: 1.0 for key in KEYS},
        }))
        paths.append(str(path))
    return paths


def test_keys_match_the_test_name_exactly(artifacts):
    report = _bench_compare()._compare_artifacts(
        *artifacts, 1.0, ["test_regime_census", "test_start_space"]
    )
    # ``regime_census`` in the file path of the population benchmark
    # must not pull it in.
    assert sorted(report["benchmarks"]) == KEYS[1:]


def test_substrings_no_longer_match(artifacts):
    with pytest.raises(SystemExit, match="no shared benchmarks"):
        _bench_compare()._compare_artifacts(*artifacts, 1.0, ["regime_census"])


def test_no_keys_compares_everything(artifacts):
    report = _bench_compare()._compare_artifacts(*artifacts, 1.0)
    assert sorted(report["benchmarks"]) == KEYS
