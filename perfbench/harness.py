"""Shared pieces of the benchmark: paths, statistics, set-up timing, output."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_SPAWNS = 5
#: Timed rounds per run however long a round takes.
MIN_ROUNDS = 2


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def require_program() -> None:
    """Put ``src`` on ``sys.path``; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_SIM_BACKEND", None)
    return env


def median(values) -> float:
    return statistics.median(values)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        raise ValueError("no samples")
    k = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[k]


def peak_rss_mb(pid: int | None = None) -> float:
    """High-water resident set of this process, or of ``pid`` (Linux)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of process ``pid``, all its threads
    included (Linux)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


_SETUP_PROBE = """
import sys, time, json
t0 = time.perf_counter()
{imports}
t1 = time.perf_counter()
{build}
print(json.dumps({{"import_s": t1 - t0, "numpy": int("numpy" in sys.modules)}}), flush=True)
"""


def measure_setup(imports: str, build: str) -> dict:
    """Spawn fresh interpreters that import the workload's modules and
    build its executor; time each from spawn to its ready line, in
    reference seconds (``pace``, read before and after each spawn).

    The probes run on this process's first CPU, as do the readings, so
    the readings measure the CPU the probe ran on; this process only
    waits while a probe runs.
    """
    code = _SETUP_PROBE.format(imports=imports, build=build)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        probes = [_probe(code) for _ in range(SETUP_SPAWNS)]
    finally:
        os.sched_setaffinity(0, cpus)
    return {
        "setup_s": median(p[0] for p in probes),
        "import_s": median(p[1] for p in probes),
        "numpy_imported": max(p[2] for p in probes),
    }


def _probe(code: str) -> tuple[float, float, int]:
    """Reference seconds of one set-up spawn and of its imports, and
    whether it imported NumPy."""
    from .pace import reading, scale

    before = reading()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    k = scale(before, reading())
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    return seconds * k, info["import_s"] * k, info["numpy"]


def run_rounds(round_fn, seconds: float) -> None:
    """Call ``round_fn()`` until ``seconds`` have passed, at least
    ``MIN_ROUNDS`` times."""
    t_end = time.perf_counter() + seconds
    done = 0
    while done < MIN_ROUNDS or time.perf_counter() < t_end:
        round_fn()
        done += 1


def write_spans(workload: str, seed: int, spans: dict, rollup: dict) -> Path:
    """Write a traced run's spans and rollup once the run has ended."""
    from .tracer import write

    OUT_DIR.mkdir(exist_ok=True)
    base = OUT_DIR / f"{workload}-seed{seed}"
    write(spans, f"{base}.spans.json")
    Path(f"{base}.rollup.json").write_text(json.dumps(rollup, indent=1))
    return Path(f"{base}.spans.json")


def metrics_out(kind: str, values: dict[str, float]) -> dict:
    """Every ``kind`` metric of BENCHMARK.json with its unit.

    Layers a workload bypasses report 0 for their per-layer metrics;
    an end-to-end metric must always be measured.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for m in spec[kind]:
        if kind == "end_to_end" and m["name"] not in values:
            raise RuntimeError(f"workload did not measure {m['name']}")
        out[m["name"]] = {"value": float(values.get(m["name"], 0)), "unit": m["unit"]}
    return out


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
