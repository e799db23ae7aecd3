"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
every instrument off.  ``--trace 1`` measures the per-layer metrics: it
repeats the workload untraced and then traced (the difference is the
tracing overhead), wraps each layer's entry points to record spans, and
reads the program's own counters.  Either way the workload's outputs
are checked, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, pace  # noqa: E402

WORKLOADS = ("census", "population", "xmp", "oracle")


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def _rounds(mod, plan, seconds: float, ticks: bool = True) -> list:
    """Timed rounds, their parts in reference seconds (``pace``).  Older
    rounds drop their executors and outcomes: objects kept alive would
    slow later rounds through the garbage collector."""
    rounds = []

    def one() -> None:
        if rounds and hasattr(mod, "slim"):
            mod.slim(rounds[-1])
        rounds.append(mod.run_round(plan, pace.Meter(ticks=ticks)))

    harness.run_rounds(one, seconds)
    return rounds


def typical_seconds(rounds) -> float:
    """Reference seconds of one round, taking each part's median over
    the rounds.

    A round's parts (census units, xmp items, the population
    batch) are timed one by one against the host's speed (``pace``), so
    a slow spell of the shared host is scaled out of the part it hits,
    and what it leaves moves only that part's sample, not the estimate.
    """
    keys = rounds[0].parts
    return sum(harness.median([r.parts[k] for r in rounds]) for k in keys)


def _end_to_end(rounds, clocks: int) -> dict[str, float]:
    seconds = typical_seconds(rounds)
    jobs = rounds[0].jobs
    return {
        "jobs_per_s": jobs / seconds,
        "clocks_per_s": clocks / seconds,
        # A closed loop with one caller has a single load level, so the
        # low and high rows both read the typical round's milliseconds
        # per job, and the highest rate it sustains is its throughput.
        "p50_ms.low": 1e3 * seconds / jobs,
        "p50_ms.high": 1e3 * seconds / jobs,
        "max_rps": jobs / seconds,
    }


def tail_ms(rounds) -> float:
    """Reference milliseconds per job of the slowest round (the 99th
    percentile of fewer than 100 rounds)."""
    return 1e3 * max(sum(r.parts.values()) / r.jobs for r in rounds)


def run_inprocess(name: str, args) -> int:
    import importlib

    mod = importlib.import_module(f"perfbench.{name}")
    setup = harness.measure_setup(mod.IMPORTS, mod.BUILD)
    plan = mod.generate(args.seed)
    if not args.trace:
        rounds = _rounds(mod, plan, args.seconds)
        rss = harness.peak_rss_mb()
        clocks = mod.round_clocks(plan, rounds[-1])
        failed, checked, msgs = mod.check(plan, rounds, args.seed)
        for msg in msgs:
            print(f"check: {msg}")
        attempted = sum(r.jobs for r in rounds) + checked
        values = _end_to_end(rounds, clocks)
        values.update(
            setup_s=setup["setup_s"],
            success_rate=1.0 - failed / checked,
            peak_rss_mb=rss,
        )
        print(f"{name}: {len(rounds)} rounds, {rounds[0].jobs} jobs and "
              f"{clocks} clocks per round, {failed} failed checks")
        harness.emit(failed == 0, attempted, failed, harness.metrics_out("end_to_end", values))
        return 0

    from repro.obs.metrics import capture_metrics

    from perfbench import layers
    from perfbench.tracer import Tracer

    half = args.seconds / 2
    plain = _rounds(mod, plan, half)
    tracer = Tracer()
    layers.install_inprocess(tracer)
    try:
        with capture_metrics() as reg:
            lo = time.perf_counter_ns()
            traced = _rounds(mod, plan, half, ticks=False)
            hi = time.perf_counter_ns()
    finally:
        tracer.uninstall()
    spans, roll, unattributed = layers.traced_summary(tracer, lo, hi)
    stats: dict[str, int] = {}
    for rnd in traced:
        for k, v in getattr(rnd, "stats", {}).items():
            stats[k] = stats.get(k, 0) + v
    values = layers.runner_metrics(roll, reg, stats)
    values.update(mod.ab_metrics(plan, args.seed) if hasattr(mod, "ab_metrics") else {})
    values.update({
        "setup.import_s": setup["import_s"],
        "setup.numpy_imported": setup["numpy_imported"],
        "p99_ms.low": tail_ms(plain),
        "p99_ms.high": tail_ms(plain),
        "trace.overhead_ratio": typical_seconds(traced) / typical_seconds(plain) - 1.0,
        "trace.unattributed_share": unattributed,
        "trace.spans": len(tracer),
    })
    failed, checked, msgs = mod.check(plan, plain + traced, args.seed)
    for msg in msgs:
        print(f"check: {msg}")
    attempted = sum(r.jobs for r in plain + traced) + checked
    path = harness.write_spans(name, args.seed, spans, roll)
    print(layers.render_rollup(roll))
    print(f"spans written to {path.relative_to(harness.ROOT)}")
    harness.emit(failed == 0, attempted, failed, harness.metrics_out("per_layer", values))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        harness.require_program()
    except harness.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "oracle":
        from perfbench import oracle

        return oracle.run(args)
    return run_inprocess(args.workload, args)


if __name__ == "__main__":
    raise SystemExit(main())
