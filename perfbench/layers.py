"""Layer boundaries of the program, as the traced run wraps and reads them.

Span names are the layer names the per-layer metrics use.  Every
wrapper is installed from outside: the program's files stay untouched,
and an untraced run executes none of this.
"""

from __future__ import annotations

from .tracer import Tracer, covered_ns, rollup

#: ``repro.runner.analytic`` labels of ``runner.analytic.decided``.
THEOREMS = ("t1-single", "t2-disjoint", "t3-start-resolved")
#: Times each side of a same-run A/B runs its jobs.
AB_REPS = 3


def install_inprocess(tracer: Tracer) -> None:
    """Wrap the public entry point of every in-process layer."""
    from repro.analysis import census
    from repro.machine.scheduler import MachineSimulation
    from repro.runner.analytic import AutoBackend, solve
    from repro.runner.backends import BatchBackend, FastBackend, ReferenceBackend
    from repro.runner.executor import SweepExecutor
    from repro.runner.job import SimJob
    from repro.sim.engine import Engine
    from repro.skewing import evaluate as skew_eval
    from repro.stochastic import evaluate as stoch_eval

    tracer.wrap_function(census.observed_regime_census, "analysis.census")
    tracer.wrap_method(SweepExecutor, "run_many", "runner.executor.run_many")
    tracer.wrap_method(SimJob, "cache_key", "runner.job.cache_key")
    tracer.wrap_method(AutoBackend, "run_batch", "runner.auto")
    tracer.wrap_function(solve, "runner.analytic")
    # FastBackend.run and .run_batch, and the batch core's scalar
    # fallbacks, all enter the flat core through this one method.
    tracer.wrap_method(FastBackend, "_run_with_sect", "runner.fastsim")
    tracer.wrap_method(BatchBackend, "run_batch", "runner.batchsim")
    tracer.wrap_method(ReferenceBackend, "run", "runner.reference")
    tracer.wrap_method(Engine, "step", "sim.engine.step")
    tracer.wrap_method(
        MachineSimulation, "run_until_programs_finish", "machine.run"
    )
    tracer.wrap_function(skew_eval.measure_bandwidth, "skewing.evaluate")
    tracer.wrap_function(stoch_eval.structured_vs_random, "stochastic.evaluate")


def install_serve(tracer: Tracer) -> None:
    """Wrap the serve layers (runs inside the server process)."""
    from repro.serve import app, coalesce, lookup, protocol

    install_inprocess(tracer)
    tracer.wrap_method(
        app.BandwidthService, "dispatch", "serve.app.dispatch", new_request=True
    )
    tracer.wrap_function(protocol.job_from_payload, "serve.protocol.parse")
    tracer.wrap_function(protocol.outcome_to_payload, "serve.protocol.encode")
    tracer.wrap_method(lookup.LookupTier, "probe", "serve.lookup.probe")
    tracer.wrap_method(coalesce.Coalescer, "submit", "serve.coalesce.submit")


def counter_sum(reg, name: str, **labels: str) -> int:
    """Sum of a registry counter over every label set matching ``labels``."""
    # A /metrics scrape spells names the Prometheus way (``.``/``-`` -> ``_``).
    want = name.replace(".", "_").replace("-", "_")
    total = 0
    for metric in reg.collect():
        if metric.kind != "counter" or (
            metric.name != name and metric.name != want
        ):
            continue
        got = dict(metric.labels)
        if all(got.get(k) == v for k, v in labels.items()):
            total += metric.value
    return total


def row(roll: dict, name: str) -> dict:
    """The rollup row of ``name``, all zeros when no such span ran."""
    return roll.get(
        name, {"count": 0, "incl_s": 0.0, "self_s": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def runner_metrics(roll: dict, reg, stats: dict) -> dict[str, float]:
    """Per-layer metrics of the runner, engine and machine layers.

    ``stats`` sums the ``ExecutorStats`` of every executor the traced
    work used; ``reg`` is the registry that was active meanwhile.
    """
    from repro.obs import names

    key = row(roll, "runner.job.cache_key")
    run_many = row(roll, "runner.executor.run_many")
    analytic = row(roll, "runner.analytic")
    fast = row(roll, "runner.fastsim")
    batch = row(roll, "runner.batchsim")
    step = row(roll, "sim.engine.step")
    machine = row(roll, "machine.run")
    decided = {t: counter_sum(reg, names.ANALYTIC_DECIDED, theorem=t) for t in THEOREMS}
    n_decided = sum(decided.values())
    batch_jobs = counter_sum(reg, names.AUTO_DISPATCH, tier="batch")
    submitted = stats.get("submitted", 0)
    out = {
        "runner.job.cache_key.calls": key["count"],
        "runner.job.cache_key.self_s": key["self_s"],
        "runner.executor.submitted": submitted,
        "runner.executor.memo_hits": stats.get("hits", 0),
        "runner.executor.deduped": stats.get("deduped", 0),
        "runner.executor.executed": stats.get("executed", 0),
        "runner.executor.hit_ratio": _ratio(stats.get("hits", 0), submitted),
        "runner.executor.run_many.self_s": run_many["self_s"],
        "runner.analytic.attempted": analytic["count"],
        "runner.analytic.decided": n_decided,
        "runner.analytic.decided_ratio": _ratio(n_decided, analytic["count"]),
        "runner.analytic.self_s": analytic["self_s"],
        "runner.fastsim.jobs": fast["count"],
        "runner.fastsim.clocks": counter_sum(reg, names.FAST_CLOCKS),
        "runner.fastsim.self_s": fast["self_s"],
        "runner.fastsim.us_per_job": 1e6 * _ratio(fast["self_s"], fast["count"]),
        "runner.batchsim.jobs": batch_jobs,
        "runner.batchsim.fallback_jobs.policy": counter_sum(
            reg, names.BATCH_FALLBACK, reason="policy"
        ),
        "runner.batchsim.fallback_jobs.tail": counter_sum(
            reg, names.BATCH_FALLBACK, reason="tail"
        ),
        "runner.batchsim.self_s": batch["self_s"],
        "runner.batchsim.us_per_job": 1e6 * _ratio(batch["self_s"], batch_jobs),
        "sim.engine.step.calls": step["count"],
        "sim.engine.step.self_s": step["self_s"],
        "sim.engine.clocks_per_s": _ratio(step["count"], step["incl_s"]),
        "machine.runs": machine["count"],
        "machine.run.s": machine["incl_s"],
        "machine.issue.self_s": machine["self_s"],
    }
    for theorem, n in decided.items():
        out[f"runner.analytic.decided.{theorem}"] = n
    return out


def traced_summary(tracer: Tracer, lo_ns: int, hi_ns: int) -> tuple[dict, dict, float]:
    """``(spans, rollup, unattributed share)`` of a traced window."""
    spans = tracer.dump()
    roll = rollup(spans)
    wall = max(1, hi_ns - lo_ns)
    unattributed = 1.0 - covered_ns(spans, lo_ns, hi_ns) / wall
    return spans, roll, unattributed


def render_rollup(roll: dict) -> str:
    """The rollup as a text table, heaviest self time first."""
    lines = [
        f"{'span':34} {'count':>9} {'incl_s':>9} {'self_s':>9} "
        f"{'p50_ms':>9} {'p99_ms':>9}"
    ]
    for name, r in sorted(roll.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:34} {r['count']:9d} {r['incl_s']:9.3f} {r['self_s']:9.3f} "
            f"{r['p50_ms']:9.4f} {r['p99_ms']:9.4f}"
        )
    return "\n".join(lines)


def ab_rows(layer: str, label: str, fast: str, slow: str, jobs: list) -> dict:
    """Same-run A/B of two backends on ``jobs``, sides interleaved
    ``AB_REPS`` times.

    Returns ``<layer>.speedup_<label>`` (median slow time over median
    fast time) with the jobs and simulated clocks it covers.  The two
    sides must agree exactly, or the row is not produced.
    """
    import time

    from repro.runner import get_backend

    sides = {fast: get_backend(fast), slow: get_backend(slow)}
    times: dict[str, list[float]] = {fast: [], slow: []}
    outs: dict[str, list] = {}
    for r in range(AB_REPS):
        order = (fast, slow) if r % 2 == 0 else (slow, fast)
        for name in order:
            t0 = time.perf_counter()
            outs[name] = sides[name].run_batch(jobs)
            times[name].append(time.perf_counter() - t0)
    exact = [(o.bandwidth, o.period, o.grants, o.steady_start) for o in outs[fast]]
    if exact != [(o.bandwidth, o.period, o.grants, o.steady_start) for o in outs[slow]]:
        raise RuntimeError(f"{fast} and {slow} disagree on the A/B jobs")
    from statistics import median

    return {
        f"{layer}.speedup_{label}": median(times[slow]) / median(times[fast]),
        f"{layer}.ab_jobs": len(jobs),
        f"{layer}.ab_clocks": sum(o.cycles for o in outs[fast]),
    }
