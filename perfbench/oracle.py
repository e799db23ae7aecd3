"""``oracle`` workload: the HTTP bandwidth oracle under load.

``repro-mem serve`` runs in its own process, launched as a user would
launch it, with a small ``--precompute`` table.  One client process
drives it over at most two keep-alive connections.  First as
independent users at two fixed rates: requests fall due on a fixed
schedule whatever the server's state (open loop), and each latency
counts from the request's due time, so a stall also shows in the
requests queued behind it.  Then saturated: each connection sends its
next request as soon as the last one is answered (closed loop), and
the requests answered per second of the server's CPU time give its
capacity.

The seeded mix has three kinds of bandwidth queries — jobs a theorem
decides (the analytic lookup tier), Zipf-repeated reads (store or memo
hits after their first answer) and novel undecided writes (coalescer,
drain, absorb) — plus a small share of ``/v1/sweep`` and ``/v1/regime``
requests.  Warm-up traffic uses a memory shape the measured mix never
uses, so it answers no measured request ahead of time.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from urllib.parse import parse_qs, urlencode, urlsplit

from . import harness, layers, pace

#: The served memory shape and its precomputed stride range.
SERVED_M, SERVED_NC = 16, 4
PRECOMPUTE = "1-8"
#: Memory shape of the warm-up traffic; the measured mix never uses it.
WARM_M = 20
WARM_REQUESTS = 200
CONNECTIONS = 2
#: Answered jobs also replayed on the reference engine.
REPLAY = 48
#: Longest wait for a launched server's ``serving on`` line (s).
READY_TIMEOUT_S = 60.0

#: Share of each request kind in the measured mix.  No traffic record of
#: the service exists, so every share is an assumption, chosen to give
#: each serving tier enough requests per run to be measured: the
#: lookup tiers (analytic and reads) most of the traffic, as a cache in
#: front of a simulator should see; novel writes enough to keep the
#: coalescer and drain busy without the simulations setting every
#: latency; sweeps and regimes a small share so their routes are timed.
MIX = (
    ("analytic", 0.45),
    ("read", 0.35),
    ("write", 0.12),
    ("sweep", 0.04),
    ("regime", 0.04),
)
#: Reads draw from this many jobs with Zipf exponent ZIPF_S (also
#: assumptions): a pool small enough that most of it is answered from
#: cache after the first phase, skewed so a few jobs dominate.
READ_POOL = 128
ZIPF_S = 1.1
#: Memory sizes of the novel writes: small shapes other than the served
#: and warm-up ones.  Larger shapes and the lru rule made single
#: simulations heavy-tailed enough to set p99 on their own.
WRITE_BANKS = (9, 10, 11, 12, 13, 14, 15, 17, 18, 19)
SWEEP_JOBS = 4

#: Open-loop rates (requests per second).  On a 2-core shared host p50
#: at 400 rps moved by up to 2x between runs as the host's speed
#: drifted; at 250 rps it held within +-10 %.
LOW_RPS = 100
HIGH_RPS = 250
#: Share of --seconds spent at each open-loop rate.
LOW_SHARE, HIGH_SHARE = 0.4, 0.3
#: The saturated phase: closed loop, one request outstanding on each
#: connection, in SAT_SLICES slices ``sat1``, ``sat2``, ... of equal
#: size.  It holds ``SAT_RPS * (1 - LOW_SHARE - HIGH_SHARE) * --seconds``
#: requests, SAT_RPS being about the measured saturation rate per
#: second of server CPU time; a faster or slower server only finishes it
#: sooner or later.  On a 2-core shared host its wall-clock rate swung by
#: up to 3x between runs (each request wakes a process on the other
#: core), much more than the server's CPU time per request, so capacity
#: is counted per second of server CPU time.
SAT_RPS = 2000
SAT_SLICES = 8
#: Rates of the open-loop phases; every other phase is a saturated slice.
RATES = {"low": LOW_RPS, "high": HIGH_RPS}


# ----------------------------------------------------------------------
# Request generation
# ----------------------------------------------------------------------
def _job(m: int, n_c: int, streams, cpus, priority: str) -> dict:
    return {
        "banks": m,
        "bank_cycle": n_c,
        "streams": [list(s) for s in streams],
        "cpus": list(cpus),
        "priority": priority,
    }


def _sim_job(payload: dict):
    from repro.serve.protocol import job_from_payload

    return job_from_payload(payload)


class Mix:
    """Seeded request stream; every write is a job no other request uses."""

    def __init__(self, seed: int) -> None:
        from repro.runner import solve

        self._solve = solve
        self.rng = random.Random(seed)
        self._seen: set[str] = set()
        self.reads = self._read_pool()
        weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(self.reads))]
        self._read_cum = [sum(weights[: k + 1]) for k in range(len(weights))]

    def _undecided(self, payload: dict) -> bool:
        return self._solve(_sim_job(payload)) is None

    def _read_pool(self) -> list[dict]:
        """Half precomputed pairs (store tier), half other undecided pairs
        on the served shape (simulated once, then answered from cache)."""
        rng, m = self.rng, SERVED_M
        lo, hi = (int(x) for x in PRECOMPUTE.split("-"))
        pool: list[dict] = []
        keys: set[str] = set()
        while len(pool) < READ_POOL:
            stored = len(pool) % 2 == 0
            d1 = rng.randint(lo, hi) if stored else rng.randint(hi + 1, m - 1)
            d2 = rng.randint(d1, hi) if stored else rng.randint(d1, m - 1)
            job = _job(m, SERVED_NC, [(0, d1), (rng.randrange(m), d2)], (0, 1), "fixed")
            key = _sim_job(job).cache_key()
            if key in keys or not self._undecided(job):
                continue
            keys.add(key)
            pool.append(job)
        self._seen |= keys
        return pool

    def analytic(self) -> dict:
        rng = self.rng
        m = rng.choice((8, 12, 16, 32, 64))
        return _job(
            m, rng.randint(2, 8), [(rng.randrange(m), rng.randrange(1, m))],
            (0,), rng.choice(("fixed", "cyclic")),
        )

    def write(self) -> dict:
        rng = self.rng
        while True:
            m = rng.choice(WRITE_BANKS)
            job = _job(
                m, rng.randint(2, 6),
                [(0, rng.randrange(1, m)), (rng.randrange(m), rng.randrange(1, m))],
                (0, 1), rng.choice(("fixed", "cyclic")),
            )
            key = _sim_job(job).cache_key()
            if key not in self._seen and self._undecided(job):
                self._seen.add(key)
                return job

    def read(self) -> dict:
        x = self.rng.random() * self._read_cum[-1]
        for k, c in enumerate(self._read_cum):
            if x <= c:
                return self.reads[k]
        return self.reads[-1]

    def phase(self, n: int) -> list[tuple[str, str, dict | None]]:
        """``n`` requests holding each kind in its ``MIX`` share, in a
        seeded order (drawing each kind at random moved a phase's share
        of sweeps, and with it its jobs per request, by +-10 %)."""
        kinds = [kind for kind, share in MIX for _ in range(round(share * n))]
        kinds = (kinds + ["analytic"] * n)[:n]
        self.rng.shuffle(kinds)
        return [self.request(kind) for kind in kinds]

    def request(self, kind: str) -> tuple[str, str, dict | None]:
        """``(kind, path, body)``; ``body is None`` means a GET."""
        rng = self.rng
        if kind == "analytic":
            return kind, "/v1/beff", self.analytic()
        if kind == "read":
            return kind, "/v1/beff", self.read()
        if kind == "write":
            return kind, "/v1/beff", self.write()
        if kind == "sweep":
            return kind, "/v1/sweep", {"jobs": [self.read() for _ in range(SWEEP_JOBS)]}
        m = rng.choice((12, 16, 32, 64))
        q = {"m": m, "n_c": rng.randint(2, 8), "d1": rng.randrange(1, m), "d2": rng.randrange(1, m)}
        return kind, "/v1/regime?" + urlencode(q), None


def warmup_requests(seed: int) -> list[tuple[str, str, dict | None]]:
    """Closed-loop warm-up on the ``WARM_M`` shape only."""
    rng = random.Random(seed ^ 0x5EED)
    out = []
    for _ in range(WARM_REQUESTS):
        job = _job(
            WARM_M, rng.randint(2, 8),
            [(0, rng.randrange(1, WARM_M)), (rng.randrange(WARM_M), rng.randrange(1, WARM_M))],
            (0, 1), "fixed",
        )
        out.append(("warm", "/v1/beff", job))
    return out


def plan(seed: int, seconds: float) -> dict[str, list]:
    """Every measured request of a run, per phase, in order: ``low``,
    ``high``, then the saturated slices."""
    mix = Mix(seed)
    sizes = {
        "low": LOW_RPS * seconds * LOW_SHARE,
        "high": HIGH_RPS * seconds * HIGH_SHARE,
    }
    for k in range(1, SAT_SLICES + 1):
        sizes[f"sat{k}"] = SAT_RPS * seconds * (1 - LOW_SHARE - HIGH_SHARE) / SAT_SLICES
    return {name: mix.phase(int(n)) for name, n in sizes.items()}


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection, one request at a time."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, path: str, body: dict | None) -> tuple[int, bytes]:
        if body is None:
            head = f"GET {path} HTTP/1.1\r\nHost: oracle\r\n\r\n".encode()
            data = b""
        else:
            data = json.dumps(body).encode()
            head = (
                f"POST {path} HTTP/1.1\r\nHost: oracle\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
            ).encode()
        self.writer.write(head + data)
        await self.writer.drain()
        header = await self.reader.readuntil(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


@dataclass
class Record:
    kind: str
    path: str
    body: dict | None
    due: float
    sent: float
    done: float
    status: int
    reply: bytes


async def closed_loop(conns, reqs) -> list[Record]:
    """Send ``reqs`` back to back, one outstanding per connection."""
    out: list[Record] = []
    it = iter(reqs)

    async def worker(conn):
        for kind, path, body in it:
            t = time.perf_counter()
            status, reply = await conn.request(path, body)
            out.append(Record(kind, path, body, t, t, time.perf_counter(), status, reply))

    await asyncio.gather(*(worker(c) for c in conns))
    return out


async def open_loop(conns, reqs, rate: float) -> tuple[list[Record], list[float]]:
    """Release request ``i`` at ``t0 + i / rate`` whatever the server
    does; returns the records and how late each release ran (s)."""
    queue: asyncio.Queue = asyncio.Queue()
    records: list[Record | None] = [None] * len(reqs)

    async def worker(conn):
        while True:
            item = await queue.get()
            if item is None:
                return
            i, due = item
            kind, path, body = reqs[i]
            sent = time.perf_counter()
            status, reply = await conn.request(path, body)
            records[i] = Record(kind, path, body, due, sent, time.perf_counter(), status, reply)

    workers = [asyncio.create_task(worker(c)) for c in conns]
    late: list[float] = []
    t0 = time.perf_counter() + 0.01
    for i in range(len(reqs)):
        due = t0 + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(time.perf_counter() - due)
        queue.put_nowait((i, due))
    for _ in conns:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return [r for r in records if r is not None], late


@dataclass
class Phase:
    records: list[Record]
    #: How late each open-loop release ran (s); empty for a closed loop.
    late: list[float]
    #: Server CPU seconds (user and system) the phase used.
    cpu_s: float
    #: Calibration readings (``pace``) taken just before the phase and
    #: after each of its stretches.
    readings: list[float]

    @property
    def scale(self) -> float:
        """Factor from wall to reference seconds over the phase: the
        median reading, so one reading taken in a stall moves nothing."""
        return pace.REF_S / harness.median(self.readings)


@dataclass
class PhaseStats:
    n: int
    p50_ms: float
    p99_ms: float
    #: First due time to last completion (s).
    span_s: float


def phase_stats(phase: Phase) -> PhaseStats:
    """Latency from due time, in reference milliseconds."""
    records = phase.records
    lat = sorted(1e3 * (r.done - r.due) * phase.scale for r in records)
    return PhaseStats(
        n=len(records),
        p50_ms=harness.percentile(lat, 0.5),
        p99_ms=harness.percentile(lat, 0.99),
        span_s=max(r.done for r in records) - min(r.due for r in records),
    )


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _serve_argv(traced_out: str | None) -> list[str]:
    args = [
        "serve", "-m", str(SERVED_M), "-c", str(SERVED_NC),
        "--port", "0", "--precompute", PRECOMPUTE,
    ]
    if traced_out is None:
        return [sys.executable, "-u", "-m", "repro.cli", *args]
    boot = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_traced.py")
    return [sys.executable, "-u", boot, traced_out, *args]


class Server:
    """A ``repro-mem serve`` child process; always stop it with :meth:`stop`."""

    def __init__(self, traced_out: str | None = None) -> None:
        harness.OUT_DIR.mkdir(exist_ok=True)
        self._log = open(harness.OUT_DIR / "serve.stderr", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            _serve_argv(traced_out),
            env=harness.child_env(),
            cwd=harness.ROOT,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0

    def _wait_ready(self) -> int:
        """Port from the ``serving on`` line (read unbuffered, so the
        timeout holds even if the server never prints it)."""
        fd = self.proc.stdout.fileno()
        buf = b""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            start = buf.find(b"serving on http://")
            end = buf.find(b"\n", start) if start >= 0 else -1
            if end >= 0:
                return int(buf[start:end].decode().rsplit(":", 1)[1])
            left = deadline - time.monotonic()
            if left <= 0:
                raise RuntimeError(f"server did not report ready within {READY_TIMEOUT_S} s")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    log = (harness.OUT_DIR / "serve.stderr").read_text(errors="replace")
                    raise RuntimeError(f"server exited: {log.strip()[-2000:]}")
                buf += chunk

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb(self.proc.pid)

    def cpu_s(self) -> float:
        return harness.cpu_seconds(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


def measure_setup() -> tuple[float, Server]:
    """Median spawn-to-ready time in reference seconds (``pace``, read
    before and after each launch); the last server stays up for the run."""
    times = []
    for k in range(harness.SETUP_SPAWNS):
        before = pace.reading()
        server = Server()
        times.append(server.ready_s * pace.scale(before, pace.reading()))
        if k < harness.SETUP_SPAWNS - 1:
            server.stop()
    return harness.median(times), server


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check(records: list[Record]) -> tuple[int, int, list[str]]:
    """Every answered bandwidth equals a direct ``run()`` of its job (fast
    backend for all, reference for a sample), and every repeat of a job
    got the same answer; regime answers equal the classifier's.  A
    refused or failed request fails its check.  Returns ``(failed,
    checked, messages)``; a sweep counts one check per job."""
    from repro.core.classify import classify_pair
    from repro.runner import run

    failed, checked, msgs = 0, 0, []
    answers: dict[str, tuple[dict, str]] = {}
    for r in records:
        checked += len(r.body["jobs"]) if r.kind == "sweep" else 1
        if r.status != 200:
            failed += 1
            msgs.append(f"{r.kind} request failed with {r.status}: {r.reply[:200]!r}")
            continue
        reply = json.loads(r.reply)
        if r.kind == "regime":
            q = {k: int(v[0]) for k, v in parse_qs(urlsplit(r.path).query).items()}
            want_regime = classify_pair(q["m"], q["n_c"], q["d1"], q["d2"]).regime.value
            if reply["regime"] != want_regime:
                failed += 1
                msgs.append(f"{r.path}: oracle said {reply['regime']}, classifier {want_regime}")
            continue
        jobs = r.body["jobs"] if r.kind == "sweep" else [r.body]
        results = reply["results"] if r.kind == "sweep" else [reply]
        for job, res in zip(jobs, results):
            key = json.dumps(job, sort_keys=True)
            prev = answers.setdefault(key, (job, res["bandwidth"]))
            if prev[1] != res["bandwidth"]:
                failed += 1
                msgs.append(f"{key}: answered both {prev[1]} and {res['bandwidth']}")
    sample = set(random.Random(0).sample(sorted(answers), min(REPLAY, len(answers))))
    for key, (payload, got) in answers.items():
        job = _sim_job(payload)
        want = run(job, backend="fast").bandwidth
        ok = f"{want.numerator}/{want.denominator}" == got
        if ok and key in sample:
            ok = run(job, backend="reference").bandwidth == want
        if not ok:
            failed += 1
            msgs.append(f"{key}: oracle said {got}, run() says {want}")
    return failed, checked, msgs


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
async def _drive(server: Server, seed: int, phases: dict[str, list]):
    """Warm up, then run each phase: open loop at its ``RATES`` rate, or
    closed loop for a saturated slice.  Returns a :class:`Phase` per phase, the
    /metrics text before and after the measured phases, and their
    ``perf_counter_ns`` window."""
    conns = [await Connection.open(server.port) for _ in range(CONNECTIONS)]
    try:
        warm = await closed_loop(conns, warmup_requests(seed))
        if any(r.status != 200 for r in warm):
            raise RuntimeError("warm-up request failed")
        before = (await conns[0].request("/metrics", None))[1].decode()
        start_ns = time.perf_counter_ns()
        out = {}
        mark = pace.reading()
        for name, reqs in phases.items():
            phase = out[name] = Phase([], [], 0.0, [mark])
            # An open-loop phase runs in stretches of one second's
            # requests, a saturated slice in one; the host's speed is
            # read between stretches, while nothing else runs.
            step = RATES.get(name, len(reqs))
            for at in range(0, len(reqs), step):
                stretch = reqs[at:at + step]
                cpu0 = server.cpu_s()
                if name in RATES:
                    records, late = await open_loop(conns, stretch, RATES[name])
                else:
                    records, late = await closed_loop(conns, stretch), []
                phase.cpu_s += server.cpu_s() - cpu0
                mark = pace.reading()
                phase.readings.append(mark)
                phase.records += records
                phase.late += late
        end_ns = time.perf_counter_ns()
        after = (await conns[0].request("/metrics", None))[1].decode()
    finally:
        for c in conns:
            await c.close()
    return out, (before, after), (start_ns, end_ns)


def _end_to_end(results: dict[str, Phase]) -> dict[str, float]:
    """Latency at the two open-loop rates, and capacity from the
    saturated slices: their answered requests, answered bandwidth jobs,
    and the simulated clocks (transient plus period) of their writes,
    per second of the server's CPU time.  Only writes are new to the
    server, so only their clocks are simulated there; a read's clocks
    were simulated once, earlier, and vary with the seed's read pool.
    The CPU time is a typical slice's (the median) times the slice
    count, so a spell of the host that slows one slice moves only that
    slice's sample."""
    sat = [phase for name, phase in results.items() if name not in RATES]
    seconds = len(sat) * harness.median([phase.cpu_s * phase.scale for phase in sat])
    requests = jobs = clocks = 0
    for r in (r for phase in sat for r in phase.records):
        if r.status != 200:
            continue
        requests += 1
        if r.kind == "regime":
            continue
        reply = json.loads(r.reply)
        for res in reply["results"] if r.kind == "sweep" else [reply]:
            jobs += 1
            clocks += res["cycles"] if r.kind == "write" else 0
    return {
        "p50_ms.low": phase_stats(results["low"]).p50_ms,
        "p50_ms.high": phase_stats(results["high"]).p50_ms,
        "max_rps": requests / seconds,
        "jobs_per_s": jobs / seconds,
        "clocks_per_s": clocks / seconds,
    }


def _prom(text: str) -> list:
    """Prometheus text as registry-like counter entries."""
    from types import SimpleNamespace

    out = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        pairs = {}
        for item in labels.rstrip("}").split(","):
            if "=" in item:
                k, _, v = item.partition("=")
                pairs[k] = v.strip('"')
        out.append(SimpleNamespace(name=name, kind="counter", labels=pairs, value=int(value)))
    return out


class _Delta:
    """Counters of a /metrics scrape minus an earlier scrape."""

    def __init__(self, before: str, after: str) -> None:
        base = {(m.name, tuple(sorted(m.labels.items()))): m.value for m in _prom(before)}
        self._metrics = []
        for m in _prom(after):
            m.value -= base.get((m.name, tuple(sorted(m.labels.items()))), 0)
            self._metrics.append(m)

    def collect(self) -> list:
        return self._metrics

    def sum(self, name: str, **labels: str) -> int:
        return layers.counter_sum(self, name, **labels)


def run(args) -> int:
    phases = plan(args.seed, args.seconds)
    if not args.trace:
        setup_s, server = measure_setup()
        try:
            results, _, _ = asyncio.run(_drive(server, args.seed, phases))
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        records = [r for phase in results.values() for r in phase.records]
        failed, checked, msgs = check(records)
        for msg in msgs[:20]:
            print(f"check: {msg}")
        values = _end_to_end(results)
        values.update(
            setup_s=setup_s,
            success_rate=1.0 - failed / checked,
            peak_rss_mb=rss,
        )
        for name, phase in results.items():
            st = phase_stats(phase)
            if name in RATES:
                print(f"{name}: {st.n} requests at {RATES[name]}/s, p50 {st.p50_ms:.2f} ms, "
                      f"p99 {st.p99_ms:.2f} ms, "
                      f"late p99 {1e3 * harness.percentile(sorted(phase.late), 0.99):.2f} ms")
            else:
                print(f"{name}: {st.n} requests closed loop in {st.span_s:.3f} s, "
                      f"server CPU {phase.cpu_s:.2f} s")
        harness.emit(failed == 0, len(records), failed,
                     harness.metrics_out("end_to_end", values))
        return 0
    return _run_traced(args, phases)


def _run_traced(args, phases: dict) -> int:
    """Per-layer metrics: the low and high phases on a plain server
    (their p99 rows, and the tracing overhead), then every phase on a
    server with spans installed."""
    from perfbench.tracer import covered_ns, rollup, window

    setup = harness.measure_setup("import repro.cli\nimport repro.serve.app", "pass")
    server = Server()
    try:
        plain, _, _ = asyncio.run(_drive(
            server, args.seed, {"low": phases["low"], "high": phases["high"]}
        ))
    finally:
        server.stop()
    harness.OUT_DIR.mkdir(exist_ok=True)
    spans_path = harness.OUT_DIR / f"oracle-seed{args.seed}.server-spans.json"
    server = Server(traced_out=str(spans_path))
    try:
        results, (before, after), (lo, hi) = asyncio.run(
            _drive(server, args.seed, phases)
        )
    finally:
        server.stop()
    spans = window(json.loads(spans_path.read_text()), lo, hi)
    spans_path.unlink()
    roll = rollup(spans)
    delta = _Delta(before, after)
    stats = {
        "submitted": delta.sum("runner.executor.submitted"),
        "hits": delta.sum("runner.executor.memo_hits"),
        "deduped": delta.sum("runner.executor.deduped"),
        "executed": delta.sum("runner.executor.executed"),
    }
    values = layers.runner_metrics(roll, delta, stats)

    probes = delta.sum("serve.lookup.probes")
    hits = {t: delta.sum("serve.lookup.probes", tier=t) for t in ("analytic", "store", "memo")}
    submits = layers.row(roll, "serve.coalesce.submit")["count"]
    folded = delta.sum("serve.coalesce.folded")
    batches = delta.sum("serve.coalesce.batches")
    late = sorted(x for phase in results.values() for x in phase.late)
    low_plain = phase_stats(plain["low"])
    p50_traced = phase_stats(results["low"]).p50_ms
    values.update({
        "setup.import_s": setup["import_s"],
        "setup.numpy_imported": setup["numpy_imported"],
        "serve.protocol.parse.self_s": layers.row(roll, "serve.protocol.parse")["self_s"],
        "serve.protocol.encode.self_s": layers.row(roll, "serve.protocol.encode")["self_s"],
        "serve.lookup.probes": probes,
        "serve.lookup.hits.analytic": hits["analytic"],
        "serve.lookup.hits.store": hits["store"],
        "serve.lookup.hits.memo": hits["memo"],
        "serve.lookup.hit_ratio": sum(hits.values()) / probes if probes else 0.0,
        "serve.lookup.probe.self_s": layers.row(roll, "serve.lookup.probe")["self_s"],
        "serve.coalesce.submits": submits,
        "serve.coalesce.executions": batches,
        "serve.coalesce.fold_ratio": folded / submits if submits else 0.0,
        "serve.coalesce.wait_s": layers.row(roll, "serve.coalesce.submit")["incl_s"],
        "serve.coalesce.batch_size": (submits - folded) / batches if batches else 0.0,
        "serve.app.dispatch.self_s": layers.row(roll, "serve.app.dispatch")["self_s"],
        "serve.app.shed": delta.sum("serve.http.shed"),
        "oracle.gen.late_ms": 1e3 * harness.percentile(late, 0.99),
        "p99_ms.low": low_plain.p99_ms,
        "p99_ms.high": phase_stats(plain["high"]).p99_ms,
        "trace.overhead_ratio": p50_traced / low_plain.p50_ms - 1.0,
        "trace.unattributed_share": 1.0 - covered_ns(spans, lo, hi) / (hi - lo),
        "trace.spans": len(spans["start_ns"]),
    })
    records = [r for phase in [*results.values(), *plain.values()] for r in phase.records]
    failed, _, msgs = check(records)
    for msg in msgs[:20]:
        print(f"check: {msg}")
    harness.write_spans("oracle", args.seed, spans, roll)
    print(layers.render_rollup(roll))
    harness.emit(failed == 0, len(records), failed, harness.metrics_out("per_layer", values))
    return 0
