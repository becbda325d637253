"""serve-east: ``repro serve`` as a child process on the EAST-S binary
index, loaded open-loop from one process on a seeded schedule.

This is the serving tier: request parsing, the result cache, the wait
for the compute lock, compute, serialisation and HTTP.  Cache hits
bypass compute entirely, so cache and queueing changes show here and
nowhere else.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.core.hull import convex_hull_dps
from repro.core.roadpart.index import RoadPartIndex, build_index
from repro.core.roadpart.query import roadpart_dps
from repro.core.verify import verify_dps
from repro.datasets.catalog import DATASETS
from repro.graph.io import read_dimacs, write_dimacs
from repro.obs.export import parse_metrics
from repro.vec.backend import has_backend

import layers
from common import (AnswerLedger, FingerprintStore, PercentileRefused,
                    Tracer, fingerprint, median, p95_note, percentile,
                    vm_hwm_mb)
from inputs import Query, Request, serve_schedule, warmup_queries
from loadgen import OpenLoop, Record
from outcome import Context, Outcome
from probe import RoundTripProbe, SpeedProbe

NAME = "serve-east"
DATASET = "EAST-S"
#: Offered load (requests per second, Poisson arrivals).  On a loaded
#: host the median of one run's latencies wanders by a few per cent
#: from sampling alone; 400 requests a run keep that small.
RATE = 40.0
#: Connections (and so requests) in flight; capped at the core count.
CONNECTIONS = 2
#: Latency limit of slo_ok_ratio, counted from each request's due time.
SLO_S = 0.100
#: Daemon starts per run; setup_s is their median at reference speed,
#: the last one serves.
SETUPS = 5
#: Seconds to wait for a daemon to print its port and answer /healthz.
START_TIMEOUT = 60.0
#: Per-request socket timeout.
REQUEST_TIMEOUT = 60.0
#: The open loop times a reference round trip (probe.RoundTripProbe)
#: when nothing is in flight and the next request is due more than this
#: many seconds away; a request's latency is divided by the mean factor
#: of the round trips within SPEED_REACH seconds of it.  Each quiet gap
#: gets ROUND_TRIPS of them.
IDLE_GAP = 0.010
ROUND_TRIPS = 2
SPEED_REACH = 0.5
#: Back-to-back hits timed on one keep-alive connection (traced run).
KEEPALIVE_HITS = 20
VERIFY_ANSWERS = 6
VERIFY_SOURCES = 2


class Daemon:
    """One ``python -m repro serve`` child with CLI defaults."""

    def __init__(self, ctx: Context, graph: str, coords: str,
                 index: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ctx.root / "src")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--graph", graph,
             "--coords", coords, "--index", index, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            cwd=ctx.work_dir)
        try:
            self.port = self._read_port(started)
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - started

    def _read_port(self, started: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            left = started + START_TIMEOUT - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(left, 0.0))
            if not ready:
                raise RuntimeError("daemon printed no startup line")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError(
                    f"daemon exited with {self.proc.wait()} before"
                    " serving")
            line += chunk
        # "serving on http://127.0.0.1:PORT (...)"
        return int(line.split(b"http://", 1)[1].split(b" ", 1)[0]
                   .rsplit(b":", 1)[1])

    def _wait_healthy(self, started: float) -> None:
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() - started > START_TIMEOUT:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.02)

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = self.connection()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def post(self, body: bytes) -> Tuple[int, bytes]:
        conn = self.connection()
        try:
            conn.request("POST", "/query", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def metrics(self) -> Dict[str, float]:
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_metrics(body.decode("utf-8"))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Inputs:
    """The files the daemon is started on, and the same network and
    index loaded in-process for checking its answers."""

    def __init__(self, ctx: Context) -> None:
        spec = DATASETS[DATASET]
        generated, _ = spec.build()
        self.graph = str(ctx.work_dir / "east.gr")
        self.coords = str(ctx.work_dir / "east.co")
        write_dimacs(generated, self.graph, self.coords)
        self.network = read_dimacs(self.graph, self.coords)
        # The index bytes are identical for every build engine (the
        # program's tests pin this); roadpart-east times the shipped
        # default build, so this run takes the fastest engine.
        self.build_engine = "numpy" if has_backend() else "flat"
        built = build_index(self.network, spec.border_count, oracle="auto",
                            engine=self.build_engine)
        self.index_path = str(ctx.work_dir / "east.rpix")
        built.save_binary(self.index_path)
        self.index = RoadPartIndex.load_binary(self.index_path,
                                               self.network)
        self.index_bytes = os.path.getsize(self.index_path)

    def answer(self, q: Query):
        if q.algorithm == "hull":
            return convex_hull_dps(self.network, q.dps())
        return roadpart_dps(self.index, q.dps())


def _start(ctx: Context, inputs: Inputs, warm: List[Query]
           ) -> Tuple[Daemon, float]:
    """Start a daemon and warm it (lazy state, and the cache with the
    popular queries, so the replay sees the steady state rather than the
    cold start); returns it with the set-up time."""
    started = time.perf_counter()
    daemon = Daemon(ctx, inputs.graph, inputs.coords, inputs.index_path)
    try:
        for q in warm:
            status, _ = daemon.post(q.body())
            if status != 200:
                raise RuntimeError(f"warm-up query answered {status}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started


def _replay(daemon: Daemon, schedule: List[Request]
            ) -> Tuple[List[Record], List[float], Dict[str, float],
                       Dict[str, float]]:
    """Send the schedule, one connection per request; returns the
    records, each one's speed factor, and /metrics before and after.

    A cache hit is mostly fixed work of the HTTP stack on both sides
    and the wake-ups between client and daemon, whose cost on a shared
    host drifts between runs by more than the benchmark's bounds (over
    five runs the raw median latency ranged 2.3-3.4 ms, IQR/median
    0.25).  A reference round trip in the quiet gaps of the load slows
    alike, and each request's factor is the mean of the round trips
    near it (the same five runs: 0.023)."""
    def send(i: int):
        conn = daemon.connection()
        try:
            conn.request("POST", "/query", schedule[i].body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return (resp.status, resp.read(),
                    resp.getheader("X-Repro-Cache", ""))
        except (OSError, http.client.HTTPException):
            return 0, b"", ""
        finally:
            conn.close()

    before = daemon.metrics()
    with RoundTripProbe() as probe:
        def idle() -> None:
            for _ in range(ROUND_TRIPS):
                probe.block()

        idle()
        loop = OpenLoop([r.due for r in schedule], send, CONNECTIONS,
                        idle=idle, idle_gap=IDLE_GAP)
        records = loop.run()
        idle()
    after = daemon.metrics()
    factors = [probe.around(loop.start + r.due, loop.start + r.done,
                            SPEED_REACH) for r in records]
    return records, factors, before, after


def _keepalive_hits(daemon: Daemon, body: bytes) -> float:
    """Median round trip of cache hits sent back to back on one
    keep-alive connection, in ms.  The load itself opens a connection
    per request; on a reused connection the daemon's separate header
    and body writes meet the client's delayed ACK, which this shows."""
    conn = daemon.connection()
    try:
        times = []
        for _ in range(KEEPALIVE_HITS + 1):
            started = time.perf_counter()
            conn.request("POST", "/query", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            if resp.status != 200:
                raise RuntimeError(f"keep-alive query answered"
                                   f" {resp.status}")
            times.append(time.perf_counter() - started)
    finally:
        conn.close()
    return median(times[1:]) * 1e3


def _check(schedule: List[Request], records: List[Record],
           ledger: AnswerLedger, expected: Dict[str, str],
           where: str) -> List[bool]:
    """Check each reply; returns per-record ok flags.  A reply is ok when
    it is a 200 whose vertex set matches the in-process answer."""
    ok = []
    for rec in records:
        req = schedule[rec.index]
        if rec.status != 200:
            ledger.mismatches.append(
                f"{where}: request {rec.index} ({req.kind}) got"
                f" status {rec.status}")
            ok.append(False)
            continue
        try:
            vertices = json.loads(rec.body)["vertices"]
        except (ValueError, KeyError, TypeError):
            ledger.mismatches.append(
                f"{where}: request {rec.index} body is not an answer")
            ok.append(False)
            continue
        good = ledger.record(req.qid, vertices, where)
        if fingerprint(vertices) != expected[req.qid]:
            ledger.mismatches.append(
                f"{where}: request {rec.index} differs from the"
                f" in-process answer")
            good = False
        ok.append(good)
    return ok


def _expected(inputs: Inputs, queries: Dict[str, Query], seed: int,
              ledger: AnswerLedger) -> Dict[str, str]:
    """In-process answers to every distinct query, a sample of them
    verified for distance preservation."""
    answers = {qid: inputs.answer(q) for qid, q in queries.items()}
    rng = random.Random(f"verify:{seed}")
    for qid in rng.sample(sorted(answers), min(VERIFY_ANSWERS,
                                               len(answers))):
        report = verify_dps(inputs.network, answers[qid].vertices,
                            queries[qid].dps(), max_sources=VERIFY_SOURCES,
                            seed=seed)
        if not report.ok:
            ledger.mismatches.append(f"in-process {qid}: "
                                     + report.summary())
    return {qid: fingerprint(r.vertices) for qid, r in answers.items()}


def run(ctx: Context) -> Outcome:
    inputs = Inputs(ctx)
    schedule, queries = serve_schedule(inputs.network, ctx.seed, RATE,
                                       ctx.seconds)
    popular = [queries[qid] for qid in dict.fromkeys(
        r.qid for r in schedule if r.kind == "popular")]
    warm = warmup_queries(inputs.network, list(queries)) + popular
    store = FingerprintStore(ctx.out_dir, NAME, ctx.code)
    ledger = AnswerLedger(store.load())
    out = Outcome(env={"dataset": DATASET,
                       "network_vertices": inputs.network.num_vertices,
                       "oracle_kind": inputs.index.stats.oracle_kind,
                       "index_bytes": inputs.index_bytes,
                       "index_build_engine": inputs.build_engine,
                       "rate_per_s": RATE, "connections": CONNECTIONS,
                       "slo_ms": SLO_S * 1e3,
                       "requests": len(schedule)})
    daemons: List[Daemon] = []
    try:
        setups = []
        with SpeedProbe() as probe:
            for _ in range(SETUPS):
                if daemons:
                    daemons.pop().stop()
                (daemon, seconds), speed = probe.bracket(
                    lambda: _start(ctx, inputs, warm))
                daemons.append(daemon)
                setups.append((daemon.startup_s, seconds, speed))
        records, factors, before, after = _replay(daemon, schedule)
        peak_mb = vm_hwm_mb(daemon.proc.pid)
        if ctx.trace:
            keepalive_ms = _keepalive_hits(daemon, warm[0].body())
    finally:
        for daemon in daemons:
            daemon.stop()

    expected = _expected(inputs, queries, ctx.seed, ledger)
    ok = _check(schedule, records, ledger, expected, "replay")
    out.attempted = len(records)
    if ctx.trace:
        # The daemon has no tracing switch: the per-layer figures come
        # from the same replay, so there is no tracing overhead to
        # report and bench.trace_overhead reads 0 here.
        out.metrics = _layer_metrics(schedule, records, before, after,
                                     setups)
        out.metrics["serve.http.keepalive_hit_p50_ms"] = keepalive_ms
        out.tracer = _spans(schedule, records)
    else:
        latencies = [r.latency for r in records]
        answered = [r for r, good in zip(records, ok) if good]
        out.metrics = {
            "setup_s": median([s / f for _, s, f in setups]),
            "throughput_qps": len(answered) / max(r.done for r in records),
            "latency_p50_ms": median([lat / f for lat, f
                                      in zip(latencies, factors)]) * 1e3,
            "slo_ok_ratio": sum(good and r.latency <= SLO_S for r, good
                                in zip(records, ok)) / len(records),
            "peak_rss_mb": peak_mb,
            "dps_vertices": sum({schedule[r.index].qid:
                                 json.loads(r.body)["size"]
                                 for r in answered}.values()),
        }
        out.notes["raw_latency_p50_ms"] = (median(latencies) * 1e3, "ms")
        out.notes["mean_speed_factor"] = (sum(factors) / len(factors), "x")
        out.notes["latency_p95_ms"] = p95_note(latencies)
        out.notes["raw_setup_s"] = (median([s for _, s, _ in setups]), "s")
    out.failed = len(ledger.mismatches)
    out.mismatches = ledger.mismatches
    if not out.mismatches:
        store.save(ledger.known)
    return out


def _layer_metrics(schedule: List[Request], records: List[Record],
                   before: Dict[str, float], after: Dict[str, float],
                   setups) -> Dict[str, float]:
    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    hits = [r for r in records if r.cache == "hit"]
    misses = [r for r in records if r.cache == "miss"]
    computed_vertices = sum(json.loads(r.body)["size"] for r in misses
                            if r.status == 200)
    out = layers.from_metrics_delta(before, after, computed_vertices)
    computes = delta("repro_cache_misses_total")
    compute_s = delta("repro_computed_seconds_total")
    service = [r.done - r.sent for r in misses]
    out.update({
        "serve.daemon.hit_latency_p50_ms":
            median([r.done - r.sent for r in hits]) * 1e3 if hits else 0.0,
        "serve.daemon.miss_latency_p50_ms":
            median(service) * 1e3 if service else 0.0,
        # Round trip of a miss minus the compute time the daemon
        # reports for it: parse, cache, wait for the compute lock,
        # serialisation and HTTP.
        "serve.daemon.queue_wait_ms":
            (sum(service) - compute_s) / computes * 1e3 if computes else 0.0,
        "serve.daemon.startup_s": median([s for s, _, _ in setups]),
        "serve.cache.hit_ratio":
            delta("repro_cache_hits_total")
            / (delta("repro_cache_hits_total") + computes),
        "serve.cache.evictions": delta("repro_cache_evictions_total"),
        # Set-up warmed the popular keys, so only the others are due
        # one compute each.
        "serve.cache.duplicate_computes":
            computes - len({r.qid for r in schedule
                            if r.kind != "popular"}),
    })
    try:
        out["bench.generator_late_p95_ms"] = percentile(
            [r.lateness for r in records], 95) * 1e3
    except PercentileRefused:
        pass  # a schedule under 200 requests; the metric reads 0
    return out


def _spans(schedule: List[Request], records: List[Record]) -> Tracer:
    """One request span per reply, with the HTTP round trip as its
    child; times are seconds after the schedule started."""
    tracer = Tracer()
    for rec in records:
        req = schedule[rec.index]
        rid = tracer.new_request()
        parent = tracer.add("bench.request", rid, rec.due, rec.done,
                            kind=req.kind, qid=req.qid,
                            lateness_s=rec.lateness)
        tracer.add("serve.http.query", rid, rec.sent, rec.done,
                   parent=parent, status=rec.status, cache=rec.cache)
    return tracer
