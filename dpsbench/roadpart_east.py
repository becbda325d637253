"""roadpart-east: build an EAST-S RoadPart index with the shipped
defaults, round-trip it through the binary format, then answer a stream
of ``roadpart_dps`` queries with one closed-loop client.

This is the server-side answer path without HTTP: window, region
pruning, Corollary 3 ball, oracle, bridge domains and path patching,
with the index build and binary format in set-up.
"""

from __future__ import annotations

import functools
import os
import random
import time
from typing import List, NamedTuple, Tuple

from repro.core.roadpart.index import RoadPartIndex, build_index
from repro.core.roadpart.query import roadpart_dps
from repro.core.verify import verify_dps
from repro.datasets.catalog import DATASETS
from repro.obs.stats import QueryStats

import layers
from common import (AnswerLedger, FingerprintStore, Tracer,
                    closed_loop_timings, peak_rss_mb)
from inputs import Query, roadpart_pool, warmup_queries
from outcome import Context, Outcome
from probe import SpeedProbe

NAME = "roadpart-east"
DATASET = "EAST-S"
#: Distinct queries per run.  The loop answers them in complete passes
#: (repeats must match); dps_vertices sums the first pass.
POOL = 400
#: Latency limit of slo_ok_ratio.
SLO_S = 0.25
#: Distinct answers verified per run, each from this many sources.
VERIFY_ANSWERS = 12
VERIFY_SOURCES = 2
#: Pool queries answered again from the freshly built (not reloaded)
#: index, which must give the same answers as the binary round trip.
BUILT_CHECK = 10
#: numpy-vs-flat comparison (traced run only).
ENGINE_QUERIES = 20
ENGINE_REPEATS = 2


class Setup:
    """One set-up: dataset, index build (``border_count`` = Table I's ℓ,
    ``oracle="auto"``, default engine), binary save and load, warm-up.
    The build is ~25 s of pure-Python work, so a run sets up once."""

    def __init__(self, ctx: Context) -> None:
        spec = DATASETS[DATASET]
        path = ctx.work_dir / "east.rpix"
        #: (span name, start, end) of each set-up step
        self.steps: List[Tuple[str, float, float]] = []

        def step(name, fn):
            started = time.perf_counter()
            result = fn()
            self.steps.append((name, started, time.perf_counter()))
            return result

        self.network = step("datasets.catalog.build",
                            lambda: spec.build()[0])
        built = step("core.roadpart.index.build_index",
                     lambda: build_index(self.network, spec.border_count,
                                         oracle="auto"))
        step("core.roadpart.index.save_binary",
             lambda: built.save_binary(path))
        self.index = step("core.roadpart.index.load_binary",
                          lambda: RoadPartIndex.load_binary(
                              path, self.network))
        step("bench.warm_up", self._warm_up)
        #: The index as built, before the binary round trip; dropped
        #: once its answers are checked (its Python-object labels would
        #: otherwise slow every garbage collection while measuring).
        self.built = built
        self.build_stats = self.built.stats
        self.seconds = sum(end - start for _, start, end in self.steps)
        self.save_s, self.load_s = [end - start for name, start, end
                                    in self.steps if "_binary" in name]
        self.index_bytes = os.path.getsize(path)

    def _warm_up(self) -> None:
        for q in warmup_queries(self.network, ()):
            if q.algorithm == "roadpart":
                roadpart_dps(self.index, q.dps())

    def env(self):
        return {"dataset": DATASET,
                "network_vertices": self.network.num_vertices,
                "border_count": self.index.border_count,
                "oracle_kind": self.index.stats.oracle_kind,
                "oracle_engine": self.build_stats.oracle_engine,
                "index_bytes": self.index_bytes}


class Answer(NamedTuple):
    query: Query
    result: object
    start: float
    latency: float
    speed: float = 1.0  #: speed factor around the call (closed loop)


def _answer(index, q: Query, dq) -> Answer:
    started = time.perf_counter()
    r = roadpart_dps(index, dq)
    return Answer(q, r, started, time.perf_counter() - started)


def _closed_loop(index, pool: List[Query], seconds: float
                 ) -> List[Answer]:
    """Answer the whole pool, again and again until ``seconds`` have
    passed (repeats must match); only complete passes, so every run
    keeps the pool's mix.  Speed-probe blocks separate the answers."""
    dps = [q.dps() for q in pool]
    done: List[Answer] = []
    with SpeedProbe() as probe:
        probe.block()
        started = time.perf_counter()
        while not done or time.perf_counter() - started < seconds:
            for q, dq in zip(pool, dps):
                done.append(_answer(index, q, dq))
                probe.block()
    return [a._replace(speed=probe.around(a.start, a.start + a.latency))
            for a in done]


def _check_built(setup: Setup, pool: List[Query],
                 ledger: AnswerLedger) -> None:
    """Answer the first pool queries from the index as built; the
    binary round trip must not change them.  Then drop that index."""
    for q in pool[:BUILT_CHECK]:
        ledger.record(q.qid, roadpart_dps(setup.built, q.dps()).vertices,
                      "built (not reloaded) index")
    setup.built = None


def _check(setup: Setup, answers: List[Answer], ledger: AnswerLedger,
           seed: int, where: str) -> None:
    for a in answers:
        ledger.record(a.query.qid, a.result.vertices, where)
    first = {a.query.qid: (a.query, a.result) for a in answers}
    rng = random.Random(f"verify:{seed}")
    for qid in rng.sample(sorted(first), min(VERIFY_ANSWERS, len(first))):
        q, r = first[qid]
        report = verify_dps(setup.network, r.vertices, q.dps(),
                            max_sources=VERIFY_SOURCES, seed=seed)
        if not report.ok:
            ledger.mismatches.append(f"{where}: {qid} {report.summary()}")


def run(ctx: Context) -> Outcome:
    with SpeedProbe() as probe:
        setup, setup_speed = probe.bracket(lambda: Setup(ctx))
    pool = roadpart_pool(setup.network, ctx.seed, POOL)
    store = FingerprintStore(ctx.out_dir, NAME, ctx.code)
    ledger = AnswerLedger(store.load())
    out = Outcome(env=setup.env())
    _check_built(setup, pool, ledger)
    if ctx.trace:
        _traced(ctx, setup, pool, ledger, out)
    else:
        answers = _closed_loop(setup.index, pool, ctx.seconds)
        _check(setup, answers, ledger, ctx.seed, "closed loop")
        latencies = [a.latency for a in answers]
        out.attempted = len(answers)
        out.metrics, out.notes = closed_loop_timings(
            latencies, [a.speed for a in answers])
        out.metrics.update({
            "setup_s": setup.seconds / setup_speed,
            "slo_ok_ratio": sum(lat <= SLO_S for lat in latencies)
            / len(latencies),
            "peak_rss_mb": peak_rss_mb(),
            "dps_vertices": sum(a.result.size for a in answers[:len(pool)]),
        })
        out.notes["raw_setup_s"] = (setup.seconds, "s")
        out.notes["index_bytes"] = (setup.index_bytes, "bytes")
    out.mismatches = ledger.mismatches
    out.failed = len(ledger.mismatches)
    if not out.mismatches:
        store.save(ledger.known)
    return out


def _traced(ctx: Context, setup: Setup, pool: List[Query],
            ledger: AnswerLedger, out: Outcome) -> None:
    tracer = Tracer()
    rid = tracer.new_request()
    for name, start, end in setup.steps:
        attrs = {}
        if name == "core.roadpart.index.build_index":
            attrs = {"stats": vars(setup.build_stats)}
        tracer.add(name, rid, start, end, **attrs)

    # Each query untraced and then traced, so machine drift hits both
    # alike.
    all_stats: List[QueryStats] = []
    untraced: List[Answer] = []
    untraced_s = traced_s = 0.0
    for q in pool:
        dq = q.dps()
        untraced.append(_answer(setup.index, q, dq))
        untraced_s += untraced[-1].latency
        rid = tracer.new_request()
        stats = QueryStats()
        started = time.perf_counter()
        with tracer.span("bench.request", rid, qid=q.qid, kind=q.kind,
                         epsilon=q.epsilon):
            with tracer.span("core.roadpart.query.roadpart_dps",
                             rid) as attrs:
                r = roadpart_dps(setup.index, dq, stats=stats)
            attrs.update(phases=dict(stats.phases),
                         counters=stats.counters.as_dict(),
                         result_size=r.size, extras=dict(stats.extras))
        traced_s += time.perf_counter() - started
        all_stats.append(stats)
        ledger.record(q.qid, r.vertices, "traced pass")
    _check(setup, untraced, ledger, ctx.seed, "untraced pass")

    out.metrics = layers.from_query_stats(all_stats)
    out.metrics.update(layers.from_build_stats(
        setup.build_stats, setup.save_s, setup.load_s, setup.index_bytes))
    out.metrics["bench.trace_overhead"] = traced_s / untraced_s
    out.metrics["shortestpath.numpy_over_flat"] = layers.numpy_over_flat(
        [(q.qid, functools.partial(roadpart_dps, setup.index, q.dps()))
         for q in pool[:ENGINE_QUERIES]], ENGINE_REPEATS, ledger, out.notes)
    out.attempted = 2 * len(pool)
    out.tracer = tracer
