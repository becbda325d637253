"""many-source-usa: Q-DPS windows on USA-S answered by BL-Q and by the
convex hull on the full network, serially, by one closed-loop client.

Both algorithms are loops of target-terminated SSSPs, so this workload
loads the ``repro.shortestpath`` kernels and bypasses the index, the
oracle and serving.
"""

from __future__ import annotations

import functools
import random
import time
from typing import List, NamedTuple

from repro.core.blq import bl_quality
from repro.core.dps import DPSQuery
from repro.core.hull import convex_hull_dps
from repro.core.verify import verify_dps
from repro.datasets.catalog import DATASETS
from repro.datasets.queries import window_query
from repro.obs.stats import QueryStats

import layers
from common import (AnswerLedger, FingerprintStore, Tracer,
                    closed_loop_timings, median, peak_rss_mb)
from inputs import Query, many_source_batch
from outcome import Context, Outcome
from probe import SpeedProbe

NAME = "many-source-usa"
DATASET = "USA-S"
#: Set-ups per run; setup_s is their median at reference speed.
SETUPS = 5
#: Probes per speed-probe block (see probe.SpeedProbe).
PROBES_PER_BLOCK = 3
#: Latency limit of slo_ok_ratio for one query (both algorithms).
SLO_S = 10.0
#: Distinct answers whose distance preservation is verified per run,
#: each from this many sampled sources.
VERIFY_ANSWERS = 4
VERIFY_SOURCES = 2
#: numpy-vs-flat comparison (traced run only): the first windows of
#: the smallest ε, each timed this many times per engine.
ENGINE_QUERIES = 6
ENGINE_REPEATS = 2

ALGORITHMS = (("blq", bl_quality, "core.blq.bl_quality"),
              ("hull", convex_hull_dps, "core.hull.convex_hull_dps"))


def _setup():
    started = time.perf_counter()
    network, _ = DATASETS[DATASET].build()
    network.csr()
    warm = DPSQuery.q_query(window_query(network, 0.02, seed=1))
    for _, fn, _ in ALGORITHMS:
        fn(network, warm)
    return network, time.perf_counter() - started


class Answer(NamedTuple):
    query: Query
    results: list
    start: float
    latency: float
    speed: float = 1.0  #: speed factor around the call (closed loop)


def _answer(network, q: Query) -> Answer:
    dq = q.dps()
    started = time.perf_counter()
    results = [fn(network, dq) for _, fn, _ in ALGORITHMS]
    return Answer(q, results, started, time.perf_counter() - started)


def _closed_loop(network, batch: List[Query], seconds: float
                 ) -> List[Answer]:
    """Answer the whole batch, again and again until ``seconds`` have
    passed (repeats must match); only complete passes, so every run
    keeps the batch's mix.  Speed-probe blocks separate the answers."""
    done: List[Answer] = []
    with SpeedProbe(PROBES_PER_BLOCK) as probe:
        probe.block()
        started = time.perf_counter()
        while not done or time.perf_counter() - started < seconds:
            for q in batch:
                done.append(_answer(network, q))
                probe.block()
    return [a._replace(speed=probe.around(a.start, a.start + a.latency))
            for a in done]


def _check(network, answers: List[Answer], ledger: AnswerLedger,
           seed: int, where: str) -> None:
    distinct = {}
    for a in answers:
        for (name, _, _), r in zip(ALGORITHMS, a.results):
            ledger.record(f"{a.query.qid}:{name}", r.vertices, where)
            distinct[a.query.qid, name] = (a.query, r)
    rng = random.Random(f"verify:{seed}")
    for key in rng.sample(sorted(distinct),
                          min(VERIFY_ANSWERS, len(distinct))):
        q, r = distinct[key]
        report = verify_dps(network, r.vertices, q.dps(),
                            max_sources=VERIFY_SOURCES, seed=seed)
        if not report.ok:
            ledger.mismatches.append(f"{where}: {key} {report.summary()}")


def run(ctx: Context) -> Outcome:
    setup_times, raw_setup_times = [], []
    with SpeedProbe() as probe:
        for _ in range(SETUPS):
            network = None  # drop the previous set-up's network first
            (network, seconds), speed = probe.bracket(_setup)
            setup_times.append(seconds / speed)
            raw_setup_times.append(seconds)
    batch = many_source_batch(network, ctx.seed)
    store = FingerprintStore(ctx.out_dir, NAME, ctx.code)
    ledger = AnswerLedger(store.load())
    out = Outcome(env={"dataset": DATASET,
                       "network_vertices": network.num_vertices})
    if ctx.trace:
        # Half the batch (every prefix keeps the ε mix): answering each
        # window twice keeps the traced run well inside its time limit.
        _traced(ctx, network, batch[:len(batch) // 2], ledger, out)
    else:
        answers = _closed_loop(network, batch, ctx.seconds)
        _check(network, answers, ledger, ctx.seed, "closed loop")
        latencies = [a.latency for a in answers]
        out.attempted = len(ALGORITHMS) * len(answers)
        out.metrics, out.notes = closed_loop_timings(
            latencies, [a.speed for a in answers])
        out.metrics.update({
            "setup_s": median(setup_times),
            "slo_ok_ratio": sum(lat <= SLO_S for lat in latencies)
            / len(latencies),
            "peak_rss_mb": peak_rss_mb(),
            "dps_vertices": sum(r.size for a in answers[:len(batch)]
                                for r in a.results),
        })
        out.notes["raw_setup_s"] = (median(raw_setup_times), "s")
    out.mismatches = ledger.mismatches
    out.failed = len(ledger.mismatches)
    if not out.mismatches:
        store.save(ledger.known)
    return out


def _traced(ctx: Context, network, queries: List[Query],
            ledger: AnswerLedger, out: Outcome) -> None:
    """Answer each window of the batch untraced and then traced (so
    machine drift hits both alike), then compare engines; fills the
    per-layer metrics."""
    tracer = Tracer()
    all_stats: List[QueryStats] = []
    untraced: List[Answer] = []
    untraced_s = traced_s = 0.0
    for q in queries:
        untraced.append(_answer(network, q))
        untraced_s += untraced[-1].latency
        rid = tracer.new_request()
        dq = q.dps()
        started = time.perf_counter()
        with tracer.span("bench.request", rid, qid=q.qid,
                         epsilon=q.epsilon):
            for name, fn, span_name in ALGORITHMS:
                stats = QueryStats()
                with tracer.span(span_name, rid) as attrs:
                    r = fn(network, dq, stats=stats)
                attrs.update(phases=dict(stats.phases),
                             counters=stats.counters.as_dict(),
                             result_size=r.size, extras=dict(stats.extras))
                all_stats.append(stats)
                ledger.record(f"{q.qid}:{name}", r.vertices, "traced pass")
        traced_s += time.perf_counter() - started
    _check(network, untraced, ledger, ctx.seed, "untraced pass")

    out.metrics = layers.from_query_stats(all_stats)
    out.metrics["bench.trace_overhead"] = traced_s / untraced_s
    # The numpy engine is several times slower on the large windows, so
    # the engines are compared on the smallest.
    low = min(q.epsilon for q in queries)
    smallest = [q for q in queries if q.epsilon == low]
    out.metrics["shortestpath.numpy_over_flat"] = layers.numpy_over_flat(
        [(f"{q.qid}:{name}", functools.partial(fn, network, q.dps()))
         for q in smallest[:ENGINE_QUERIES] for name, fn, _ in ALGORITHMS],
        ENGINE_REPEATS, ledger, out.notes)
    out.attempted = 2 * len(ALGORITHMS) * len(queries)
    out.tracer = tracer
