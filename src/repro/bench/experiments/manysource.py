"""Many-source kernel microbenchmark: one goal-directed symmetric loop
vs the per-source Dijkstra loop it replaced.

BL-Q and the convex hull spend nearly all their time in
target-terminated SSSP rounds.  This experiment times the two ways of
running BL-Q's rounds over the same Q-DPS windows of a Table II-scale
stand-in:

- ``reference``: one flat-engine ``make_search`` per query vertex, run
  until every query vertex is settled, then the Section III-A
  collection -- the loop BL-Q and the hull ran before the kernel.  It
  lives only here, as the yardstick;
- ``kernel``: :func:`~repro.shortestpath.manysource.many_source_paths`
  with ``Q`` as both sides -- goal-directed rounds, each unordered pair
  served once.

A warm-up pass runs both once per window and doubles as the
correctness cross-check: the stand-ins have random real weights, so
shortest paths are unique and the two collected vertex sets must be
*equal*.  Timed repeats are interleaved (reference, kernel, reference,
...) so machine-load drift cancels out of the ratio.

``python -m repro.bench manysource --check`` fails (exit 1) when the
kernel is below :data:`MANYSOURCE_CHECK_RATIO` x the reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.bench.experiments.common import dataset_network
from repro.bench.metrics import median
from repro.datasets.queries import window_query
from repro.graph.network import RoadNetwork
from repro.obs.counters import SearchCounters
from repro.shortestpath.flat import make_search, release_search
from repro.shortestpath.manysource import many_source_paths
from repro.shortestpath.paths import collect_path_vertices

#: Table II-scale stand-in whose windows are measured.
MANYSOURCE_DATASET = "EAST-S"
#: Q-DPS window sizes (fractions of the map extent), two seeds each.
MANYSOURCE_EPSILONS = (0.10, 0.15)
MANYSOURCE_SEEDS = (1, 2)
MANYSOURCE_REPEATS = 3
#: The ``--check`` gate: the kernel must be at least this factor faster
#: than the per-source reference loop.
MANYSOURCE_CHECK_RATIO = 1.3


@dataclass
class ManySourceMeasure:
    """One loop's timings over all windows."""

    dataset: str
    loop: str              #: "reference" or "kernel"
    windows: int
    query_vertices: int    #: summed |Q| over the windows
    vertices_settled: int  #: summed over the windows, one pass
    seconds: float         #: median over the repeats of one pass
    samples: List[float] = field(default_factory=list)

    @property
    def settled_per_second(self) -> float:
        return self.vertices_settled / self.seconds


def reference_paths(network: RoadNetwork, q: Sequence[int], into: Set[int],
                    counters: Optional[SearchCounters] = None) -> None:
    """The per-source loop: a flat Dijkstra from every query vertex."""
    for s in q:
        search = make_search(network, s, counters=counters)
        try:
            if not search.run_until_settled(q):
                raise ValueError(f"query vertices unreachable from {s}")
            collect_path_vertices(search.pred, s, q, into)
        finally:
            release_search(search)


def kernel_paths(network: RoadNetwork, q: Sequence[int], into: Set[int],
                 counters: Optional[SearchCounters] = None) -> None:
    many_source_paths(network, q, q, into, counters=counters)


LOOPS = {"reference": reference_paths, "kernel": kernel_paths}


def run_manysource(dataset: str = MANYSOURCE_DATASET,
                   epsilons: Sequence[float] = MANYSOURCE_EPSILONS,
                   repeats: int = MANYSOURCE_REPEATS,
                   ) -> List[ManySourceMeasure]:
    """Time both loops over the same windows, repeats interleaved."""
    network = dataset_network(dataset)
    network.csr().goal_coords(network.coords)  # built once, not timed
    windows = [sorted(window_query(network, eps, seed=seed))
               for eps in epsilons for seed in MANYSOURCE_SEEDS]
    settled = {}
    for name, loop in LOOPS.items():
        counters = SearchCounters()
        answers = []
        for q in windows:
            into: Set[int] = set()
            loop(network, q, into, counters)
            answers.append(into)
        settled[name] = (counters.vertices_settled, answers)
    if settled["kernel"][1] != settled["reference"][1]:
        raise AssertionError(
            "the many-source kernel and the per-source loop collected"
            " different vertex sets")

    samples = {name: [] for name in LOOPS}
    for _ in range(repeats):
        for name, loop in LOOPS.items():
            start = time.perf_counter()
            for q in windows:
                loop(network, q, set())
            samples[name].append(time.perf_counter() - start)
    size = sum(len(q) for q in windows)
    return [ManySourceMeasure(dataset, name, len(windows), size,
                              settled[name][0], median(samples[name]),
                              samples[name])
            for name in LOOPS]


def speedup(measures: List[ManySourceMeasure]) -> float:
    """reference seconds / kernel seconds (>1 means the kernel wins)."""
    by_loop = {m.loop: m for m in measures}
    return by_loop["reference"].seconds / by_loop["kernel"].seconds
