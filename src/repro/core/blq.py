"""BL-Q: the quality-centric baseline (Section III-A of the paper).

BL-Q computes the *smallest* DPS: exactly the vertices lying on some
``sp(s, t)``.  It runs one single-source search per vertex of the
smaller query side, each terminated as soon as every vertex of the other
side is settled, then harvests path vertices with the ``O(|E|)``
vertex-collection routine.  The searches are the goal-directed rounds
of :func:`~repro.shortestpath.manysource.many_source_paths`.  Total cost
``O(min(|S|, |T|) · |V| log |V|)`` -- the paper's gold standard for DPS
quality and the denominator of every V-ratio in Figure 11.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.dps import DPSQuery, DPSResult
from repro.graph.network import RoadNetwork
from repro.obs.stats import QueryStats, resolve_stats
from repro.shortestpath.deadline import Deadline
from repro.shortestpath.flat import resolve_engine
from repro.shortestpath.manysource import many_source_paths


def bl_quality(network: RoadNetwork, query: DPSQuery,
               stats: Optional[QueryStats] = None,
               engine: str = "flat",
               deadline: Optional[Deadline] = None) -> DPSResult:
    """Return the smallest DPS for ``query``.

    Ties between equal-length shortest paths resolve to the path Dijkstra
    discovers, so "smallest" is with respect to one canonical shortest
    path per pair -- the same convention the paper uses (its proofs only
    require *a* shortest path per pair to survive in the subgraph).  A
    Q-DPS serves each unordered pair once (see
    :mod:`repro.shortestpath.manysource`).

    ``stats`` (optional) collects per-phase timings (``sssp``,
    ``collect``) and engine counters -- see :mod:`repro.obs`.
    ``engine`` is validated but selects nothing: the many-source kernel
    is the only loop.  ``deadline`` (optional) bounds the query's wall
    clock across *all* its SSSP rounds (one shared budget); on expiry
    :class:`~repro.errors.DeadlineExceeded` propagates.
    """
    query.validate_against(network)
    resolve_engine(engine)
    stats = resolve_stats(stats)
    started = time.perf_counter()
    sources, targets = query.smaller_side()
    collected: set = set()
    rounds = many_source_paths(network, sources, targets, collected,
                               counters=stats.counters, deadline=deadline,
                               phase=stats.phase)
    elapsed = time.perf_counter() - started
    result = DPSResult("BL-Q", query, frozenset(collected), seconds=elapsed,
                       stats={"sssp_rounds": rounds})
    stats.finish(result, network)
    return result
