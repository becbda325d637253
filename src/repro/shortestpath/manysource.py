"""The many-source kernel: BL-Q's rounds and the hull's border connection.

BL-Q (Section III-A) and the convex hull's border connection (Section
VI) are the same job: for every source ``s`` run a search that stops
once every target is settled, then add the vertices of ``sp(s, t)`` for
every target ``t``.  :func:`many_source_paths` is the one loop that
does it, on the pooled CSR arena of :mod:`repro.shortestpath.flat`,
with three changes over a plain per-source Dijkstra:

- **Goal direction.**  The heap key is ``g(v) + π(v)`` with
  ``π(v) = (1 - POTENTIAL_MARGIN) · ‖v - bbox(targets)‖``, the
  Euclidean distance to the targets' bounding box.  On a metric network
  (every arc ``w ≥ ‖uv‖``, ``w > 0``; Section VII requires it for A*)
  the potential is consistent, so every vertex still settles at its
  exact distance, and the search no longer spreads away from the
  targets.  On any other network ``π ≡ 0``: plain Dijkstra through the
  same loop, operation for operation the flat engine's.
- **Tie order.**  When a relaxation ties the label of ``v``
  (``candidate == dist[v]``), the predecessor with the smaller
  ``(dist[u], u)`` is kept -- the one Dijkstra's ``(dist, vertex)``
  heap order settles first, hence the one the flat engine records.
  The margin makes every reduced cost strictly positive, so each tight
  predecessor of ``v`` settles (and relaxes ``v``) before ``v`` does.
  Settled distances and predecessors, and so every collected path, are
  the flat engine's.
- **Pair symmetry.**  When the source and target sets are equal (Q-DPS,
  and the hull's border × border) each unordered pair is served once.
  Sources go outside-in (descending distance from their centroid, ties
  by id); each source targets only the sources after it, and its
  potential comes from their bounding box, which shrinks as the rounds
  move inward.  The result is a subset of the per-source answer --
  equal to it when shortest paths are unique -- and still a DPS: every
  pair keeps one shortest path.

The loop keeps what the per-source loops did: the deadline is polled
every :data:`~repro.shortestpath.deadline.DEADLINE_CHECK_INTERVAL`
settles, counters are flushed in one batch, the arena goes back to the
pool on every exit path, and a target the search cannot reach raises
:class:`ValueError`.
"""

from __future__ import annotations

import heapq
import math
from time import monotonic
from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro.errors import DeadlineExceeded
from repro.graph.network import RoadNetwork
from repro.obs.counters import NULL_COUNTERS, SearchCounters
from repro.obs.stats import NULL_STATS
from repro.shortestpath.deadline import DEADLINE_CHECK_INTERVAL, Deadline
from repro.shortestpath.paths import collect_path_vertices

#: Relative shrink of the Euclidean potential.  It turns ``w ≥ ‖uv‖``
#: into a reduced cost of at least ``POTENTIAL_MARGIN · w``, so a tight
#: predecessor's key is strictly below its successor's key.
POTENTIAL_MARGIN = 1e-9

Box = Tuple[float, float, float, float]  #: (xmin, ymin, xmax, ymax)


def outside_in(network: RoadNetwork, vertices: Iterable[int]) -> List[int]:
    """``vertices`` by descending distance from their centroid, ties by
    id -- the round order of the symmetric mode."""
    coords = network.coords
    verts = sorted(set(vertices))
    if not verts:
        return []
    cx = sum(coords[v][0] for v in verts) / len(verts)
    cy = sum(coords[v][1] for v in verts) / len(verts)
    return sorted(verts, key=lambda v: (-math.hypot(coords[v][0] - cx,
                                                    coords[v][1] - cy), v))


def _suffix_boxes(xs: List[float], ys: List[float],
                  order: List[int]) -> List[Box]:
    """``boxes[i]`` is the bounding box of ``order[i:]``."""
    boxes: List[Box] = [(0.0, 0.0, 0.0, 0.0)] * len(order)
    x0 = y0 = math.inf
    x1 = y1 = -math.inf
    for i in range(len(order) - 1, -1, -1):
        v = order[i]
        x, y = xs[v], ys[v]
        x0, y0 = min(x0, x), min(y0, y)
        x1, y1 = max(x1, x), max(y1, y)
        boxes[i] = (x0, y0, x1, y1)
    return boxes


def many_source_paths(network: RoadNetwork, sources: Iterable[int],
                      targets: Iterable[int], into: Set[int], *,
                      allowed: Optional[Set[int]] = None,
                      counters: Optional[SearchCounters] = None,
                      deadline: Optional[Deadline] = None,
                      phase: Optional[Callable[[str], object]] = None,
                      ) -> int:
    """Add the vertices of one shortest ``sp(s, t)`` per pair to ``into``.

    Pairs are ``sources × targets`` -- when the two sets are equal, each
    unordered pair once, plus every source.
    ``allowed`` restricts the searches to a vertex subset (the hull's
    input subgraph ``H``); every source must lie in it.  ``counters``
    receives the searches' operation counts, ``deadline`` bounds all
    rounds together (:class:`~repro.errors.DeadlineExceeded`), and
    ``phase`` -- a phase-timer factory such as
    :meth:`QueryStats.phase <repro.obs.stats.QueryStats.phase>` -- times
    each round's search and its path collection as ``sssp`` and
    ``collect``.  Returns the number of searches run.

    Raises ValueError when a target is unreachable from a source within
    ``allowed`` (or the network).
    """
    source_set = set(sources)
    target_set = set(targets)
    symmetric = source_set == target_set
    if allowed is not None:
        outside = sorted(v for v in source_set if v not in allowed)
        if outside:
            raise ValueError(f"source {outside[0]} not in the allowed set")
    if not source_set or not target_set:
        return 0
    csr = network.csr()
    goal = csr.goal_coords(network.coords)
    if symmetric:
        into.update(source_set)
        order = outside_in(network, source_set)
        plan = [(s, order[i + 1:]) for i, s in enumerate(order[:-1])]
        if goal is not None:
            boxes = _suffix_boxes(goal[0], goal[1], order)[1:]
    else:
        target_list = sorted(target_set)
        plan = [(s, target_list) for s in sorted(source_set)]
        if goal is not None:
            box = _suffix_boxes(goal[0], goal[1], target_list)[0]
            boxes = [box] * len(plan)
    if phase is None:
        phase = NULL_STATS.phase
    counters = NULL_COUNTERS if counters is None else counters

    arena = csr.acquire_arena()
    dist = arena.dist
    pred = arena.pred
    settled = arena.settled
    # The all-inf convention leaves ``touched`` free: it stamps the
    # round's targets with the round's generation.
    is_target = arena.touched
    indptr = csr.indptr_list
    tarr = csr.targets_list
    warr = csr.weights_list
    if allowed is None:
        amask = None
        agen = 0
    else:
        agen = arena.new_allowed_generation()
        amask = arena.allowed
        n = csr.num_vertices
        for v in allowed:
            if 0 <= v < n:
                amask[v] = agen
    if goal is not None:
        xs, ys = goal
        scale = 1.0 - POTENTIAL_MARGIN
    heappop = heapq.heappop
    heappush = heapq.heappush
    sqrt = math.sqrt
    inf = math.inf
    frontier: List[Tuple[float, int]] = []
    round_order: List[int] = []  # the current round's settled vertices
    order_append = round_order.append
    stale = relaxed = pruned = settles = leftover = 0
    gen = arena.generation

    try:
        for i, (s, round_targets) in enumerate(plan):
            if i:
                # Retire the last round: count it, then restore the
                # arena's all-inf invariant and retire its stamps.
                settles += len(round_order)
                leftover += len(frontier)
                for v in round_order:
                    dist[v] = inf
                for _, v in frontier:
                    dist[v] = inf
                del round_order[:]
                del frontier[:]
                gen = arena.new_generation()
            if goal is not None:
                x0, y0, x1, y1 = boxes[i]
            for t in round_targets:
                is_target[t] = gen
            remaining = len(round_targets)
            with phase("sssp"):
                if deadline is not None:
                    deadline.check()
                dl_ticks = DEADLINE_CHECK_INTERVAL
                dist[s] = 0.0
                frontier.append((0.0, s))
                while frontier:
                    _, u = heappop(frontier)
                    if settled[u] == gen:
                        stale += 1
                        continue
                    settled[u] = gen
                    order_append(u)
                    if deadline is not None:
                        dl_ticks -= 1
                        if dl_ticks <= 0:
                            dl_ticks = DEADLINE_CHECK_INTERVAL
                            if monotonic() >= deadline.expires_at:
                                raise DeadlineExceeded(deadline.describe())
                    if is_target[u] == gen:
                        remaining -= 1
                        if not remaining:
                            break
                    d = dist[u]
                    start = indptr[u]
                    end = indptr[u + 1]
                    relaxed += end - start
                    for k in range(start, end):
                        v = tarr[k]
                        candidate = d + warr[k]
                        dv = dist[v]
                        if candidate < dv:
                            if amask is not None and amask[v] != agen:
                                pruned += 1
                                continue
                            dist[v] = candidate
                            pred[v] = u
                            if goal is None:
                                heappush(frontier, (candidate, v))
                                continue
                            x = xs[v]
                            y = ys[v]
                            dx = (x0 - x if x < x0
                                  else (x - x1 if x > x1 else 0.0))
                            dy = (y0 - y if y < y0
                                  else (y - y1 if y > y1 else 0.0))
                            heappush(frontier, (candidate + scale * sqrt(
                                dx * dx + dy * dy), v))
                        elif candidate == dv and goal is not None:
                            # Keep the tight predecessor Dijkstra's
                            # (dist, vertex) order would settle first.
                            p = pred[v]
                            dp = dist[p]
                            if d < dp or (d == dp and u < p):
                                pred[v] = u
            if remaining:
                unreached = [t for t in round_targets if settled[t] != gen]
                where = ("network" if allowed is None
                         else "allowed subgraph")
                raise ValueError(
                    f"{where} is not connected: {len(unreached)} targets"
                    f" unreachable from {s} (e.g. {unreached[:3]})")
            with phase("collect"):
                collect_path_vertices(pred, s, round_targets, into)
    finally:
        settles += len(round_order)
        leftover += len(frontier)
        for v in round_order:
            dist[v] = inf
        for _, v in frontier:
            dist[v] = inf
        csr.release_arena(arena)
        # Every pop settles or is stale; every push is popped or left
        # on a round's frontier (the source seeds included).
        counters.heap_pops += settles + stale
        counters.stale_skips += stale
        counters.edges_relaxed += relaxed
        counters.heap_pushes += settles + stale + leftover
        counters.vertices_settled += settles
        counters.expansions_pruned += pruned
    return len(plan)
