"""Vectorized array kernels: bucketed SSSP and batched hub-label sweeps.

This module is the third engine (``engine="numpy"``) plus the
vectorized :class:`~repro.shortestpath.oracle.OracleScratch`.  Both
kernels obtain their array module from :func:`repro.vec.backend.xp` --
numpy today, with the call-through seam shaped so a CuPy module could
drop in -- and the module itself imports cleanly without numpy (the
classes raise only when *used* without a backend; the engine registry
never routes here in that case).

**Bucketed SSSP** (:class:`VecDijkstraSearch`).  Instead of a binary
heap settling one vertex per pop, the search advances in *waves*
(bucketed Dijkstra / one-bucket delta-stepping, after Chapuis &
Djidjev, arXiv:1503.07192): pick the smallest unsettled tentative
distance ``lo``, fix a threshold ``T = lo + delta`` (``delta`` = mean
arc weight), and Bellman-Ford the bucket ``{tentative <= T}`` to a
fixpoint with whole-frontier CSR gather / grouped scatter-min
(``np.minimum.reduceat``) relaxations.  Every vertex whose true
distance is at most ``T`` then holds its exact label (any shortest
path to it runs through vertices that are settled or in the bucket,
and the fixpoint is closed under relaxation over both), so the whole
bucket settles at once.

**Result equivalence, not settle-order equivalence.**  The dict/flat
pair is operation-equivalent (same heap pops in the same order); a
bucket engine cannot be -- it has no per-vertex pop sequence to match.
What it guarantees instead, and what the property tests pin:

- *Distances are bit-identical.*  Every tentative label is
  ``dist[u] + w`` in float64, the same IEEE operation the dict engine
  performs, and the settled value is the minimum over the same
  candidate set -- a minimum is order-independent.
- *Predecessors are bit-identical.*  The dict engine's final
  ``pred[v]`` is the first settled neighbour (in settle order) whose
  relaxation achieved the final label.  With positive weights, every
  final-distance push is in the heap before the first pop at that
  distance, so equal-distance vertices settle in increasing id order
  and that first neighbour is exactly
  ``argmin over {(dist[u], u) : dist[u] + w(u,v) == dist[v]}`` (exact
  float equality).  The wave engine computes that argmin directly per
  settled bucket, over the same symmetric CSR (every in-arc of ``v``
  is stored as an out-arc of ``v``).
- *Settled sets are closures.*  ``run_until_settled(T)`` trims its
  last bucket at ``D* = max target distance``, leaving exactly
  ``{v : dist(v) <= D*}`` settled; ``run_until_beyond(r)`` leaves
  exactly ``{v : dist(v) <= r}`` (ties settled, as in the other
  engines).  Every consumer (BL-E's ``frozenset(search.dist)``, the
  unreached checks, pred-chain walks of settled targets) reads the
  same answers.

Operation counters are **bucket-level**: settles and relaxed-arc scans
are comparable in spirit, but re-relaxations inside a bucket fixpoint
and the absence of a heap make the totals incomparable with the
dict/flat engines' (see docs/observability.md).  The dict engine
remains the oracle of record.

**Vectorized hub-label sweep** (:class:`VecHubScratch`).  The
per-query target labels are flattened once into
``(seg_offsets, entry_rank, entry_dist)`` arrays grouped by target --
for a binary (v2) index these gather zero-copy out of the mmapped flat
label arrays -- and each endpoint's distance map becomes one dense
min-plus reduction: scatter the endpoint label into a dense
per-hub vector, add, segment-min per target.  The per-target minimum
ranges over the same ``a + dx`` candidate multiset as
``_HubScratch``'s dict loop, so the maps are bit-identical.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.graph.csr import CSRGraph
from repro.graph.network import RoadNetwork
from repro.obs.counters import NULL_COUNTERS, SearchCounters
from repro.shortestpath.deadline import Deadline
from repro.shortestpath.dijkstra import ShortestPathTree
from repro.shortestpath.oracle import OracleScratch
from repro.shortestpath.paths import reconstruct_path
from repro.vec.backend import xp


def _require_backend():
    np = xp()
    if np is None:
        raise RuntimeError(
            "the vectorized kernels need an array backend; install the"
            " 'vec' extra (pip install repro[vec]) or unset"
            " REPRO_VEC_DISABLE")
    return np


def _segment_min(np, values, offsets, counts, sentinel):
    """Per-segment minimum of ``values`` split at ``offsets``.

    ``offsets[i]`` is the start of segment ``i`` (length ``counts[i]``,
    segments contiguous and in order).  A ``sentinel`` element appended
    to ``values`` sidesteps both ``reduceat`` pitfalls -- an offset
    equal to ``len(values)`` (trailing empty segments) would be out of
    bounds, and an empty segment returns the element *at* its offset --
    and empty segments are masked to ``sentinel`` afterwards.
    """
    if counts.size == 0:
        return values[:0]
    padded = np.append(values, sentinel)
    out = np.minimum.reduceat(padded, offsets)
    return np.where(counts > 0, out, sentinel)


def _expand_ranges(np, starts, counts, total):
    """Flat index array covering ``[starts[i], starts[i]+counts[i])``
    for every segment ``i``, concatenated -- the CSR arc gather."""
    seg_off = np.cumsum(counts) - counts
    return np.repeat(starts - seg_off, counts) + np.arange(total)


def _in_domain_arr(np, dist_near, dist_far):
    """Vectorized ``math.isclose(dist_near, dist_far, rel_tol=
    DOMAIN_REL_TOL, abs_tol=1e-12)`` -- the same formula CPython
    evaluates, so scalar and array decisions coincide bit-for-bit.

    Only meaningful on finite pairs: callers mask unreachable entries
    (``inf`` operands can produce ``nan`` diffs or inf-vs-inf ties).
    """
    from repro.shortestpath.bidirectional import DOMAIN_REL_TOL
    with np.errstate(invalid="ignore"):
        diff = np.abs(dist_near - dist_far)
        tol = np.maximum(
            DOMAIN_REL_TOL * np.maximum(np.abs(dist_near),
                                        np.abs(dist_far)),
            1e-12)
        return diff <= tol


# ----------------------------------------------------------------------
# Bucketed SSSP engine
# ----------------------------------------------------------------------


class _VecDistView:
    """Dict-like read view of settled distances (mirrors the flat
    engine's ``_DistView``: membership == settled, iteration in settle
    order, ``[v]`` raises KeyError for unsettled vertices, values are
    plain Python floats)."""

    __slots__ = ("_search",)

    def __init__(self, search: "VecDijkstraSearch") -> None:
        self._search = search

    def __contains__(self, v: object) -> bool:
        s = self._search
        return (s._settled is not None and isinstance(v, int)
                and 0 <= v < s._n and bool(s._settled[v]))

    def __getitem__(self, v: int) -> float:
        s = self._search
        if s._settled is not None and 0 <= v < s._n and s._settled[v]:
            return float(s._dist[v])
        raise KeyError(v)

    def get(self, v: int, default=None):
        s = self._search
        if s._settled is not None and 0 <= v < s._n and s._settled[v]:
            return float(s._dist[v])
        return default

    def __iter__(self) -> Iterator[int]:
        return iter(self._search.settled_order)

    def __len__(self) -> int:
        return len(self._search.settled_order)

    def keys(self):
        return list(self._search.settled_order)

    def items(self):
        dist = self._search._dist
        return [(v, float(dist[v])) for v in self._search.settled_order]

    def values(self):
        dist = self._search._dist
        return [float(dist[v]) for v in self._search.settled_order]


class _VecPredView:
    """Dict-like read view of predecessor links.

    Covers the *settled* vertices except the source -- slightly
    narrower than the dict/flat views (which also expose tentative
    frontier preds), but every consumer in the repository only walks
    pred chains of settled vertices, and those chains are settled all
    the way down (each predecessor is strictly nearer).
    """

    __slots__ = ("_search",)

    def __init__(self, search: "VecDijkstraSearch") -> None:
        self._search = search

    def __contains__(self, v: object) -> bool:
        s = self._search
        return (s._settled is not None and isinstance(v, int)
                and 0 <= v < s._n and v != s.source and bool(s._settled[v]))

    def __getitem__(self, v: int) -> int:
        s = self._search
        if (s._settled is not None and 0 <= v < s._n and v != s.source
                and s._settled[v] and s._pred[v] >= 0):
            return int(s._pred[v])
        raise KeyError(v)

    def get(self, v: int, default=None):
        try:
            return self[v]
        except KeyError:
            return default

    def __iter__(self) -> Iterator[int]:
        s = self._search
        return (v for v in s.settled_order if v != s.source)

    def __len__(self) -> int:
        return sum(1 for _ in iter(self))


class VecDijkstraSearch:
    """Resumable bucketed SSSP over numpy views of the CSR arrays.

    Same staged-run API as the dict/flat engines (``run_until_settled``
    / ``run_until_beyond`` / ``run_to_exhaustion`` / ``settle_next``,
    live ``dist``/``pred`` views, shared ``counters``, cooperative
    ``deadline``), with the result-equivalence contract described in
    the module docstring.  Scratch arrays are owned per search (no
    arena pool); :meth:`release` drops them and the views read empty.
    """

    __slots__ = ("csr", "source", "settled_order", "expanded", "counters",
                 "dist", "pred", "_np", "_n", "_indptr", "_targets",
                 "_weights", "_delta", "_dist", "_pred", "_settled",
                 "_allowed", "_deadline",
                 "_pops", "_pushes", "_relaxed", "_pruned", "_settles")

    def __init__(self, network: Union[RoadNetwork, CSRGraph], source: int,
                 allowed: Optional[Set[int]] = None,
                 counters: Optional[SearchCounters] = None,
                 deadline: Optional[Deadline] = None) -> None:
        if allowed is not None and source not in allowed:
            raise ValueError(f"source {source} not in the allowed set")
        np = _require_backend()
        csr = network.csr() if isinstance(network, RoadNetwork) else network
        self.csr = csr
        self._np = np
        indptr, targets, weights, delta = csr.vec_views()
        self._indptr = indptr
        self._targets = targets
        self._weights = weights
        self._delta = delta
        n = csr.num_vertices
        self._n = n
        self._dist = np.full(n, math.inf)
        self._pred = np.full(n, -1, dtype=np.int64)
        self._settled = np.zeros(n, dtype=bool)
        if allowed is None:
            self._allowed = None
        else:
            mask = np.zeros(n, dtype=bool)
            inside = [v for v in allowed if 0 <= v < n]
            if inside:
                mask[np.asarray(inside, dtype=np.int64)] = True
            self._allowed = mask
        self._deadline = deadline
        self.source = source
        self._dist[source] = 0.0
        self.settled_order: List[int] = []
        self.expanded = 0  # vertices settled; the VII-C efficiency metric
        self.counters = NULL_COUNTERS if counters is None else counters
        self.counters.heap_pushes += 1  # the source seed (engine parity)
        self._pops = self._pushes = self._relaxed = 0
        self._pruned = self._settles = 0
        self.dist = _VecDistView(self)
        self.pred = _VecPredView(self)

    # ------------------------------------------------------------------
    # Wave primitives
    # ------------------------------------------------------------------

    def _relax(self, src, bound: float):
        """Relax every out-arc of ``src``; return the vertices whose
        tentative label improved to a value <= ``bound`` (the next
        fixpoint frontier)."""
        np = self._np
        starts = self._indptr[src]
        counts = self._indptr[src + 1] - starts
        total = int(counts.sum())
        self._relaxed += total
        if total == 0:
            return src[:0]
        k = _expand_ranges(np, starts, counts, total)
        nb = self._targets[k]
        cand = np.repeat(self._dist[src], counts) + self._weights[k]
        keep = ~self._settled[nb]
        if self._allowed is not None:
            ok = self._allowed[nb]
            self._pruned += int(np.count_nonzero(keep & ~ok))
            keep &= ok
        nb = nb[keep]
        cand = cand[keep]
        if nb.size == 0:
            return nb
        # Grouped scatter-min: one reduceat per distinct head vertex.
        order = np.argsort(nb, kind="stable")
        nb_s = nb[order]
        first = np.empty(nb_s.size, dtype=bool)
        first[0] = True
        first[1:] = nb_s[1:] != nb_s[:-1]
        first = np.flatnonzero(first)
        uniq = nb_s[first]
        best = np.minimum.reduceat(cand[order], first)
        improve = best < self._dist[uniq]
        upd = uniq[improve]
        self._dist[upd] = best[improve]
        self._pushes += int(upd.size)
        return upd[self._dist[upd] <= bound]

    def _next_bucket(self, cap: float):
        """Fixpoint-relax the next bucket without settling it.

        Returns ``(T, bucket_ids)`` where ``T = min(lo + delta, cap)``
        and every vertex in the bucket (unsettled, ``dist <= T``) holds
        its exact final distance -- or None when the frontier is empty
        or entirely beyond ``cap``.
        """
        np = self._np
        if self._deadline is not None:
            self._deadline.check()
        masked = np.where(self._settled, math.inf, self._dist)
        lo = float(masked.min()) if self._n else math.inf
        if lo == math.inf or lo > cap:
            return None
        T = lo + self._delta
        if T > cap:
            T = cap
        frontier = np.flatnonzero((masked <= T))
        while frontier.size:
            frontier = self._relax(frontier, T)
        bucket = np.flatnonzero(~self._settled & (self._dist <= T))
        return T, bucket

    def _settle(self, bucket) -> int:
        """Settle ``bucket`` (ids with exact final distances): mark
        settled, assign canonical predecessors, extend the settle order
        sorted by ``(dist, id)`` -- the order the heap engines settle
        equal-batch vertices in."""
        np = self._np
        if bucket.size == 0:
            return 0
        b = bucket[np.lexsort((bucket, self._dist[bucket]))]
        self._settled[b] = True
        self._assign_preds(b)
        self.settled_order.extend(b.tolist())
        self._settles += int(b.size)
        self._pops += int(b.size)
        return int(b.size)

    def _assign_preds(self, b) -> None:
        """Canonical predecessors for newly settled ``b``: per vertex
        ``v``, the ``(dist[u], u)``-argmin over settled neighbours with
        ``dist[u] + w(u, v) == dist[v]`` exactly -- which is the dict
        engine's final ``pred[v]`` (see module docstring).  The
        adjacency is symmetric, so the out-arcs of ``v`` enumerate its
        in-arcs with the same weights."""
        np = self._np
        starts = self._indptr[b]
        counts = self._indptr[b + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return
        offsets = (np.cumsum(counts) - counts)
        k = _expand_ranges(np, starts, counts, total)
        nb = self._targets[k]
        w = self._weights[k]
        dv = np.repeat(self._dist[b], counts)
        dn = self._dist[nb]
        valid = self._settled[nb] & (dn + w == dv)
        key1 = np.where(valid, dn, math.inf)
        m1 = _segment_min(np, key1, offsets, counts, math.inf)
        tie = valid & (dn == np.repeat(m1, counts))
        key2 = np.where(tie, nb, self._n)
        m2 = _segment_min(np, key2, offsets, counts, self._n)
        has = np.isfinite(m1)
        self._pred[b[has]] = m2[has]

    def _flush(self) -> None:
        """Move the accumulated bucket-level tallies into the shared
        counters (documented as not comparable with heap totals)."""
        c = self.counters
        c.heap_pops += self._pops
        c.heap_pushes += self._pushes
        c.edges_relaxed += self._relaxed
        c.vertices_settled += self._settles
        c.expansions_pruned += self._pruned
        self.expanded += self._settles
        self._pops = self._pushes = self._relaxed = 0
        self._pruned = self._settles = 0

    # ------------------------------------------------------------------
    # Stepping (API parity with the heap engines)
    # ------------------------------------------------------------------

    def tentative(self, v: int) -> Optional[float]:
        """Best label known for ``v`` -- settled, tentative, or None."""
        if self._dist is not None:
            d = self._dist[v]
            if d != math.inf:
                return float(d)
        return None

    def next_key(self) -> Optional[float]:
        """The distance at which the next vertex settles, or None.

        The global minimum unsettled tentative label is final (the
        Dijkstra invariant holds wave or no wave), so this is exact.
        """
        np = self._np
        masked = np.where(self._settled, math.inf, self._dist)
        lo = float(masked.min()) if self._n else math.inf
        return None if lo == math.inf else lo

    def is_exhausted(self) -> bool:
        return self.next_key() is None

    def settle_next(self) -> Optional[Tuple[int, float]]:
        """Settle and return the single nearest unsettled vertex.

        Provided for API parity; interleaving it with the bulk runs is
        sound (the minimum unsettled label is always final), but note
        the bulk runs settle whole buckets, so the combined settle
        order is not the heap engines' order.
        """
        np = self._np
        try:
            masked = np.where(self._settled, math.inf, self._dist)
            lo = float(masked.min()) if self._n else math.inf
            if lo == math.inf:
                return None
            v = int(np.flatnonzero(masked == lo)[0])
            one = np.asarray([v], dtype=np.int64)
            self._relax(one, -math.inf)
            self._settle(one)
            return v, lo
        finally:
            self._flush()

    # ------------------------------------------------------------------
    # Staged runs (bulk wave loops)
    # ------------------------------------------------------------------

    def run_until_settled(self, targets: Iterable[int]) -> bool:
        """Settle vertices until every target is settled; False when
        the (reachable, allowed) graph exhausts first.

        On success the settled set is exactly the closure
        ``{v : dist(v) <= max target distance}`` -- a superset of what
        a heap engine settles (which stops mid-tie at the last target),
        but identical on every read the DPS algorithms perform.
        """
        np = self._np
        t_list = [t for t in targets if 0 <= t < self._n]
        if not t_list:
            return True
        t_arr = np.asarray(sorted(set(t_list)), dtype=np.int64)
        try:
            while True:
                rem = t_arr[~self._settled[t_arr]]
                if rem.size == 0:
                    return True
                nxt = self._next_bucket(math.inf)
                if nxt is None:
                    return False  # unreachable targets stay unsettled
                T, bucket = nxt
                rem_dist = self._dist[rem]
                if bool((rem_dist <= T).all()):
                    # Final wave: trim the bucket at the farthest
                    # target so the closure property holds exactly.
                    d_star = float(rem_dist.max())
                    self._settle(bucket[self._dist[bucket] <= d_star])
                    return True
                self._settle(bucket)
        finally:
            self._flush()

    def run_until_beyond(self, radius: float) -> None:
        """Settle every vertex with distance <= ``radius``; the first
        vertex beyond it stays unsettled (Theorem 1's cut-off)."""
        try:
            while True:
                nxt = self._next_bucket(radius)
                if nxt is None:
                    return
                self._settle(nxt[1])
        finally:
            self._flush()

    def run_to_exhaustion(self) -> None:
        """Settle every reachable allowed vertex."""
        self.run_until_beyond(math.inf)

    # ------------------------------------------------------------------
    # Results / lifecycle
    # ------------------------------------------------------------------

    def tree(self) -> ShortestPathTree:
        """Return the current state as a :class:`ShortestPathTree`; the
        tree's ``dist``/``pred`` are live views over this search."""
        return ShortestPathTree(self.source, self.dist, self.pred,
                                exhausted=self.is_exhausted(),
                                settled_order=self.settled_order)

    def release(self) -> None:
        """Drop the scratch arrays; the views read empty afterwards.
        (No arena pool -- the arrays are per-search.)  Releasing twice
        is a no-op."""
        self._dist = None
        self._pred = None
        self._settled = None
        self._allowed = None


# ----------------------------------------------------------------------
# Dual-search / point-to-point wrappers
# ----------------------------------------------------------------------


def vec_bridge_domains(network: RoadNetwork, u: int, v: int,
                       targets: Iterable[int],
                       counters: Optional[SearchCounters] = None,
                       deadline: Optional[Deadline] = None):
    """Bridge-domain computation on the bucketed engine.

    Two independent wave searches stand in for the dual-heap
    alternation: the alternation only schedules *when* each side
    settles, never what it settles (each side stops at its own target
    closure), so the distances -- and with them the ``UD*``/``VD*``
    classification, evaluated vectorized with the dict loop's
    first-match-wins (``elif``) rule -- are identical.
    """
    from repro.shortestpath.bidirectional import BridgeDomains

    np = _require_backend()
    bridge_weight = network.edge_weight(u, v)
    target_list = sorted(set(targets))
    # One shared counter set: the two directions report as one search.
    search_u = VecDijkstraSearch(network, u, counters=counters,
                                 deadline=deadline)
    search_v = VecDijkstraSearch(network, v, counters=counters,
                                 deadline=deadline)
    search_u.run_until_settled(target_list)
    search_v.run_until_settled(target_list)
    ud_star: Set[int] = set()
    vd_star: Set[int] = set()
    if target_list:
        t = np.asarray(target_list, dtype=np.int64)
        both = search_u._settled[t] & search_v._settled[t]
        du = search_u._dist[t]
        dv = search_v._dist[t]
        in_ud = both & _in_domain_arr(np, du, dv + bridge_weight)
        in_vd = (both & _in_domain_arr(np, dv, du + bridge_weight)
                 & ~in_ud)
        ud_star = set(map(int, t[in_ud]))
        vd_star = set(map(int, t[in_vd]))
    return BridgeDomains(u, v, ud_star, vd_star, search_u, search_v)


def vec_bidirectional_ppsp(network: RoadNetwork, source: int, target: int,
                           allowed: Optional[Set[int]] = None,
                           counters: Optional[SearchCounters] = None,
                           deadline: Optional[Deadline] = None,
                           ) -> Tuple[float, List[int]]:
    """Point-to-point query on the bucketed engine.

    A single forward wave search (no bidirectional meeting rule -- the
    bucket engine has no per-pop frontier keys to compare).  The
    distance agrees with the bidirectional engines up to one path's
    accumulated float rounding (they sum two half-paths at the meeting
    vertex; this sums the forward path once), and the returned path is
    the canonical forward shortest path, which may differ from the
    meeting-point stitch when shortest paths tie.  Documented rather
    than reconciled: this entry point serves the Section VII-C
    comparisons, never DPS output.
    """
    if source == target:
        return 0.0, [source]
    if allowed is not None and target not in allowed:
        raise ValueError(f"source {target} not in the allowed set")
    search = VecDijkstraSearch(network, source, allowed=allowed,
                               counters=counters, deadline=deadline)
    try:
        if not search.run_until_settled([target]):
            raise ValueError(f"no path from {source} to {target}")
        return search.dist[target], reconstruct_path(search.pred,
                                                     source, target)
    finally:
        search.release()


# ----------------------------------------------------------------------
# Batched PLL construction (build-side kernel)
# ----------------------------------------------------------------------


class VecHubLabeler:
    """Batched partial-PLL builder: each hub's pruned Dijkstra as one
    bucketed frontier sweep.

    The scalar builder (:meth:`~repro.shortestpath.hub_labels.
    HubLabelIndex.add_hub`) prunes a vertex ``u`` at settle time when
    some earlier hub ``h`` certifies ``d(hub,h) + d(h,u) <= d(hub,u)``.
    Every label that test consults was committed by a *previous* sweep,
    so for one sweep the prune threshold is a static per-vertex array

        ``cover[u] = min over h in L(hub) of (L(hub)[h] + L(u)[h])``

    evaluated in bulk before the sweep: for each rank in the hub's own
    label, gather that rank's committed ``(vertices, distances)``
    arrays, add the hub-side distance, and scatter-min into the dense
    ``cover`` vector (a rank labels each vertex at most once, so the
    scatter needs no grouping).  The sweep itself is the wave loop of
    :class:`VecDijkstraSearch` -- whole min-distance frontier per step,
    grouped ``np.minimum.reduceat`` scatter-min relaxation over the
    concatenated CSR -- with one extra rule: a vertex relaxes only
    while ``cover[u] > dist[u]`` (the exact complement of the scalar
    ``<=`` prune).  A vertex held back at a stale tentative label
    re-enters the fixpoint whenever its label improves, so the sweep
    settles exactly the scalar search's visited set with bit-identical
    float64 distances (same IEEE adds; a minimum is order-independent),
    and the labelled set is ``settled & (cover > dist)`` -- the same
    prune decisions, hub by hub.

    :meth:`label_arrays` then serialises the committed labels in the
    canonical per-vertex order (hubs in processing order -- exactly the
    insertion order of the scalar builder's dicts), so a
    :class:`~repro.shortestpath.oracle.HubOracle` built from these
    arrays is **byte-identical** to one built scalar, in both the JSON
    and binary index forms (pinned by the property tests and the
    index-roundtrip CI job).

    ``hubs`` fixes the full processing order up front -- the builder
    must know which labelled vertices are future hubs to maintain their
    labels for the cover computation; :meth:`add_hub` is then called
    once per hub, in that order (the per-region grouping of
    :meth:`HubOracle.build` only inserts trace spans between calls).
    """

    def __init__(self, network: Union[RoadNetwork, CSRGraph],
                 hubs: Sequence[int]) -> None:
        np = _require_backend()
        csr = network.csr() if isinstance(network, RoadNetwork) else network
        self._np = np
        indptr, targets, weights, delta = csr.vec_views()
        self._indptr = indptr
        self._targets = targets
        self._weights = weights
        self._delta = delta
        n = csr.num_vertices
        self._n = n
        planned = [int(h) for h in hubs]
        if len(set(planned)) != len(planned):
            raise ValueError("hubs must be distinct")
        for h in planned:
            if not 0 <= h < n:
                raise ValueError(f"hub {h} out of range 0..{n - 1}")
        self._planned = planned
        hub_mask = np.zeros(n, dtype=bool)
        if planned:
            hub_mask[np.asarray(planned, dtype=np.int64)] = True
        self._hub_mask = hub_mask
        #: committed labels, rank-major: the vertices (ascending id)
        #: and distances labelled by each processed hub.
        self._rank_verts: List[object] = []
        self._rank_dists: List[object] = []
        #: labels of the *planned hubs* only, as (rank, dist) pairs --
        #: all the cover computation ever reads.
        self._hub_label: Dict[int, List[Tuple[int, float]]] = {
            h: [] for h in planned}
        # Sweep scratch, reused across hubs.
        self._cover = np.full(n, math.inf)
        self._dist = np.full(n, math.inf)
        self._settled = np.zeros(n, dtype=bool)

    @property
    def planned(self) -> Tuple[int, ...]:
        """The full hub processing order fixed at construction."""
        return tuple(self._planned)

    def add_hub(self, hub: int) -> int:
        """Run one bucketed pruned sweep and commit its labels; returns
        the number of vertices labelled.  Must follow the planned
        order."""
        np = self._np
        rank = len(self._rank_verts)
        if rank >= len(self._planned) or self._planned[rank] != hub:
            raise ValueError(
                f"hub {hub} out of order: sweep {rank} expects"
                f" {self._planned[rank] if rank < len(self._planned) else None}")
        # --- bulk prune threshold over the committed label arrays -----
        cover = self._cover
        cover.fill(math.inf)
        for r, d_hub in self._hub_label[hub]:
            rv = self._rank_verts[r]
            cover[rv] = np.minimum(cover[rv], self._rank_dists[r] + d_hub)
        # --- bucketed pruned sweep ------------------------------------
        dist = self._dist
        dist.fill(math.inf)
        dist[hub] = 0.0
        settled = self._settled
        settled.fill(False)
        indptr = self._indptr
        while True:
            masked = np.where(settled, math.inf, dist)
            lo = float(masked.min()) if self._n else math.inf
            if lo == math.inf:
                break
            bound = lo + self._delta
            frontier = np.flatnonzero(masked <= bound)
            while frontier.size:
                # The prune rule: only uncovered vertices expand.
                frontier = frontier[cover[frontier] > dist[frontier]]
                if not frontier.size:
                    break
                starts = indptr[frontier]
                counts = indptr[frontier + 1] - starts
                total = int(counts.sum())
                if total == 0:
                    break
                arc = _expand_ranges(np, starts, counts, total)
                nb = self._targets[arc]
                cand = np.repeat(dist[frontier], counts) + self._weights[arc]
                keep = ~settled[nb]
                nb = nb[keep]
                cand = cand[keep]
                if nb.size == 0:
                    break
                order = np.argsort(nb, kind="stable")
                nb_s = nb[order]
                first = np.empty(nb_s.size, dtype=bool)
                first[0] = True
                first[1:] = nb_s[1:] != nb_s[:-1]
                first = np.flatnonzero(first)
                uniq = nb_s[first]
                best = np.minimum.reduceat(cand[order], first)
                improve = best < dist[uniq]
                upd = uniq[improve]
                dist[upd] = best[improve]
                frontier = upd[dist[upd] <= bound]
            settled |= dist <= bound
        # --- commit this sweep's labels -------------------------------
        labelled = np.flatnonzero(settled & (cover > dist))
        self._rank_verts.append(labelled)
        self._rank_dists.append(dist[labelled].copy())
        for v in labelled[self._hub_mask[labelled]].tolist():
            self._hub_label[v].append((rank, float(dist[v])))
        return int(labelled.size)

    def total_label_entries(self) -> int:
        return sum(int(rv.size) for rv in self._rank_verts)

    def label_arrays(self) -> Tuple[array, array, array]:
        """The committed labels as canonical flat typed arrays
        ``(offsets, label_hubs, label_dists)`` (typecodes ``'I'``,
        ``'I'``, ``'d'``) -- per-vertex segments ordered by hub
        processing rank, exactly the scalar builder's dict insertion
        order.  No per-entry Python object is made on the way."""
        np = self._np
        if len(self._rank_verts) != len(self._planned):
            raise ValueError(
                f"only {len(self._rank_verts)} of {len(self._planned)}"
                " planned hubs were added")
        if self.total_label_entries() == 0:
            return array("I", [0]) * (self._n + 1), array("I"), array("d")
        all_v = np.concatenate(self._rank_verts)
        all_r = np.concatenate(
            [np.full(rv.size, r, dtype=np.int64)
             for r, rv in enumerate(self._rank_verts)])
        all_d = np.concatenate(self._rank_dists)
        # Stable sort by vertex turns the rank-major concatenation into
        # vertex-major segments with ranks ascending inside each.
        order = np.argsort(all_v, kind="stable")
        counts = np.bincount(all_v, minlength=self._n)
        offsets = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        hub_ids = np.asarray(self._planned, dtype=np.int64)
        return (_typed_array(np, offsets, "I"),
                _typed_array(np, hub_ids[all_r[order]], "I"),
                _typed_array(np, all_d[order], "d"))


def _typed_array(np, values, code: str) -> array:
    """Copy a numpy array into an :class:`array.array` of ``code`` (the
    dtype numpy names by the same C type), through the raw buffer."""
    out = array(code)
    out.frombytes(np.ascontiguousarray(values, dtype=np.dtype(code))
                  .view(np.uint8))
    return out


def vec_pruned_labeling(network: Union[RoadNetwork, CSRGraph],
                        hubs: Sequence[int],
                        ) -> Tuple[array, array, array]:
    """Run the batched PLL build over ``hubs`` (in order) and return
    the canonical flat label arrays ``(offsets, label_hubs,
    label_dists)`` -- entry-for-entry identical to the scalar
    :func:`~repro.shortestpath.hub_labels.pruned_labeling` over the
    same ``hubs`` (see :class:`VecHubLabeler`)."""
    labeler = VecHubLabeler(network, hubs)
    for hub in labeler.planned:
        labeler.add_hub(hub)
    return labeler.label_arrays()


# ----------------------------------------------------------------------
# Vectorized hub-label scratch
# ----------------------------------------------------------------------


class VecHubScratch(OracleScratch):
    """Batched min-plus label sweeps for one query.

    The target labels are flattened once into arrays grouped by target
    (``seg_offsets``/``seg_counts`` into ``entry_rank``/``entry_dist``,
    hub ids compacted to ranks); each endpoint then costs one dense
    scatter of its own label plus one vectorized add and segment-min,
    instead of ``_HubScratch``'s per-entry dict probes.  For a binary
    (v2) index the flat label arrays gather zero-copy out of the mmap.

    The per-target minimum ranges over exactly ``_HubScratch``'s
    candidate multiset, so the distance maps -- and every
    ``bridge_valid``/``domains`` decision, evaluated with the same
    :func:`math.isclose` formula -- are bit-identical (pinned by the
    oracle property tests).
    """

    def __init__(self, oracle, targets: Sequence[int]) -> None:
        self._oracle = oracle
        self._targets = list(targets)
        self._arrays = None
        self._endpoint_memo: Dict[int, object] = {}

    def _ensure_arrays(self):
        if self._arrays is None:
            np = _require_backend()
            oracle = self._oracle
            hub_order = oracle.hub_order
            n = oracle.num_vertices()
            rank = np.full(n, -1, dtype=np.int64)
            if hub_order:
                rank[np.asarray(hub_order, dtype=np.int64)] = \
                    np.arange(len(hub_order), dtype=np.int64)
            if not self._targets:
                counts = np.zeros(0, dtype=np.int64)
                entry_hub = np.zeros(0, dtype=np.int64)
                entry_dist = np.zeros(0, dtype=np.float64)
            else:
                # Flat label arrays (typed arrays or zero-copy views over
                # the mmapped v2 binary): pure array gather.
                offs = np.asarray(oracle._offsets).astype(np.int64,
                                                          copy=False)
                hubs_all = np.asarray(oracle._label_hubs)
                dists_all = np.asarray(oracle._label_dists)
                t_arr = np.asarray(self._targets, dtype=np.int64)
                starts = offs[t_arr]
                counts = offs[t_arr + 1] - starts
                total = int(counts.sum())
                k = _expand_ranges(np, starts, counts, total)
                entry_hub = hubs_all[k].astype(np.int64, copy=False)
                entry_dist = dists_all[k].astype(np.float64, copy=False)
            offsets = np.cumsum(counts) - counts
            entry_rank = rank[entry_hub] if entry_hub.size else entry_hub
            self._arrays = (np, rank, len(hub_order), entry_rank,
                            entry_dist, offsets, counts)
        return self._arrays

    def _endpoint_vec(self, e: int):
        got = self._endpoint_memo.get(e)
        if got is None:
            np, rank, H, entry_rank, entry_dist, offsets, counts = \
                self._ensure_arrays()
            if counts.size == 0 or H == 0:
                got = np.full(len(self._targets), math.inf)
            else:
                dense = np.full(H, math.inf)
                for h, a in self._oracle.label_items(e):
                    dense[rank[h]] = a
                cand = entry_dist + dense[entry_rank]
                got = _segment_min(np, cand, offsets, counts, math.inf)
            self._endpoint_memo[e] = got
        return got

    def domain_maps(self, u: int, v: int,
                    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        du = self._endpoint_vec(u)
        dv = self._endpoint_vec(v)
        du_map = {x: float(d) for x, d in zip(self._targets, du)
                  if d != math.inf}
        dv_map = {x: float(d) for x, d in zip(self._targets, dv)
                  if d != math.inf}
        return du_map, dv_map

    def bridge_valid(self, u: int, v: int, weight: float) -> bool:
        np = self._arrays[0] if self._arrays else _require_backend()
        du = self._endpoint_vec(u)
        dv = self._endpoint_vec(v)
        with np.errstate(invalid="ignore"):
            both = np.isfinite(du) & np.isfinite(dv)
            if not both.any():
                return False
            has_ud = bool((both & _in_domain_arr(np, du, dv + weight)).any())
            if not has_ud:
                return False
            return bool((both & _in_domain_arr(np, dv, du + weight)).any())

    def domains(self, u: int, v: int, weight: float,
                ) -> Tuple[Set[int], Set[int]]:
        np = self._arrays[0] if self._arrays else _require_backend()
        du = self._endpoint_vec(u)
        dv = self._endpoint_vec(v)
        with np.errstate(invalid="ignore"):
            both = np.isfinite(du) & np.isfinite(dv)
            ud_mask = both & _in_domain_arr(np, du, dv + weight)
            vd_mask = both & _in_domain_arr(np, dv, du + weight)
        targets = self._targets
        ud = {targets[i] for i in map(int, np.flatnonzero(ud_mask))}
        vd = {targets[i] for i in map(int, np.flatnonzero(vd_mask))}
        return ud, vd
