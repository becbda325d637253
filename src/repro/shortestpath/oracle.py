"""Distance oracles for the bridge-domain workload.

RoadPart's dominant query phase is ``bridge-domains``: for every
examined bridge ``(u, v)`` a dual-heap Dijkstra settles the network
until each query vertex ``x`` is reached from both endpoints, just to
test the domain memberships ``dist(x,u) = dist(x,v) + |vu|`` (and the
symmetric one).  That is a pure point-to-point distance workload over
pairs ``(x, bridge endpoint)`` -- exactly what a precomputed distance
oracle answers without touching the graph.  This module wires the two
index families that were already in the tree -- 2-hop hub labels
(:mod:`repro.shortestpath.hub_labels`) and contraction hierarchies
(:mod:`repro.shortestpath.ch`) -- into one facade the RoadPart index
builds offline and the query processor consults online.

Two oracle kinds:

``hub``
    Pruned landmark labelling restricted to the **bridge endpoints** as
    hubs.  PLL's correctness invariant -- the label distance of a pair
    is exact whenever some processed hub lies on a shortest path
    between them -- makes this partial build exact for every pair
    ``(x, e)`` with ``e`` a bridge endpoint (``e`` is a hub and lies on
    its own shortest paths), i.e. for the *entire* bridge-domain
    workload, at ``O(|endpoints|)`` pruned sweeps instead of a full
    ``O(|V|)``-hub PLL.  Hubs are processed grouped by index region
    (region id order, by descending degree inside a region), which
    keeps the construction a per-region phase with per-region trace
    spans; any hub order is correct, so the grouping is free.

``ch``
    A full contraction hierarchy: exact for **all** pairs, but the
    contraction itself is the classically expensive step, so it is
    never chosen automatically -- it is the opt-in for workloads that
    also need non-endpoint pairs or tiny label storage.

``resolve_oracle_kind`` implements the build-time size/speed tradeoff
behind ``oracle="auto"``: hub labels when the network has bridges
(cheap build, exact for the workload), no oracle otherwise.

Query-time entry point: :meth:`DistanceOracle.scratch` returns a
per-query helper that caches the target-label inversion (hub) or the
upward sweeps (ch) across all bridges of one query, then
:meth:`OracleScratch.bridge_valid` answers the Theorem 5 validity test
for one bridge.  Membership uses the same
:func:`~repro.shortestpath.bidirectional._in_domain` tolerance as the
dual-heap engines, so oracle decisions coincide with theirs.

The oracle answers *distances only*; anything needing actual shortest
paths (the pred-tree patching of valid bridges) falls back to the
fused flat kernel -- which is what keeps DPS outputs byte-identical
with and without an oracle.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import IndexFormatError
from repro.graph.network import RoadNetwork
from repro.obs.trace import TraceRecorder, resolve_trace
from repro.shortestpath.bidirectional import _in_domain
from repro.shortestpath.ch import ContractionHierarchy
from repro.shortestpath.hub_labels import HubLabelIndex

#: Concrete oracle kinds an index can carry.
ORACLE_KINDS = ("hub", "ch")

#: Build/query policies: the kinds plus ``none`` (no oracle) and
#: ``auto`` (resolved by :func:`resolve_oracle_kind`).
ORACLE_POLICIES = ("auto", "none") + ORACLE_KINDS


def resolve_oracle_kind(kind: str, bridges: Iterable) -> str:
    """Resolve an oracle policy to a concrete kind (``none`` allowed).

    ``auto`` is the build-time size/speed tradeoff: hub labels over the
    bridge endpoints when the network has bridges (a handful of pruned
    sweeps, exact for the whole bridge-domain workload), nothing when
    it has none (an oracle could never be consulted).  ``ch`` is never
    picked automatically -- contracting the full network is the
    expensive step CH is famous for.

    Any iterable is accepted: sized containers are probed with
    ``len()`` and never consumed; only a non-sized iterable (a
    generator, say) is drained by the emptiness probe, so callers that
    need the bridges afterwards must materialise first -- as
    :func:`build_oracle` does.
    """
    if kind not in ORACLE_POLICIES:
        raise ValueError(
            f"unknown oracle kind {kind!r}; choose from {ORACLE_POLICIES}")
    if kind == "auto":
        if hasattr(bridges, "__len__"):
            return "hub" if len(bridges) else "none"
        return "hub" if any(True for _ in bridges) else "none"
    return kind


class OracleScratch:
    """Per-query oracle state, shared across all bridges of one query.

    Subclasses cache whatever makes per-bridge answers cheap: the
    hub-bucket inversion of the target labels, or the CH upward sweeps
    of the targets (identical for every bridge of the query).
    """

    def domain_maps(self, u: int, v: int,
                    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        """Return ``({x: dist(x,u)}, {x: dist(x,v)})`` over the query
        targets; unreachable targets are absent (mirrors the dual-heap
        engines, which never settle them)."""
        raise NotImplementedError

    def bridge_valid(self, u: int, v: int, weight: float) -> bool:
        """Theorem 5 validity of bridge ``(u, v)``: are both ``UD*``
        and ``VD*`` non-empty?  Early-exits on the first member of
        each."""
        du_map, dv_map = self.domain_maps(u, v)
        has_ud = has_vd = False
        for x, du in du_map.items():
            dv = dv_map.get(x)
            if dv is None:
                continue
            if not has_ud and _in_domain(du, dv, weight):
                has_ud = True
            if not has_vd and _in_domain(dv, du, weight):
                has_vd = True
            if has_ud and has_vd:
                return True
        return False

    def domains(self, u: int, v: int, weight: float,
                ) -> Tuple[Set[int], Set[int]]:
        """Full ``(UD*, VD*)`` membership sets -- the oracle-side
        equivalent of :func:`~repro.shortestpath.bidirectional.
        bridge_domains` restricted to distances (no pred trees)."""
        du_map, dv_map = self.domain_maps(u, v)
        ud: Set[int] = set()
        vd: Set[int] = set()
        for x, du in du_map.items():
            dv = dv_map.get(x)
            if dv is None:
                continue
            if _in_domain(du, dv, weight):
                ud.add(x)
            if _in_domain(dv, du, weight):
                vd.add(x)
        return ud, vd


class DistanceOracle:
    """Interface both oracle kinds implement."""

    kind: str = "none"
    #: The construction kernel that built this oracle: ``"scalar"``, or
    #: ``"vectorized"`` for the batched hub-label builder.
    builder: str = "scalar"

    def covers(self, u: int, v: int) -> bool:
        """True when the oracle answers ``(x, u)`` / ``(x, v)`` pairs
        exactly for arbitrary ``x``."""
        raise NotImplementedError

    def scratch(self, targets: Sequence[int]) -> OracleScratch:
        """Per-query helper over a fixed target set."""
        raise NotImplementedError

    def entry_count(self) -> int:
        """Stored label/edge entries -- the size driver."""
        raise NotImplementedError

    def oracle_bytes(self) -> int:
        """Estimated serialised footprint."""
        raise NotImplementedError

    def describe(self) -> str:
        """One human line for ``repro index info`` and build logs."""
        raise NotImplementedError

    def to_payload(self) -> Dict[str, object]:
        """Flat-array form for the binary/JSON serialisers."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Hub-label oracle
# ----------------------------------------------------------------------


class _HubScratch(OracleScratch):
    """Bucket-inverted hub-label lookups for one query.

    Intersecting ``L(x)`` with ``L(e)`` per pair costs
    ``O(min(|L(x)|, |L(e)|))`` dict probes -- cheap, but paid
    ``|bridges| * |targets|`` times.  Inverting the *target* labels
    once per query (hub → ``[(x, dist(hub, x))]``) turns each endpoint
    into one min-plus pass over its own small label, amortising the
    target side across every bridge of the query.
    """

    def __init__(self, oracle: "HubOracle", targets: Sequence[int]) -> None:
        self._oracle = oracle
        self._targets = list(targets)
        self._bucket: Optional[Dict[int, List[Tuple[int, float]]]] = None
        self._endpoint_memo: Dict[int, Dict[int, float]] = {}

    def _ensure_bucket(self) -> Dict[int, List[Tuple[int, float]]]:
        if self._bucket is None:
            bucket: Dict[int, List[Tuple[int, float]]] = {}
            label_items = self._oracle.label_items
            for x in self._targets:
                for h, d in label_items(x):
                    bucket.setdefault(h, []).append((x, d))
            self._bucket = bucket
        return self._bucket

    def _endpoint_distances(self, e: int) -> Dict[int, float]:
        got = self._endpoint_memo.get(e)
        if got is not None:
            return got
        bucket = self._ensure_bucket()
        dist: Dict[int, float] = {}
        get = dist.get
        for h, a in self._oracle.label_items(e):
            for x, dx in bucket.get(h, ()):
                c = a + dx
                known = get(x)
                if known is None or c < known:
                    dist[x] = c
        self._endpoint_memo[e] = dist
        return dist

    def domain_maps(self, u: int, v: int,
                    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        return self._endpoint_distances(u), self._endpoint_distances(v)


class HubOracle(DistanceOracle):
    """2-hop labels over the bridge endpoints (partial PLL).

    Exact for every pair with a hub endpoint -- the coverage is the hub
    set itself, which is why :meth:`covers` tests endpoint membership.
    Labels have one storage form, flat CSR-style typed arrays:
    ``offsets`` and ``label_hubs`` of u32, ``label_dists`` of f64 --
    :class:`array.array` after a build or a JSON load, zero-copy
    ``memoryview`` casts over an mmap-loaded binary index.
    """

    kind = "hub"

    def __init__(self, hub_order: Sequence[int], offsets: Sequence[int],
                 label_hubs: Sequence[int],
                 label_dists: Sequence[float]) -> None:
        self._hub_order: Tuple[int, ...] = tuple(hub_order)
        self._hub_set: FrozenSet[int] = frozenset(self._hub_order)
        self._offsets = offsets
        self._label_hubs = label_hubs
        self._label_dists = label_dists

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, network: RoadNetwork, bridges: Iterable[Tuple[int, int]],
              region_of: Optional[Sequence[int]] = None,
              trace: Optional[TraceRecorder] = None) -> "HubOracle":
        """Run the per-region construction phase.

        Hubs are the distinct bridge endpoints in :func:`hub_groups`
        order -- deterministic, so serial and fork-parallel index
        builds produce byte-identical oracles.  Each region group gets
        its own ``region-<id>`` trace span under a ``pll-scalar`` or
        ``pll-vectorized`` span naming the builder that ran, under the
        caller's ``oracle`` span; :attr:`builder` records the same.

        The builder is chosen by the array backend, not ``--engine``,
        the same way :meth:`scratch` picks its kernel: with NumPy the
        batched :class:`~repro.shortestpath.vec.VecHubLabeler`, on a
        stdlib-only install or under ``REPRO_VEC_DISABLE`` the scalar
        :class:`~repro.shortestpath.hub_labels.HubLabelIndex`.  Their
        labels -- and so the serialised index, JSON or binary -- are
        byte-identical, so the pick never changes an answer.
        """
        from repro.vec.backend import has_backend
        trace = resolve_trace(trace)
        groups = hub_groups(network, bridges, region_of)
        planned = [e for _, members in groups for e in members]
        if has_backend():
            # Lazy import: vec.py imports this module at top level.
            from repro.shortestpath.vec import VecHubLabeler
            labeler = VecHubLabeler(network, planned)
            builder, span = "vectorized", "pll-vectorized"
        else:
            labeler = HubLabelIndex(network, hubs=())
            builder, span = "scalar", "pll-scalar"
        with trace.span(span):
            for rid, members in groups:
                label = "region-all" if rid is None else f"region-{rid}"
                with trace.span(label):
                    for e in members:
                        labeler.add_hub(e)
        oracle = cls(planned, *labeler.label_arrays())
        oracle.builder = builder
        return oracle

    # -- storage -------------------------------------------------------

    def label_items(self, x: int) -> Iterable[Tuple[int, float]]:
        """The label of vertex ``x`` as ``(hub, dist)`` pairs, in hub
        processing order (the canonical serialisation order)."""
        lo = self._offsets[x]
        hi = self._offsets[x + 1]
        return zip(self._label_hubs[lo:hi], self._label_dists[lo:hi])

    def num_vertices(self) -> int:
        return len(self._offsets) - 1

    @property
    def hub_order(self) -> Tuple[int, ...]:
        return self._hub_order

    # -- oracle interface ----------------------------------------------

    def covers(self, u: int, v: int) -> bool:
        return u in self._hub_set and v in self._hub_set

    def scratch(self, targets: Sequence[int]) -> OracleScratch:
        # The vectorized scratch produces bit-identical distance maps
        # (same min over the same candidate multiset), so picking it
        # whenever the backend is up never changes an answer.
        from repro.vec.backend import has_backend
        if has_backend():
            from repro.shortestpath.vec import VecHubScratch
            return VecHubScratch(self, targets)
        return _HubScratch(self, targets)

    def entry_count(self) -> int:
        return len(self._label_hubs)

    def oracle_bytes(self) -> int:
        # 4-byte hub id + 8-byte distance per entry, 4-byte offsets.
        return 12 * self.entry_count() + 4 * (self.num_vertices() + 1)

    def describe(self) -> str:
        return (f"hub labels over {len(self._hub_order)} bridge-endpoint"
                f" hubs, {self.entry_count()} entries"
                f" (covers (x, endpoint) pairs)")

    def to_payload(self) -> Dict[str, object]:
        # The label arrays are handed over as stored: the binary writer
        # dumps each with one buffer copy, the JSON writer lists them.
        return {"kind": "hub", "hubs": list(self._hub_order),
                "offsets": self._offsets, "label_hubs": self._label_hubs,
                "label_dists": self._label_dists}


def hub_groups(network: RoadNetwork, bridges: Iterable[Tuple[int, int]],
               region_of: Optional[Sequence[int]] = None,
               ) -> List[Tuple[Optional[int], List[int]]]:
    """The hub processing plan of :meth:`HubOracle.build`.

    Hubs are the distinct bridge endpoints, grouped by region (when
    ``region_of`` is given; one ``None`` group otherwise) in region id
    order and ordered by descending degree inside each group.  Any hub
    order is correct; this one is deterministic.
    """
    endpoints = sorted({e for bridge in bridges for e in bridge})
    if region_of is None:
        groups: List[Tuple[Optional[int], List[int]]] = [(None, endpoints)]
    else:
        by_region: Dict[int, List[int]] = {}
        for e in endpoints:
            by_region.setdefault(region_of[e], []).append(e)
        groups = [(rid, by_region[rid]) for rid in sorted(by_region)]
    return [(rid, sorted(members, key=lambda v: (-network.degree(v), v)))
            for rid, members in groups]


# ----------------------------------------------------------------------
# Contraction-hierarchy oracle
# ----------------------------------------------------------------------


class _CHScratch(OracleScratch):
    """Memoised upward sweeps for one query.

    Every bridge of a query shares the same target set, so each
    target's upward cone is computed once; a bridge then costs two
    endpoint sweeps plus one cone intersection per target.
    """

    def __init__(self, oracle: "CHOracle", targets: Sequence[int]) -> None:
        self._oracle = oracle
        self._targets = list(targets)
        self._sweeps: Dict[int, Dict[int, float]] = {}

    def _sweep(self, source: int) -> Dict[int, float]:
        got = self._sweeps.get(source)
        if got is None:
            got = self._oracle.upward_sweep(source)
            self._sweeps[source] = got
        return got

    def domain_maps(self, u: int, v: int,
                    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        cone_u = self._sweep(u)
        cone_v = self._sweep(v)
        du_map: Dict[int, float] = {}
        dv_map: Dict[int, float] = {}
        for x in self._targets:
            cone_x = self._sweep(x)
            du = _cone_intersect(cone_x, cone_u)
            dv = _cone_intersect(cone_x, cone_v)
            if du < math.inf:
                du_map[x] = du
            if dv < math.inf:
                dv_map[x] = dv
        return du_map, dv_map


def _cone_intersect(a: Dict[int, float], b: Dict[int, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    best = math.inf
    for w, da in a.items():
        db = b.get(w)
        if db is not None and da + db < best:
            best = da + db
    return best


class CHOracle(DistanceOracle):
    """A serialisable contraction hierarchy (distance queries only).

    Holds the rank array and the upward search graph -- everything a
    distance query needs, with no path unpacking state -- either as
    per-vertex lists (fresh build) or as flat CSR arrays (mmap views).
    Exact for **all** vertex pairs, so :meth:`covers` is always true.
    """

    kind = "ch"

    def __init__(self, rank: Sequence[int],
                 up_lists: Optional[List[List[Tuple[int, float]]]] = None,
                 up_offsets: Optional[Sequence[int]] = None,
                 up_targets: Optional[Sequence[int]] = None,
                 up_weights: Optional[Sequence[float]] = None) -> None:
        self._rank = rank
        self._up_lists = up_lists
        self._up_offsets = up_offsets
        self._up_targets = up_targets
        self._up_weights = up_weights
        if up_lists is None and up_offsets is None:
            raise ValueError("CHOracle needs upward lists or flat arrays")

    @classmethod
    def build(cls, network: RoadNetwork,
              trace: Optional[TraceRecorder] = None) -> "CHOracle":
        """Contract the full network (the expensive, global step -- one
        ``contract`` span; CH has no sound per-region decomposition
        here because bridge-domain distances are full-network)."""
        trace = resolve_trace(trace)
        with trace.span("contract"):
            ch = ContractionHierarchy(network)
        # Canonical edge order per vertex so serial/parallel builds and
        # a save/load round-trip serialise byte-identically.
        up = [sorted(edges) for edges in ch.upward_adjacency()]
        return cls(ch.ranks(), up_lists=up)

    # -- storage -------------------------------------------------------

    def up_edges(self, u: int) -> Iterable[Tuple[int, float]]:
        if self._up_lists is not None:
            return self._up_lists[u]
        lo = self._up_offsets[u]
        hi = self._up_offsets[u + 1]
        return zip(self._up_targets[lo:hi], self._up_weights[lo:hi])

    def num_vertices(self) -> int:
        return len(self._rank)

    def upward_sweep(self, source: int) -> Dict[int, float]:
        """Exhaustive Dijkstra over the upward graph (the cone is small
        by construction)."""
        dist: Dict[int, float] = {}
        best = {source: 0.0}
        frontier: List[Tuple[float, int]] = [(0.0, source)]
        up_edges = self.up_edges
        while frontier:
            d, u = heapq.heappop(frontier)
            if u in dist:
                continue
            dist[u] = d
            for v, w in up_edges(u):
                if v in dist:
                    continue
                candidate = d + w
                known = best.get(v)
                if known is None or candidate < known:
                    best[v] = candidate
                    heapq.heappush(frontier, (candidate, v))
        return dist

    # -- oracle interface ----------------------------------------------

    def covers(self, u: int, v: int) -> bool:
        return True

    def scratch(self, targets: Sequence[int]) -> OracleScratch:
        return _CHScratch(self, targets)

    def entry_count(self) -> int:
        if self._up_lists is not None:
            return sum(len(edges) for edges in self._up_lists)
        return len(self._up_targets)

    def oracle_bytes(self) -> int:
        return (12 * self.entry_count()
                + 4 * (2 * self.num_vertices() + 1))

    def describe(self) -> str:
        return (f"contraction hierarchy, {self.entry_count()} upward"
                f" edges (covers all pairs)")

    def to_payload(self) -> Dict[str, object]:
        offsets: List[int] = [0]
        targets: List[int] = []
        weights: List[float] = []
        for u in range(self.num_vertices()):
            for v, w in self.up_edges(u):
                targets.append(v)
                weights.append(w)
            offsets.append(len(targets))
        return {"kind": "ch", "rank": list(self._rank),
                "offsets": offsets, "up_targets": targets,
                "up_weights": weights}


# ----------------------------------------------------------------------
# Construction / serialisation entry points
# ----------------------------------------------------------------------


def build_oracle(network: RoadNetwork, kind: str,
                 bridges: Iterable[Tuple[int, int]],
                 region_of: Optional[Sequence[int]] = None,
                 trace: Optional[TraceRecorder] = None,
                 ) -> Optional[DistanceOracle]:
    """Build the oracle a policy resolves to (``None`` for none).

    ``bridges`` may be any iterable, a generator included: it is
    materialised exactly once here, so the ``auto`` emptiness probe and
    the hub-endpoint collection see the same elements (a generator used
    to be drained by the probe, leaving the hub build with no
    endpoints).  The hub builder is chosen by the array backend (see
    :meth:`HubOracle.build`); the CH contraction has one builder.
    """
    bridges = list(bridges)
    resolved = resolve_oracle_kind(kind, bridges)
    if resolved == "none":
        return None
    if resolved == "hub":
        return HubOracle.build(network, bridges, region_of=region_of,
                               trace=trace)
    return CHOracle.build(network, trace=trace)


#: Binary section tag of each hub payload array, named in load errors.
_HUB_SECTIONS = {"hubs": "orhubs", "offsets": "orloff",
                 "label_hubs": "orlhub", "label_dists": "orldst"}


def _hub_section_error(path, key: str, problem: str) -> IndexFormatError:
    return IndexFormatError(
        f"{path}: oracle section {_HUB_SECTIONS[key]!r} ({key}):"
        f" {problem}")


def _typed(path, key: str, values, code: str):
    """``values`` as a typed array of ``code``: a typed array or view
    of that code passes through uncopied (mmap views stay zero-copy),
    anything else (JSON lists) is converted once."""
    if isinstance(values, array) and values.typecode == code:
        return values
    if isinstance(values, memoryview) and values.format == code:
        return values
    try:
        return array(code, values)
    except (TypeError, OverflowError) as exc:
        kind = "u32" if code == "I" else "f64"
        raise _hub_section_error(path, key,
                                 f"not {kind} values ({exc})") from exc


#: Label entries per gather in :func:`_label_arrays_sound`.
_CHECK_SLICE = 1 << 16


def _label_arrays_sound(np, n: int, hubs: Sequence[int],
                        offsets: Sequence[int], label_hubs: Sequence[int],
                        label_dists: Sequence[float]) -> bool:
    """The label-sized checks of :func:`_check_hub_labels` as NumPy
    reductions over zero-copy views: True when all of them pass."""
    offs = np.asarray(offsets)
    if (offs[1:] < offs[:-1]).any():
        return False
    lh = np.asarray(label_hubs)
    if lh.size:
        if int(lh.max()) >= n:
            return False
        is_hub = np.zeros(n, dtype=bool)
        is_hub[np.asarray(hubs, dtype=np.intp)] = True
        # Gathered in slices: ``take`` widens its indices to intp, and a
        # whole-array copy would raise a serving daemon's peak memory.
        for lo in range(0, lh.size, _CHECK_SLICE):
            if not np.take(is_hub, lh[lo:lo + _CHECK_SLICE]).all():
                return False
    ld = np.asarray(label_dists)
    return not ld.size or bool(ld.min() >= 0 and ld.max() < math.inf)


def _check_hub_labels(path, n: int, hubs: Sequence[int],
                      offsets: Sequence[int], label_hubs: Sequence[int],
                      label_dists: Sequence[float]) -> None:
    """Reject hub-label arrays no builder could have written.

    A corrupt offset, hub id or distance would otherwise surface at
    query time as an IndexError, or silently as a wrong distance (a
    label hub outside the hub order indexes the scratch's rank array
    at -1).  With the array backend up the label-sized checks run as
    NumPy reductions over the zero-copy views, and the plain-Python
    pass that locates the first defect runs only when they fail.
    """
    if len(offsets) != n + 1:
        raise _hub_section_error(
            path, "offsets", f"holds {len(offsets)} offsets, expected"
            f" num_vertices + 1 = {n + 1}")
    if offsets[0] != 0:
        raise _hub_section_error(
            path, "offsets", f"starts at {offsets[0]}, expected 0")
    if offsets[n] != len(label_hubs):
        raise _hub_section_error(
            path, "offsets", f"ends at {offsets[n]}, but there are"
            f" {len(label_hubs)} label entries")
    if len(label_dists) != len(label_hubs):
        raise _hub_section_error(
            path, "label_dists", f"holds {len(label_dists)} distances"
            f" for {len(label_hubs)} label entries")
    seen: Set[int] = set()
    for h in hubs:
        if not h < n:
            raise _hub_section_error(
                path, "hubs", f"hub id {h} out of range (num_vertices"
                f" {n})")
        if h in seen:
            raise _hub_section_error(path, "hubs",
                                     f"hub id {h} appears twice")
        seen.add(h)
    from repro.vec.backend import xp
    np = xp()
    if np is not None and _label_arrays_sound(np, n, hubs, offsets,
                                              label_hubs, label_dists):
        return
    for v in range(n):
        if offsets[v + 1] < offsets[v]:
            raise _hub_section_error(
                path, "offsets", f"decrease at vertex {v}"
                f" ({offsets[v]} -> {offsets[v + 1]})")
    for i, h in enumerate(label_hubs):
        if h not in seen:
            raise _hub_section_error(
                path, "label_hubs", f"label entry {i} names vertex {h},"
                f" which is not a hub")
    for i, d in enumerate(label_dists):
        if not 0 <= d < math.inf:
            raise _hub_section_error(
                path, "label_dists", f"label entry {i} has distance"
                f" {d!r}; distances must be finite and >= 0")


def oracle_from_payload(payload: Dict[str, object],
                        num_vertices: Optional[int] = None,
                        path: object = "oracle payload",
                        ) -> DistanceOracle:
    """Rehydrate an oracle from its flat-array payload (JSON lists or
    zero-copy binary views -- both index loaders funnel through here).

    A hub payload is validated first (see :func:`_check_hub_labels`):
    any defect raises :class:`~repro.errors.IndexFormatError` naming
    ``path`` and the section.  ``num_vertices`` defaults to the length
    the offsets imply; the loaders pass the network's.
    """
    kind = payload.get("kind")
    if kind == "hub":
        hubs = _typed(path, "hubs", payload["hubs"], "I")
        offsets = _typed(path, "offsets", payload["offsets"], "I")
        label_hubs = _typed(path, "label_hubs", payload["label_hubs"], "I")
        label_dists = _typed(path, "label_dists", payload["label_dists"],
                             "d")
        if num_vertices is None:
            num_vertices = max(len(offsets) - 1, 0)
        _check_hub_labels(path, num_vertices, hubs, offsets, label_hubs,
                          label_dists)
        return HubOracle(hubs, offsets, label_hubs, label_dists)
    if kind == "ch":
        return CHOracle(payload["rank"],
                        up_offsets=payload["offsets"],
                        up_targets=payload["up_targets"],
                        up_weights=payload["up_weights"])
    raise ValueError(f"unknown oracle payload kind {kind!r}")
