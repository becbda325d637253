"""A flat CSR (compressed sparse row) view of a :class:`RoadNetwork`.

Every algorithm in the paper is a stack of Dijkstra sweeps -- BL-Q runs
``min(|S|, |T|)`` of them, the index build ``O(l^2)``, the hull method
``O(sqrt(|Q|))`` -- so the representation those sweeps scan is the
hottest data structure in the repository.  The list-of-lists adjacency of
:class:`RoadNetwork` allocates one list and one tuple per arc; the CSR
view packs the same arcs into three contiguous typed arrays:

- ``indptr``  -- ``array('l')`` of length ``n + 1``; vertex ``u``'s arcs
  occupy positions ``indptr[u] .. indptr[u+1]``;
- ``targets`` -- ``array('l')`` of arc heads;
- ``weights`` -- ``array('d')`` of arc weights.

Arc order within a vertex matches ``network.adjacency`` exactly, which is
what makes the flat kernel of :mod:`repro.shortestpath.flat` settle
vertices and assign predecessors in *the same order* as the dict engine
(the equivalence the property tests pin down to the operation counts).

The view is built once per network and cached
(:meth:`RoadNetwork.csr <repro.graph.network.RoadNetwork.csr>`), like the
R-trees; it also owns the :class:`~repro.shortestpath.arena.ArenaPool`
that recycles per-search scratch arrays across queries.  Because the
arrays are plain ``array`` objects they pickle compactly and are shared
copy-on-write by forked index-build workers.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.shortestpath.arena import ArenaPool, SearchArena

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.network import RoadNetwork


class CSRGraph:
    """Flat arc arrays of one network plus its search-arena pool.

    ``indptr``/``targets``/``weights`` are the canonical typed arrays
    (compact, picklable, fork-shareable).  ``indptr_list``/
    ``targets_list``/``weights_list`` mirror them as plain Python lists:
    a typed-array read re-boxes its element on every access, while a list
    read returns the object boxed once at build time -- measurably faster
    in the pure-Python inner loops, which is the whole point of this
    layer.  Both views describe the same arcs in the same order.
    """

    __slots__ = ("num_vertices", "num_arcs", "indptr", "targets",
                 "weights", "indptr_list", "targets_list", "weights_list",
                 "_pool", "_vec", "_goal_coords")

    def __init__(self, indptr: array, targets: array,
                 weights: array) -> None:
        self.num_vertices = len(indptr) - 1
        self.num_arcs = len(targets)
        self.indptr = indptr
        self.targets = targets
        self.weights = weights
        self.indptr_list = indptr.tolist()
        self.targets_list = targets.tolist()
        self.weights_list = weights.tolist()
        self._pool = ArenaPool(self.num_vertices)
        self._vec = None
        self._goal_coords = None

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Sequence[Tuple[int, float]]],
                       ) -> "CSRGraph":
        """Pack a list-of-lists adjacency into CSR arrays, preserving the
        per-vertex arc order."""
        indptr = array("l", [0]) * (len(adjacency) + 1)
        targets = array("l")
        weights = array("d")
        offset = 0
        for u, arcs in enumerate(adjacency):
            offset += len(arcs)
            indptr[u + 1] = offset
            for v, w in arcs:
                targets.append(v)
                weights.append(w)
        return cls(indptr, targets, weights)

    @classmethod
    def from_network(cls, network: "RoadNetwork") -> "CSRGraph":
        return cls.from_adjacency(network.adjacency)

    def degree(self, u: int) -> int:
        return self.indptr[u + 1] - self.indptr[u]

    # ------------------------------------------------------------------
    # Arena recycling (see repro.shortestpath.arena)
    # ------------------------------------------------------------------

    def acquire_arena(self) -> SearchArena:
        """Check a scratch arena out of the pool (O(1) reset included)."""
        return self._pool.acquire()

    def release_arena(self, arena: SearchArena) -> None:
        """Return an arena once no live search/result references it."""
        self._pool.release(arena)

    # ------------------------------------------------------------------
    # Array-backend views (see repro.vec.backend)
    # ------------------------------------------------------------------

    def vec_views(self):
        """``(indptr, targets, weights, delta)`` as backend arrays.

        Zero-copy ``frombuffer`` views over the typed arrays (same
        memory, same arc order), cached per CSR; ``delta`` is the mean
        arc weight -- the bucket width the vectorized engine uses.
        Raises RuntimeError without an active backend.  The cache is
        per-process scratch like the arena pool: pickled/forked copies
        rebuild it lazily.
        """
        if self._vec is None:
            from repro.vec.backend import xp
            np = xp()
            if np is None:
                raise RuntimeError("vec_views needs an array backend"
                                   " (numpy); none is active")
            indptr = np.frombuffer(self.indptr,
                                   dtype=np.dtype(self.indptr.typecode)
                                   ).astype(np.int64, copy=False)
            targets = np.frombuffer(self.targets,
                                    dtype=np.dtype(self.targets.typecode)
                                    ).astype(np.int64, copy=False)
            weights = np.frombuffer(self.weights, dtype=np.float64)
            delta = float(weights.mean()) if self.num_arcs else 1.0
            self._vec = (indptr, targets, weights, max(delta, 1e-9))
        return self._vec

    # ------------------------------------------------------------------
    # Goal direction (see repro.shortestpath.manysource)
    # ------------------------------------------------------------------

    def goal_coords(self, coords: Sequence[Sequence[float]],
                    ) -> Optional[Tuple[List[float], List[float]]]:
        """``(xs, ys)`` of ``coords`` when every arc is metric, else None.

        An arc is metric when ``w >= ‖uv‖`` and ``w > 0``: then the
        Euclidean distance to any point set, shrunk by a small margin,
        is a consistent A* potential with strictly positive reduced
        costs.  ``coords`` must be the coordinates of the network this
        CSR was built from.  Checked once per CSR (one pass over the
        arcs) and cached; pickled copies check again.
        """
        if self._goal_coords is None:
            xs = [p[0] for p in coords]
            ys = [p[1] for p in coords]
            indptr = self.indptr_list
            targets = self.targets_list
            weights = self.weights_list
            hypot = math.hypot
            metric = all(
                weights[k] > 0.0
                and weights[k] >= hypot(xs[u] - xs[targets[k]],
                                        ys[u] - ys[targets[k]])
                for u in range(self.num_vertices)
                for k in range(indptr[u], indptr[u + 1]))
            self._goal_coords = (xs, ys) if metric else False
        return self._goal_coords or None

    # ------------------------------------------------------------------

    def __getstate__(self):
        # The arena pool is per-process scratch: forked or pickled copies
        # start with an empty pool of their own.
        return (self.indptr, self.targets, self.weights)

    def __setstate__(self, state):
        self.__init__(*state)

    def __repr__(self) -> str:
        return (f"CSRGraph(|V|={self.num_vertices},"
                f" arcs={self.num_arcs})")
