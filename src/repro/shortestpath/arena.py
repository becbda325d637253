"""Generation-stamped per-vertex scratch arrays ("arenas").

Array-based search engines want ``dist``/``pred``/``settled`` indexed by
vertex id -- no hashing, no per-relaxation tuple churn -- but refilling
those arrays with ``+inf``/``-1`` before every query costs ``O(|V|)``,
which is exactly the initialisation overhead the paper's Section VII-C
experiment measures.  The production trick is *generation stamping*: each
array cell carries the generation number that last wrote it, and a query
begins by incrementing the arena's generation -- an ``O(1)`` reset that
makes every stale cell unreadable at once.

One :class:`SearchArena` is the scratch state of exactly one in-flight
search.  Engines that run sequential queries over the same graph recycle
arenas through a :class:`ArenaPool` (see :class:`repro.graph.csr.CSRGraph`),
so steady-state queries allocate nothing; engines that need two
simultaneous searches (bridge domains, bidirectional) simply acquire two.

Shared by :class:`repro.shortestpath.dense.DensePPSPEngine` and the flat
CSR kernel of :mod:`repro.shortestpath.flat`.
"""

from __future__ import annotations

import math
from typing import List


class SearchArena:
    """Per-vertex scratch arrays with O(1) generation-stamp reset.

    Two usage conventions coexist:

    - *stamped* (:mod:`repro.shortestpath.dense`): ``dist[v]``/``pred[v]``
      are only meaningful when ``touched[v] == generation``;
      ``settled[v] == generation`` marks the distance as final.
    - *all-inf invariant* (the flat kernel,
      :mod:`repro.shortestpath.flat`, and the many-source kernel,
      :mod:`repro.shortestpath.manysource`, which stamps its targets in
      ``touched``): ``touched`` plays no part in relaxation; instead
      every ``dist`` cell a search dirtied is restored to ``+inf``
      before the arena re-enters a pool, so ``candidate < dist[v]`` is
      the whole relaxation test.  Arenas start all-inf, so the invariant
      holds on first acquire too.

    ``allowed``/``allowed_generation`` stamp an optional vertex mask
    (a stamp read per vertex instead of a hash lookup per relaxation).
    """

    __slots__ = ("size", "dist", "pred", "touched", "settled", "allowed",
                 "generation", "allowed_generation")

    def __init__(self, size: int) -> None:
        self.size = size
        self.dist: List[float] = [math.inf] * size
        self.pred: List[int] = [-1] * size
        self.touched: List[int] = [0] * size
        self.settled: List[int] = [0] * size
        self.allowed: List[int] = [0] * size
        self.generation = 0
        self.allowed_generation = 0

    def new_generation(self) -> int:
        """Invalidate every dist/pred/settled cell in O(1); returns the
        fresh generation stamp."""
        self.generation += 1
        return self.generation

    def new_allowed_generation(self) -> int:
        """Invalidate the allowed-mask in O(1); returns the fresh stamp."""
        self.allowed_generation += 1
        return self.allowed_generation

    def refill(self) -> None:
        """Eagerly refill every array (the textbook ``O(|V|)`` per-query
        initialisation; the paper-faithful Section VII-C condition)."""
        n = self.size
        self.dist = [math.inf] * n
        self.pred = [-1] * n
        self.touched = [0] * n
        self.settled = [0] * n
        self.generation = 1


class ArenaPool:
    """A bounded free-list of arenas for one fixed vertex count.

    ``acquire`` pops a recycled arena (bumping its generation) or builds
    a fresh one; ``release`` returns an arena once no live search or
    result view references it.  Releasing is optional -- an arena that is
    never released is simply garbage-collected with the search holding it
    -- but recycled arenas are what make per-query setup O(1).
    """

    __slots__ = ("size", "_free", "_max_free")

    def __init__(self, size: int, max_free: int = 8) -> None:
        self.size = size
        self._free: List[SearchArena] = []
        self._max_free = max_free

    @property
    def free_count(self) -> int:
        """Number of recycled arenas currently idle in the pool (used by
        the arena-leak regression tests)."""
        return len(self._free)

    def acquire(self) -> SearchArena:
        if self._free:
            arena = self._free.pop()
        else:
            arena = SearchArena(self.size)
        arena.new_generation()
        return arena

    def release(self, arena: SearchArena) -> None:
        if arena.size != self.size:
            raise ValueError(
                f"arena of size {arena.size} returned to a pool of size"
                f" {self.size}")
        if len(self._free) < self._max_free:
            self._free.append(arena)
