"""Seeded workload inputs.

Every generator takes the workload seed and returns plain data (vertex
lists, request bodies, due times); the program under test sees only
these.  The same seed gives the same inputs in every process: the RNGs
are seeded with strings, which Python hashes deterministically.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.dps import DPSQuery
from repro.datasets.queries import st_query, window_query
from repro.graph.network import RoadNetwork

from common import query_id

#: many-source-usa: windows per run at each Table II Q-DPS ε on USA-S.
#: One 15% window costs ~50 5% windows, so the counts give each ε a
#: similar share of the run time while keeping enough small windows for
#: a steady median.  One pass takes ~30 s on a 2-vCPU Xeon VM whose speed
#: drifts by ±20% over tens of seconds; with a pass half as long, the
#: run-to-run spread of throughput was a third wider.
MANY_SOURCE_MIX = ((0.05, 48), (0.10, 12), (0.15, 6))

#: Window centres are drawn from the middle of the map, offset from the
#: centre by at most this share of W (and H).  A window at the map edge
#: truncates the SSSP balls, which makes one seed's BL-Q several times
#: cheaper than another's; central windows keep each seed's cost alike.
CENTRE_JITTER = 0.1

#: roadpart-east: Q-DPS ε values (Table II on EAST) and the (S, T)
#: experiment's fixed ε and swept ε′.
ROADPART_Q_EPSILONS = (0.05, 0.10, 0.15, 0.20, 0.25)
ROADPART_ST_EPSILON = 0.04
ROADPART_ST_PRIMES = (0.02, 0.04, 0.06, 0.08, 0.10)


@dataclass(frozen=True)
class Query:
    """One DPS query: ``S == T`` for Q-DPS."""

    qid: str
    algorithm: str
    kind: str          #: "q" or "st"
    epsilon: float
    sources: Tuple[int, ...]
    targets: Tuple[int, ...]

    def body(self) -> bytes:
        """The daemon /query body for this query."""
        if self.kind == "q":
            payload: Dict[str, object] = {"algorithm": self.algorithm,
                                          "Q": list(self.sources)}
        else:
            payload = {"algorithm": self.algorithm,
                       "S": list(self.sources), "T": list(self.targets)}
        return json.dumps(payload, separators=(",", ":")).encode()

    def dps(self) -> DPSQuery:
        return DPSQuery.st_query(self.sources, self.targets)


def _q(algorithm: str, epsilon: float, vertices: Sequence[int]) -> Query:
    vs = tuple(vertices)
    return Query(query_id(algorithm, vs, vs), algorithm, "q", epsilon,
                 vs, vs)


def _central_window(network: RoadNetwork, rng: random.Random,
                    algorithm: str, eps: float) -> Query:
    bounds = network.bounds()
    cx = bounds.xmin + bounds.width * (
        0.5 + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER))
    cy = bounds.ymin + bounds.height * (
        0.5 + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER))
    return _q(algorithm, eps, window_query(network, eps, center=(cx, cy)))


def many_source_batch(network: RoadNetwork, seed: int) -> List[Query]:
    """One run's windows (:data:`MANY_SOURCE_MIX`), interleaved so that
    every prefix of the list holds the ε values in the same proportion."""
    rng = random.Random(f"many-source-usa:{seed}")
    slots = []
    for eps, count in MANY_SOURCE_MIX:
        for i in range(count):
            q = _central_window(network, rng, "blq+hull", eps)
            slots.append(((i + 0.5) / count, eps, q))
    slots.sort(key=lambda slot: slot[:2])
    return [q for _, _, q in slots]


def _roadpart_query(network: RoadNetwork, rng: random.Random, i: int
                    ) -> Query:
    """The ``i``-th query of the RoadPart mix: even ``i`` is Q-DPS (ε
    5-25%), odd ``i`` is (S, T)-DPS (ε 4%, ε′ 2-10%)."""
    if i % 2 == 0:
        eps = ROADPART_Q_EPSILONS[(i // 2) % len(ROADPART_Q_EPSILONS)]
        return _q("roadpart", eps,
                  window_query(network, eps, seed=rng.randrange(2**31)))
    ep = ROADPART_ST_PRIMES[(i // 2) % len(ROADPART_ST_PRIMES)]
    s, t = st_query(network, ROADPART_ST_EPSILON, ep,
                    seed=rng.randrange(2**31))
    return Query(query_id("roadpart", s, t), "roadpart", "st",
                 ROADPART_ST_EPSILON, tuple(s), tuple(t))


def roadpart_queries(network: RoadNetwork, rng: random.Random,
                     count: int) -> List[Query]:
    """``count`` distinct queries of the RoadPart mix, placed anywhere
    on the map."""
    out: List[Query] = []
    seen = set()
    i = 0
    while len(out) < count:
        q = _roadpart_query(network, rng, i)
        i += 1
        if q.qid not in seen:
            seen.add(q.qid)
            out.append(q)
    return out


def roadpart_pool(network: RoadNetwork, seed: int, count: int
                  ) -> List[Query]:
    return roadpart_queries(network, random.Random(f"roadpart-east:{seed}"),
                            count)


# -- serve-east -------------------------------------------------------

#: Popular RoadPart queries, answered once in set-up so the replay
#: starts with them cached.  Hits are then ~90% of requests and the
#: median sits well inside them, not at the edge of the slower misses;
#: with the hull and one-off keys the distinct keys of a run stay well
#: under the daemon's 256-entry cache.
SERVE_POPULAR = 16
#: Zipf exponent over the popular set.
SERVE_ZIPF_S = 1.0
#: Request mix: popular (cache hits after the first), one-off RoadPart
#: misses, twin misses (two users sending the same new query at the same
#: moment) and one-off hull requests, which hold the compute lock.
SERVE_MIX = (("popular", 0.92), ("miss", 0.04), ("twin", 0.02),
             ("hull", 0.02))
#: ε of the hull requests' Q-DPS windows.
SERVE_HULL_EPSILON = 0.10


@dataclass(frozen=True)
class Request:
    due: float         #: seconds after the schedule starts
    kind: str          #: popular / miss / twin / hull
    qid: str
    body: bytes


def apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Split ``total`` into integer counts proportional to ``weights``
    (largest remainder), so every seed gets the same mix."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)),
                          key=lambda k: (counts[k] - weights[k] * scale, k))
    for k in by_remainder[:total - sum(counts)]:
        counts[k] += 1
    return counts


def serve_schedule(network: RoadNetwork, seed: int, rate: float,
                   seconds: float) -> Tuple[List[Request], Dict[str, Query]]:
    """``rate * seconds`` arrival slots over ``seconds``, in due order.

    The due times are those of a Poisson process with that many
    arrivals (sorted uniform times).  The mix is stratified: each kind
    gets its share of the slots and each popular query its Zipf share of
    the popular slots, in seeded order, so seeds differ in which
    queries arrive when but not in how many of each.  A twin slot sends
    the same new query twice at one due time: with two connections both
    are in flight at once, so a daemon without single-flight computes
    that key twice.

    Returns the requests and ``{qid: query}`` for every distinct query,
    so answers can be checked in-process.
    """
    rng = random.Random(f"serve-east:{seed}")
    popular = roadpart_queries(network, rng, SERVE_POPULAR)
    popular_ids = {q.qid for q in popular}
    queries: Dict[str, Query] = {}

    misses = 0

    def fresh(algorithm: str) -> Query:
        """A query no earlier request asked; one-off RoadPart queries
        step through the mix in order, hull windows are central."""
        nonlocal misses
        while True:
            if algorithm == "hull":
                q = _central_window(network, rng, "hull",
                                    SERVE_HULL_EPSILON)
            else:
                q = _roadpart_query(network, rng, misses)
                misses += 1
            if q.qid not in queries and q.qid not in popular_ids:
                return q

    slots = round(rate * seconds)
    kinds: List[str] = []
    for (kind, _), count in zip(SERVE_MIX, apportion(
            slots, [share for _, share in SERVE_MIX])):
        kinds += [kind] * count
    rng.shuffle(kinds)
    picks: List[Query] = []
    for q, count in zip(popular, apportion(
            kinds.count("popular"),
            [1.0 / (k + 1) ** SERVE_ZIPF_S for k in range(len(popular))])):
        picks += [q] * count
    rng.shuffle(picks)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(slots))

    out: List[Request] = []
    for due, kind in zip(dues, kinds):
        q = (picks.pop() if kind == "popular"
             else fresh("hull" if kind == "hull" else "roadpart"))
        queries[q.qid] = q
        out += [Request(due, kind, q.qid, q.body())] * (
            2 if kind == "twin" else 1)
    return out, queries


def warmup_queries(network: RoadNetwork, avoid: Sequence[str]
                   ) -> List[Query]:
    """A few small RoadPart queries and one small hull query outside the
    measured inputs, answered during set-up so lazy state (CSR views,
    arena pool, label conversion, spatial indexes) is built before
    timing starts."""
    rng = random.Random("warm-up")
    out = [q for q in roadpart_queries(network, rng, 6)
           if q.qid not in set(avoid)][:4]
    hull = _q("hull", 0.02, window_query(network, 0.02,
                                         seed=rng.randrange(2**31)))
    return out + [hull] * (hull.qid not in set(avoid))
