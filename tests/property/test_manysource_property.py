"""The many-source kernel against the per-source reference loop.

The reference is what BL-Q and the hull ran before the kernel: one
``make_search(engine="dict")`` per source, run until every target is
settled, then the Section III-A collection.  The kernel must return
exactly the reference's vertices when ``S ≠ T`` -- goal direction and
the tie rule change the work, never the paths -- and, serving each
unordered pair once, a subset of them when ``S = T`` (equal when
shortest paths are unique).  Four network families:

- perturbed metric grids with bridges (goal-directed, tie-free);
- unit grids (goal-directed, every pair tied many ways);
- a non-metric lattice with zero and short arcs (``π ≡ 0``: plain
  Dijkstra, ties and zero-weight arcs included);
- any of them restricted to an ``allowed`` subset (a BL-E ball).
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.ble import bl_efficiency
from repro.core.dps import DPSQuery
from repro.core.verify import verify_dps
from repro.datasets.synthetic import add_bridges, grid_network
from repro.graph.network import RoadNetwork
from repro.obs.counters import SearchCounters
from repro.shortestpath.flat import make_search
from repro.shortestpath.manysource import many_source_paths
from repro.shortestpath.paths import collect_path_vertices

_cache = {}


def _network(kind: str, seed: int) -> RoadNetwork:
    key = (kind, seed)
    if key not in _cache:
        if kind == "metric":
            base = grid_network(12, 11, seed=seed, drop_rate=0.15)
            net, _ = add_bridges(base, 4, (1.8, 4.5), seed=seed + 1000)
        elif kind == "unit":
            net = grid_network(9, 8, perturbation=0.0, drop_rate=0.0,
                               detour=(1.0, 1.0), seed=seed)
        else:  # non-metric: unit lattice, arcs of length 0, 1 or 2
            rng = random.Random(seed)
            cols, rows = 9, 8
            coords = [(float(i), float(j)) for j in range(rows)
                      for i in range(cols)]
            edges = []
            for j in range(rows):
                for i in range(cols):
                    v = j * cols + i
                    if i + 1 < cols:
                        edges.append((v, v + 1, float(rng.choice((0, 1, 2)))))
                    if j + 1 < rows:
                        edges.append((v, v + cols,
                                      float(rng.choice((0, 1, 2)))))
            net = RoadNetwork(coords, edges)
        _cache[key] = net
    return _cache[key]


def _reference(network, sources, targets, allowed=None):
    out = set()
    target_list = sorted(targets)
    for s in sorted(sources):
        search = make_search(network, s, allowed=allowed, engine="dict")
        assert search.run_until_settled(target_list)
        collect_path_vertices(search.pred, s, target_list, out)
    return out


kinds = st.sampled_from(["metric", "unit", "nonmetric"])
seeds = st.integers(0, 3)
picks = st.lists(st.integers(0, 10_000), min_size=1, max_size=10)


def _pick(network, values):
    return sorted({v % network.num_vertices for v in values})


def _allowed(network, use, query):
    if not use:
        return None
    return set(bl_efficiency(network, query).vertices)


@given(kinds, seeds, picks, picks, st.booleans())
@settings(max_examples=60, deadline=None)
def test_sources_times_targets_match_reference(kind, seed, s_picks,
                                               t_picks, restrict):
    network = _network(kind, seed)
    sources, targets = _pick(network, s_picks), _pick(network, t_picks)
    assume(sources != targets)  # equal sets: the symmetric test below
    query = DPSQuery.st_query(sources, targets)
    allowed = _allowed(network, restrict, query)
    counters = SearchCounters()
    got = set()
    free = network.csr()._pool.free_count
    many_source_paths(network, sources, targets, got, allowed=allowed,
                      counters=counters)
    assert network.csr()._pool.free_count >= max(free, 1)
    assert got == _reference(network, sources, targets, allowed)
    assert counters.heap_pops == (counters.vertices_settled
                                  + counters.stale_skips)
    assert counters.heap_pushes >= counters.heap_pops
    report = verify_dps(network, got, query)
    assert report.ok, report.summary()


@given(kinds, seeds, picks, st.booleans())
@settings(max_examples=60, deadline=None)
def test_symmetric_is_a_subset_and_still_a_dps(kind, seed, q_picks,
                                               restrict):
    network = _network(kind, seed)
    q = _pick(network, q_picks)
    query = DPSQuery.q_query(q)
    allowed = _allowed(network, restrict, query)
    got = set()
    rounds = many_source_paths(network, q, q, got, allowed=allowed)
    assert rounds == len(q) - 1
    reference = _reference(network, q, q, allowed)
    assert got <= reference
    if kind == "metric":  # random weights: shortest paths are unique
        assert got == reference
    report = verify_dps(network, got, query)
    assert report.ok, report.summary()
