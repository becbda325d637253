"""Unit tests for the many-source kernel
(:mod:`repro.shortestpath.manysource`).

Answer identity with the per-source reference loop is the property
suite's job (``tests/property/test_manysource_property.py``); these
pin the kernel's contracts: the metric check, argument validation,
errors and deadlines that leave the arena pool intact, the round
plan of the symmetric mode, and that goal direction saves work.
"""

from __future__ import annotations

import math

import pytest

from repro.core.blq import bl_quality
from repro.core.dps import DPSQuery
from repro.datasets.queries import window_query
from repro.errors import DeadlineExceeded
from repro.graph.network import RoadNetwork
from repro.obs.counters import SearchCounters
from repro.obs.stats import QueryStats
from repro.shortestpath.deadline import Deadline
from repro.shortestpath.flat import make_search, release_search
from repro.shortestpath.manysource import many_source_paths, outside_in
from repro.shortestpath.paths import collect_path_vertices


def _line(weights):
    """Vertices 0..n on the x-axis, unit spacing, the given arc weights."""
    coords = [(float(i), 0.0) for i in range(len(weights) + 1)]
    return RoadNetwork(coords, [(i, i + 1, w)
                                for i, w in enumerate(weights)])


class TestMetricCheck:
    def test_generated_network_is_metric_and_cached(self, medium_network):
        csr = medium_network.csr()
        first = csr.goal_coords(medium_network.coords)
        assert first is not None
        assert csr.goal_coords(medium_network.coords) is first

    @pytest.mark.parametrize("weights", [[1.0, 0.5, 1.0], [1.0, 0.0]])
    def test_short_or_zero_arc_turns_goal_direction_off(self, weights):
        network = _line(weights)
        assert network.csr().goal_coords(network.coords) is None

    def test_coincident_vertices_with_positive_weight_are_metric(self):
        network = RoadNetwork([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)],
                              [(0, 1, 0.5), (1, 2, 1.0)])
        assert network.csr().goal_coords(network.coords) is not None


class TestValidationAndErrors:
    def test_source_outside_allowed(self, grid5):
        with pytest.raises(ValueError, match="not in the allowed set"):
            many_source_paths(grid5, [0], [4], set(), allowed={1, 2, 3, 4})

    def test_empty_sides_run_nothing(self, grid5):
        into = set()
        assert many_source_paths(grid5, [], [3], into) == 0
        assert into == set()

    def test_unreachable_target_raises_and_frees_the_arena(self):
        network = RoadNetwork([(0, 0), (1, 0), (5, 5), (6, 5)],
                              [(0, 1, 1.0), (2, 3, 1.0)])
        pool = network.csr()._pool
        with pytest.raises(ValueError, match="network is not connected"):
            many_source_paths(network, [0], [1, 3], set())
        assert pool.free_count == 1
        # The recycled arena is clean: a fresh search answers exactly.
        into = set()
        many_source_paths(network, [0], [1], into)
        assert into == {0, 1}

    def test_allowed_subgraph_cut_raises(self, grid5):
        allowed = {0, 1, 2, 3, 4, 10, 11, 12, 13, 14}
        with pytest.raises(ValueError, match="allowed subgraph"):
            many_source_paths(grid5, [0], [14], set(), allowed=allowed)

    def test_expired_deadline_raises_and_frees_the_arena(self,
                                                         medium_network):
        q = sorted(window_query(medium_network, 0.2, seed=3))
        pool = medium_network.csr()._pool
        many_source_paths(medium_network, q[:2], q, set())
        free = pool.free_count
        with pytest.raises(DeadlineExceeded):
            many_source_paths(medium_network, q, q, set(),
                              deadline=Deadline.after(0.0))
        assert pool.free_count == free

    def test_generous_deadline_changes_nothing(self, medium_network):
        q = sorted(window_query(medium_network, 0.2, seed=4))
        plain, bounded = set(), set()
        many_source_paths(medium_network, q, q, plain)
        many_source_paths(medium_network, q, q, bounded,
                          deadline=Deadline.after(60.0))
        assert plain == bounded


class TestRoundPlan:
    def test_outside_in_order(self, grid5):
        order = outside_in(grid5, [12, 0, 24, 7, 4])
        centroid = (sum(grid5.coords[v][0] for v in order) / 5,
                    sum(grid5.coords[v][1] for v in order) / 5)
        far = [math.dist(grid5.coords[v], centroid) for v in order]
        assert far == sorted(far, reverse=True)
        # Corners equidistant from the centre (2, 2) go by id.
        assert outside_in(grid5, [12, 24, 20, 4, 0]) == [0, 4, 20, 24, 12]

    def test_equal_sets_serve_each_pair_once(self, grid5):
        into = set()
        assert many_source_paths(grid5, [0, 4, 20, 24], [24, 20, 4, 0],
                                 into) == 3

    def test_unequal_sets_run_every_source(self, grid5):
        into = set()
        assert many_source_paths(grid5, [0, 4, 20], [0, 4, 20, 24],
                                 into) == 3

    def test_single_source_is_its_own_answer(self, grid5):
        into = set()
        assert many_source_paths(grid5, [7], [7], into) == 0
        assert into == {7}

    def test_phase_labels(self, medium_network, medium_query):
        stats = QueryStats()
        bl_quality(medium_network, medium_query, stats=stats)
        assert set(stats.phases) == {"sssp", "collect"}


class TestGoalDirection:
    def test_settles_fewer_vertices_than_per_source_dijkstra(
            self, medium_network):
        q = sorted(window_query(medium_network, 0.1, seed=8))
        kernel = SearchCounters()
        got = set()
        many_source_paths(medium_network, q, q, got, counters=kernel)
        reference = SearchCounters()
        want = set()
        for s in q:
            search = make_search(medium_network, s, counters=reference)
            assert search.run_until_settled(q)
            collect_path_vertices(search.pred, s, q, want)
            release_search(search)
        assert got == want
        assert kernel.vertices_settled < reference.vertices_settled

    def test_engine_is_validated_but_selects_nothing(self, medium_network,
                                                     medium_query):
        flat = bl_quality(medium_network, medium_query, engine="flat")
        dict_ = bl_quality(medium_network, medium_query, engine="dict")
        assert flat.vertices == dict_.vertices
        with pytest.raises(ValueError, match="unknown engine"):
            bl_quality(medium_network, medium_query, engine="warp")

    def test_q_dps_runs_one_round_fewer_than_q(self, grid5):
        q = [0, 4, 20, 24]
        result = bl_quality(grid5, DPSQuery.q_query(q))
        assert result.stats["sssp_rounds"] == len(q) - 1
