"""Unit tests for the bridge-domain distance-oracle facade.

The contract under test: both oracle kinds answer the workload pairs
*exactly* (hub labels for ``(x, bridge endpoint)`` pairs, CH for all
pairs), their payloads round-trip through the flat-array form the
serialisers use, and the policy resolution behind ``oracle="auto"``
matches its documentation.
"""

import math
from array import array

import pytest

from repro.core.roadpart.bridges import find_bridges
from repro.datasets.synthetic import add_bridges, grid_network
from repro.shortestpath import (
    CHOracle,
    HubOracle,
    ORACLE_KINDS,
    ORACLE_POLICIES,
    build_oracle,
    oracle_from_payload,
    resolve_oracle_kind,
)
from repro.shortestpath.dijkstra import sssp


@pytest.fixture(scope="module")
def bridged():
    """A small perturbed grid with flyovers, plus its detected bridges
    (the exact set an index build would hand the oracle)."""
    base = grid_network(10, 9, seed=5, drop_rate=0.1)
    network, _ = add_bridges(base, 6, (2.5, 5.0), seed=8)
    bridges = sorted(find_bridges(network))
    assert bridges, "fixture must produce a bridged network"
    return network, bridges


@pytest.fixture(scope="module")
def targets(bridged):
    network, _ = bridged
    return list(range(0, network.num_vertices, 7))


def _true_distances(network, source, targets):
    tree = sssp(network, source)
    return {x: tree.dist[x] for x in targets if x in tree.dist}


class TestPolicyResolution:
    def test_auto_is_hub_with_bridges(self):
        assert resolve_oracle_kind("auto", [(0, 1)]) == "hub"

    def test_auto_is_none_without_bridges(self):
        assert resolve_oracle_kind("auto", []) == "none"

    def test_concrete_kinds_pass_through(self):
        for kind in ORACLE_KINDS + ("none",):
            assert resolve_oracle_kind(kind, []) == kind

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown oracle kind"):
            resolve_oracle_kind("plateau", [(0, 1)])

    def test_policies_superset_kinds(self):
        assert set(ORACLE_KINDS) < set(ORACLE_POLICIES)

    def test_build_oracle_none(self, bridged):
        network, bridges = bridged
        assert build_oracle(network, "none", bridges) is None
        assert build_oracle(network, "auto", []) is None

    def test_resolve_does_not_consume_sized_iterables(self):
        """Regression: the 'auto' emptiness probe used to drain its
        argument with ``any()``; sized containers must come back
        untouched."""
        class CountingBridges(list):
            def __init__(self, items):
                super().__init__(items)
                self.iterated = False

            def __iter__(self):
                self.iterated = True
                return super().__iter__()

        bridges = CountingBridges([(0, 1), (2, 3)])
        assert resolve_oracle_kind("auto", bridges) == "hub"
        assert not bridges.iterated
        assert list(bridges) == [(0, 1), (2, 3)]

    def test_resolve_accepts_generators(self):
        assert resolve_oracle_kind("auto", (b for b in [(0, 1)])) == "hub"
        assert resolve_oracle_kind("auto", (b for b in [])) == "none"

    def test_build_oracle_accepts_generator_bridges(self, bridged):
        """Regression: build_oracle drained a generator in the resolve
        probe and then built a hub oracle over *no* endpoints.  A
        generator must now yield the same oracle as the list."""
        network, bridges = bridged
        from_list = build_oracle(network, "auto", bridges)
        from_gen = build_oracle(network, "auto", (b for b in bridges))
        assert from_gen is not None
        assert from_gen.hub_order == from_list.hub_order
        for key in ("offsets", "label_hubs", "label_dists"):
            assert (list(from_gen.to_payload()[key])
                    == list(from_list.to_payload()[key]))


class TestHubOracle:
    @pytest.fixture(scope="class")
    def oracle(self, bridged):
        network, bridges = bridged
        return HubOracle.build(network, bridges)

    def test_covers_exactly_the_endpoints(self, bridged, oracle):
        network, bridges = bridged
        endpoints = {e for bridge in bridges for e in bridge}
        u, v = bridges[0]
        assert oracle.covers(u, v)
        outsider = next(x for x in range(network.num_vertices)
                        if x not in endpoints)
        assert not oracle.covers(u, outsider)

    def test_distances_exact_for_workload_pairs(self, bridged, oracle,
                                                targets):
        """The partial PLL must be exact for every (x, endpoint) pair --
        the soundness claim the query processor relies on."""
        network, bridges = bridged
        scratch = oracle.scratch(targets)
        for u, v in bridges:
            du_map, dv_map = scratch.domain_maps(u, v)
            for endpoint, got in ((u, du_map), (v, dv_map)):
                expect = _true_distances(network, endpoint, targets)
                assert set(got) == set(expect)
                for x, d in expect.items():
                    assert math.isclose(got[x], d, rel_tol=1e-12,
                                        abs_tol=1e-12)

    def test_bridge_valid_matches_domains(self, bridged, oracle, targets):
        network, bridges = bridged
        scratch = oracle.scratch(targets)
        for u, v in bridges:
            weight = network.edge_weight(u, v)
            ud, vd = scratch.domains(u, v, weight)
            assert scratch.bridge_valid(u, v, weight) == bool(ud and vd)

    def test_payload_round_trip(self, bridged, oracle, targets):
        network, bridges = bridged
        back = oracle_from_payload(oracle.to_payload())
        assert isinstance(back, HubOracle)
        assert back.hub_order == oracle.hub_order
        assert back.entry_count() == oracle.entry_count()
        u, v = bridges[0]
        assert (back.scratch(targets).domain_maps(u, v)
                == oracle.scratch(targets).domain_maps(u, v))

    def test_describe_mentions_kind_and_size(self, oracle):
        text = oracle.describe()
        assert "hub" in text
        assert str(len(oracle.hub_order)) in text

    def test_disabled_backend_runs_scalar_builder(self, bridged, oracle,
                                                  no_vec_backend):
        """Without a backend (REPRO_VEC_DISABLE) the build runs the
        scalar builder, says so, and produces the identical oracle."""
        network, bridges = bridged
        degraded = HubOracle.build(network, bridges)
        assert degraded.builder == "scalar"
        assert degraded.hub_order == oracle.hub_order
        for key in ("offsets", "label_hubs", "label_dists"):
            assert (list(degraded.to_payload()[key])
                    == list(oracle.to_payload()[key]))

    def test_storage_is_typed_arrays(self, oracle):
        """A built oracle holds its labels as typed arrays and hands
        the same objects to the serialisers, uncopied."""
        payload = oracle.to_payload()
        for key, code in (("offsets", "I"), ("label_hubs", "I"),
                          ("label_dists", "d")):
            assert isinstance(payload[key], array)
            assert payload[key].typecode == code
            assert oracle.to_payload()[key] is payload[key]
        assert oracle.entry_count() == len(payload["label_hubs"])
        assert oracle.num_vertices() == len(payload["offsets"]) - 1


class TestCHOracle:
    @pytest.fixture(scope="class")
    def oracle(self, bridged):
        network, _ = bridged
        return CHOracle.build(network)

    def test_covers_everything(self, oracle):
        assert oracle.covers(0, 1)
        assert oracle.covers(17, 40)

    def test_distances_exact_for_any_pair(self, bridged, oracle, targets):
        network, bridges = bridged
        scratch = oracle.scratch(targets)
        for u, v in bridges[:2]:
            du_map, _ = scratch.domain_maps(u, v)
            expect = _true_distances(network, u, targets)
            assert set(du_map) == set(expect)
            for x, d in expect.items():
                assert math.isclose(du_map[x], d, rel_tol=1e-9,
                                    abs_tol=1e-12)

    def test_payload_round_trip(self, bridged, oracle, targets):
        network, bridges = bridged
        back = oracle_from_payload(oracle.to_payload())
        assert isinstance(back, CHOracle)
        assert back.entry_count() == oracle.entry_count()
        u, v = bridges[0]
        assert (back.scratch(targets).domain_maps(u, v)
                == oracle.scratch(targets).domain_maps(u, v))


class TestPayloadValidation:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown oracle payload"):
            oracle_from_payload({"kind": "plateau"})

    @staticmethod
    def _payload(**override):
        # Three vertices, hubs 0 and 2: L(0)={0:0}, L(1)={0:1, 2:2},
        # L(2)={0:3, 2:0}.
        payload = {"kind": "hub", "hubs": [0, 2],
                   "offsets": [0, 1, 3, 5],
                   "label_hubs": [0, 0, 2, 0, 2],
                   "label_dists": [0.0, 1.0, 2.0, 3.0, 0.0]}
        payload.update(override)
        return payload

    def test_well_formed_payload_loads(self, either_backend):
        oracle = oracle_from_payload(self._payload(), 3, "mem.idx")
        assert list(oracle.label_items(1)) == [(0, 1.0), (2, 2.0)]

    @pytest.mark.parametrize("override, section, problem", [
        ({"offsets": [1, 1, 3, 5]}, "orloff", "starts at 1"),
        ({"offsets": [0, 4, 3, 5]}, "orloff", "decrease at vertex 1"),
        ({"offsets": [0, 1, 3, 4]}, "orloff", "ends at 4"),
        ({"offsets": [0, 1, 5]}, "orloff", "holds 3 offsets"),
        ({"offsets": [0, -1, 3, 5]}, "orloff", "not u32"),
        ({"hubs": [0, 0]}, "orhubs", "appears twice"),
        ({"hubs": [0, 7]}, "orhubs", "out of range"),
        ({"label_hubs": [0, 0, 1, 0, 2]}, "orlhub", "vertex 1, which is"
                                                    " not a hub"),
        ({"label_hubs": [0, 0, 9, 0, 2]}, "orlhub", "vertex 9, which is"
                                                    " not a hub"),
        ({"label_dists": [0.0, 1.0, -2.0, 3.0, 0.0]}, "orldst",
         "entry 2"),
        ({"label_dists": [0.0, 1.0, 2.0, math.nan, 0.0]}, "orldst",
         "entry 3"),
        ({"label_dists": [0.0, math.inf, 2.0, 3.0, 0.0]}, "orldst",
         "entry 1"),
        ({"label_dists": [0.0, 1.0]}, "orldst", "holds 2 distances"),
    ])
    def test_corrupt_hub_payload_names_path_and_section(
            self, either_backend, override, section, problem):
        from repro.errors import IndexFormatError
        with pytest.raises(IndexFormatError) as excinfo:
            oracle_from_payload(self._payload(**override), 3, "mem.idx")
        message = str(excinfo.value)
        assert message.startswith("mem.idx: ")
        assert repr(section) in message
        assert problem in message
