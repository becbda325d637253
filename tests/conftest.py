"""Shared fixtures: small hand-checkable graphs and medium synthetic
networks reused across the suite.

Session scope is used for everything expensive; all fixtures are
deterministic (fixed seeds), so session scoping cannot leak state between
tests -- RoadNetwork has no mutating API.
"""

from __future__ import annotations

import math

import pytest

from repro.core.dps import DPSQuery
from repro.core.roadpart.index import build_index
from repro.datasets.queries import window_query
from repro.datasets.synthetic import add_bridges, grid_network
from repro.graph.network import RoadNetwork
from repro.vec.backend import ENV_DISABLE, reset_backend_probe


@pytest.fixture(scope="session")
def square_network() -> RoadNetwork:
    """A unit square: 4 vertices, 4 edges, all weights 1."""
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
    return RoadNetwork(coords, edges)


@pytest.fixture(scope="session")
def path_network() -> RoadNetwork:
    """A 5-vertex path along the x-axis, unit edges."""
    coords = [(float(i), 0.0) for i in range(5)]
    edges = [(i, i + 1, 1.0) for i in range(4)]
    return RoadNetwork(coords, edges)


@pytest.fixture(scope="session")
def grid5() -> RoadNetwork:
    """An unperturbed 5x5 grid with unit spacing and Euclidean weights:
    every distance is the Manhattan distance, easy to assert by hand."""
    coords = [(float(i), float(j)) for j in range(5) for i in range(5)]
    edges = []
    for j in range(5):
        for i in range(5):
            v = j * 5 + i
            if i < 4:
                edges.append((v, v + 1, 1.0))
            if j < 4:
                edges.append((v, v + 5, 1.0))
    return RoadNetwork(coords, edges)


#: The flyover of :func:`bridge_network`: (1,1) → (3,2), i.e. ids 6 → 13.
BRIDGE_U, BRIDGE_V = 6, 13
#: Its weight: ≥ ‖uv‖ = √5 ≈ 2.236 (metric) yet < 3 (a genuine shortcut).
BRIDGE_WEIGHT = 2.4


@pytest.fixture(scope="session")
def bridge_network() -> RoadNetwork:
    """grid5 plus one flyover from (1,1) to (3,2).

    The flyover properly crosses the vertical grid edge (2,1)-(2,2) at
    (2, 1.5) -- a detectable bridge (a segment through a lattice vertex,
    like (1,1)-(3,3), would NOT be one: endpoint contact is not a proper
    crossing).  Its weight (2.4) beats the Manhattan route (3.0), so
    shortest paths genuinely use it -- the case RoadPart's bridge
    machinery exists for.
    """
    coords = [(float(i), float(j)) for j in range(5) for i in range(5)]
    edges = []
    for j in range(5):
        for i in range(5):
            v = j * 5 + i
            if i < 4:
                edges.append((v, v + 1, 1.0))
            if j < 4:
                edges.append((v, v + 5, 1.0))
    edges.append((BRIDGE_U, BRIDGE_V, BRIDGE_WEIGHT))
    return RoadNetwork(coords, edges)


@pytest.fixture(scope="session")
def medium_network() -> RoadNetwork:
    """A 30x28 perturbed grid with 12 bridges; the suite's workhorse."""
    base = grid_network(30, 28, seed=11)
    network, _ = add_bridges(base, 12, (2.0, 5.0), seed=12)
    return network


@pytest.fixture(scope="session")
def medium_index(medium_network):
    """A RoadPart index over :func:`medium_network` (ℓ = 8)."""
    return build_index(medium_network, border_count=8)


@pytest.fixture(scope="session")
def medium_query(medium_network) -> DPSQuery:
    """A Q-DPS query of ~8% of the medium network's extent."""
    return DPSQuery.q_query(window_query(medium_network, 0.25, seed=21))


@pytest.fixture
def no_vec_backend(monkeypatch):
    """Switch the array backend off (``REPRO_VEC_DISABLE``) for one
    test, re-probing on the way in and out."""
    monkeypatch.setenv(ENV_DISABLE, "1")
    reset_backend_probe()
    yield
    monkeypatch.delenv(ENV_DISABLE)
    reset_backend_probe()


@pytest.fixture(params=["backend", "stdlib"])
def either_backend(request):
    """Run a test once as installed and once with the backend off."""
    if request.param == "stdlib":
        request.getfixturevalue("no_vec_backend")
    return request.param
