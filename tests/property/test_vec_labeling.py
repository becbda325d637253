"""Property tests pinning the batched PLL builder to the scalar one.

Unlike the query-side kernels (result equivalence up to settle order),
the build-side contract is **identity**: :func:`vec_pruned_labeling`
must reproduce the scalar :class:`HubLabelIndex` labels exactly --
same hub order, same prune decisions, bit-identical float64 distances,
same canonical per-vertex serialisation order -- because ``--oracle
hub`` index files are compared byte-for-byte with and without a
backend (here and in the index-roundtrip CI job).  Since
:meth:`HubOracle.build` runs the batched builder whenever the backend
is up, the reference here is always the scalar builder called
directly.

The whole module skips on a stdlib-only install (no numpy, or
``REPRO_VEC_DISABLE`` set); ``tests/shortestpath/test_oracle.py``
covers the degradation path instead.
"""

import filecmp

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.roadpart.index import build_index
from repro.core.roadpart.labeling import FloodEngine, label_round
from repro.datasets.synthetic import add_bridges, grid_network
from repro.shortestpath.hub_labels import HubLabelIndex, pruned_labeling
from repro.shortestpath.oracle import HubOracle, hub_groups
from repro.vec.backend import ENV_DISABLE, has_backend, reset_backend_probe

from tests.property.test_dijkstra_property import connected_networks

pytestmark = pytest.mark.skipif(
    not has_backend(), reason="no array backend (numpy) in this install")


def _bridged_fixture(seed):
    return add_bridges(grid_network(12, 10, seed=seed), 6, (2.0, 5.0),
                       seed=seed + 1)


def _scalar_label_arrays(network, hubs):
    """The scalar builder's labels in the canonical flat layout, as
    lists flattened here from its per-vertex dicts."""
    index = HubLabelIndex(network, hubs=())
    for hub in hubs:
        index.add_hub(hub)
    offsets, label_hubs, label_dists = [0], [], []
    for v in range(network.num_vertices):
        for h, d in index.label_of(v).items():
            label_hubs.append(h)
            label_dists.append(d)
        offsets.append(len(label_hubs))
    return offsets, label_hubs, label_dists


@given(connected_networks(), st.data())
@settings(max_examples=30, deadline=None)
def test_batched_pll_identical_to_scalar(network, data):
    """Same hub order, same prune decisions, bit-identical distances,
    canonical within-label ordering -- on arbitrary hub subsets of
    random connected networks."""
    from repro.shortestpath.vec import vec_pruned_labeling
    n = network.num_vertices
    hubs = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                              max_size=min(n, 8), unique=True))
    reference = _scalar_label_arrays(network, hubs)
    assert [list(a) for a in vec_pruned_labeling(network, hubs)] \
        == list(reference)
    assert [list(a) for a in pruned_labeling(network, hubs)] \
        == list(reference)


@pytest.mark.parametrize("seed", [3, 7])
def test_hub_oracle_build_identical_with_bridges(seed):
    """HubOracle.build (batched, the backend is up) equals the scalar
    builder called directly on a bridged network, with and without the
    per-region hub grouping."""
    network, bridges = _bridged_fixture(seed)
    index = build_index(network, 6, bridges=bridges)
    for region_of in (None, index.regions.region_of):
        planned = [e for _, members
                   in hub_groups(network, bridges, region_of)
                   for e in members]
        built = HubOracle.build(network, bridges, region_of=region_of)
        assert built.builder == "vectorized"
        assert built.hub_order == tuple(planned)
        payload = built.to_payload()
        assert ((payload["offsets"], payload["label_hubs"],
                 payload["label_dists"])
                == pruned_labeling(network, planned))


def test_flood_engine_matches_scalar_rounds():
    """Every labelling round agrees label-for-label between the scalar
    BFS and the array-backed flood engine (same components, same
    intervals)."""
    network, bridges = _bridged_fixture(5)
    bridge_set = set(bridges)
    index = build_index(network, 6, bridges=bridges)
    contour = index.contour
    border_positions = [contour.vertex_ids.index(b)
                        for b in index.border_vertex_ids]
    from repro.core.roadpart.labeling import CutCache
    cuts = CutCache(network, forbidden_edges=bridge_set)
    vec_flood = FloodEngine(network, bridge_set, engine="numpy")
    assert vec_flood.vectorized
    for round_index in range(len(border_positions)):
        scalar_labels, scalar_stats = label_round(
            network, contour, border_positions, round_index, bridge_set,
            cuts)
        vec_labels, vec_stats = label_round(
            network, contour, border_positions, round_index, bridge_set,
            cuts, flood=vec_flood)
        assert vec_labels == scalar_labels
        assert vec_stats.bfs_labelled == scalar_stats.bfs_labelled
        assert vec_stats.pockets == scalar_stats.pockets


@pytest.mark.parametrize("fmt", ["json", "bin"])
def test_oracle_index_files_byte_identical(tmp_path, fmt):
    """The acceptance contract: --oracle hub index files compare equal
    (cmp-style, byte for byte) across engine=dict|flat|numpy, serial
    and --jobs 2, in both on-disk formats."""
    network, bridges = _bridged_fixture(9)
    paths = []
    for engine in ("dict", "flat", "numpy"):
        for jobs in (1, 2):
            index = build_index(network, 6, bridges=bridges, jobs=jobs,
                                engine=engine, oracle="hub")
            path = tmp_path / f"{engine}-{jobs}.{fmt}"
            if fmt == "json":
                index.save(str(path))
            else:
                index.save_binary(str(path))
            paths.append(path)
    for path in paths[1:]:
        assert filecmp.cmp(paths[0], path, shallow=False), (
            f"{path.name} differs from {paths[0].name}")


@pytest.mark.parametrize("fmt", ["json", "bin"])
def test_oracle_index_files_identical_without_backend(tmp_path,
                                                      monkeypatch, fmt):
    """The scalar build (backend disabled) writes the same bytes as
    the batched one, serial and --jobs 2."""
    network, bridges = _bridged_fixture(9)

    def save(name, jobs):
        index = build_index(network, 6, bridges=bridges, jobs=jobs,
                            oracle="hub")
        path = tmp_path / f"{name}.{fmt}"
        if fmt == "json":
            index.save(str(path))
        else:
            index.save_binary(str(path))
        return index.stats.oracle_engine, path

    batched = [save(f"vec-{jobs}", jobs) for jobs in (1, 2)]
    monkeypatch.setenv(ENV_DISABLE, "1")
    reset_backend_probe()
    try:
        scalar = [save(f"scalar-{jobs}", jobs) for jobs in (1, 2)]
    finally:
        monkeypatch.delenv(ENV_DISABLE)
        reset_backend_probe()
    assert [b for b, _ in batched] == ["vectorized"] * 2
    assert [b for b, _ in scalar] == ["scalar"] * 2
    reference = scalar[0][1]
    for _, path in scalar[1:] + batched:
        assert filecmp.cmp(reference, path, shallow=False), (
            f"{path.name} differs from {reference.name}")


def test_build_index_reports_vectorized_oracle_engine():
    """The builder follows the backend, not ``engine``: vectorized
    under every engine while NumPy is up."""
    network, bridges = _bridged_fixture(11)
    for engine in ("flat", "numpy"):
        index = build_index(network, 6, bridges=bridges, engine=engine,
                            oracle="hub")
        assert index.stats.oracle_engine == "vectorized"


def test_build_index_reports_scalar_oracle_engine(no_vec_backend):
    network, bridges = _bridged_fixture(11)
    index = build_index(network, 6, bridges=bridges, engine="numpy",
                        oracle="hub")
    assert index.stats.oracle_engine == "scalar"


def _pll_span(network, bridges, label):
    from repro.obs.trace import TraceRecorder
    trace = TraceRecorder()
    build_index(network, 6, bridges=bridges, oracle="hub", trace=trace)
    span = trace.find(label)
    assert span is not None, f"{label} span missing"
    assert any(child.label.startswith("region-")
               for child in span.children)
    return trace


def test_oracle_build_trace_names_the_builder():
    network, bridges = _bridged_fixture(13)
    trace = _pll_span(network, bridges, "pll-vectorized")
    assert trace.find("pll-scalar") is None


def test_oracle_build_trace_names_the_scalar_builder(no_vec_backend):
    network, bridges = _bridged_fixture(13)
    trace = _pll_span(network, bridges, "pll-scalar")
    assert trace.find("pll-vectorized") is None
