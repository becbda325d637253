"""The binary (mmap) index layout: round-trip fidelity, query
byte-identity against the legacy JSON loader, and format validation.

The contract under test is the serving tier's foundation: a binary
load must be indistinguishable from a JSON load in every answer it
produces, and any structural defect in the file must surface as an
:class:`~repro.errors.IndexFormatError` naming the path."""

from __future__ import annotations

import struct
from array import array

import pytest

from repro.core.dps import DPSQuery
from repro.core.roadpart import binfmt
from repro.core.roadpart.index import RoadPartIndex
from repro.core.roadpart.query import roadpart_dps
from repro.datasets.queries import window_query
from repro.errors import IndexFormatError


@pytest.fixture(scope="module")
def saved_pair(medium_index, tmp_path_factory):
    """The medium index saved in both formats."""
    root = tmp_path_factory.mktemp("binidx")
    json_path = root / "index.json"
    bin_path = root / "index.bin"
    medium_index.save(json_path)
    medium_index.save_binary(bin_path)
    return json_path, bin_path


@pytest.fixture(scope="module")
def loaded_pair(saved_pair, medium_network):
    json_path, bin_path = saved_pair
    return (RoadPartIndex.load(json_path, medium_network),
            RoadPartIndex.load_binary(bin_path, medium_network))


class TestRoundTrip:
    def test_structures_identical(self, loaded_pair):
        legacy, binary = loaded_pair
        assert list(binary.regions.region_of) \
            == list(legacy.regions.region_of)
        assert binary.regions.vectors == legacy.regions.vectors
        assert binary.bridges == legacy.bridges
        assert binary.border_vertex_ids == legacy.border_vertex_ids

    def test_region_of_is_zero_copy_view(self, loaded_pair):
        _, binary = loaded_pair
        # The O(|V|) array must be a view over the mapping, not a
        # parsed Python list -- that is the whole point of the format.
        assert isinstance(binary.regions.region_of, memoryview)

    def test_query_answers_byte_identical(self, loaded_pair,
                                          medium_network):
        legacy, binary = loaded_pair
        for seed in (5, 17, 29):
            query = DPSQuery.q_query(
                window_query(medium_network, 0.2, seed=seed))
            a = roadpart_dps(legacy, query)
            b = roadpart_dps(binary, query)
            assert a.vertices == b.vertices
            assert a.stats == b.stats

    def test_binary_to_json_round_trip(self, loaded_pair, saved_pair,
                                       tmp_path):
        _, binary = loaded_pair
        json_path, _ = saved_pair
        out = tmp_path / "back.json"
        binary.save(out)
        assert out.read_text() == json_path.read_text()

    def test_load_auto_dispatches_both(self, saved_pair, medium_network):
        json_path, bin_path = saved_pair
        via_json = RoadPartIndex.load_auto(json_path, medium_network)
        via_bin = RoadPartIndex.load_auto(bin_path, medium_network)
        assert via_json.bridges == via_bin.bridges
        assert list(via_json.regions.region_of) \
            == list(via_bin.regions.region_of)


class TestHeader:
    def test_info_header_matches_index(self, saved_pair, medium_index):
        _, bin_path = saved_pair
        header = binfmt.read_header(bin_path)
        assert header.num_vertices == medium_index.network.num_vertices
        assert header.border_count == medium_index.border_count
        assert header.region_count == medium_index.regions.region_count
        assert header.bridge_count == len(medium_index.bridges)
        assert set(header.sections) == set(binfmt.SECTION_TAGS)

    def test_sniff(self, saved_pair, tmp_path):
        json_path, bin_path = saved_pair
        assert binfmt.sniff_binary(bin_path)
        assert not binfmt.sniff_binary(json_path)
        assert not binfmt.sniff_binary(tmp_path / "missing.bin")


def _corrupt(path, tmp_path, offset, payload):
    data = bytearray(path.read_bytes())
    data[offset:offset + len(payload)] = payload
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    return bad


class TestValidation:
    """Every defect names the path; the exception type is stable."""

    def test_empty_file(self, tmp_path, medium_network):
        bad = tmp_path / "empty.bin"
        bad.write_bytes(b"")
        with pytest.raises(IndexFormatError, match="empty"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_bad_magic(self, saved_pair, tmp_path, medium_network):
        _, bin_path = saved_pair
        bad = _corrupt(bin_path, tmp_path, 0, b"NOPE")
        with pytest.raises(IndexFormatError, match="magic"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_unsupported_version(self, saved_pair, tmp_path,
                                 medium_network):
        _, bin_path = saved_pair
        bad = _corrupt(bin_path, tmp_path, 4, struct.pack("<I", 99))
        with pytest.raises(IndexFormatError, match="version 99"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_nonzero_flags(self, saved_pair, tmp_path, medium_network):
        _, bin_path = saved_pair
        bad = _corrupt(bin_path, tmp_path, 8, struct.pack("<I", 7))
        with pytest.raises(IndexFormatError, match="flags"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_truncated_file(self, saved_pair, tmp_path, medium_network):
        _, bin_path = saved_pair
        data = bin_path.read_bytes()
        bad = tmp_path / "short.bin"
        bad.write_bytes(data[:len(data) // 2])
        with pytest.raises(IndexFormatError,
                           match="runs past end of file"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_header_only(self, tmp_path, medium_network):
        bad = tmp_path / "header.bin"
        bad.write_bytes(binfmt.MAGIC + struct.pack("<I", binfmt.VERSION))
        with pytest.raises(IndexFormatError, match="truncated header"):
            RoadPartIndex.load_binary(bad, medium_network)

    def test_wrong_network(self, saved_pair, grid5):
        _, bin_path = saved_pair
        with pytest.raises(ValueError, match="vertices"):
            RoadPartIndex.load_binary(bin_path, grid5)

    def test_writer_rejects_oversized_values(self, tmp_path):
        with pytest.raises(ValueError, match="u32"):
            binfmt.write_index_binary(
                tmp_path / "x.bin", 1, [2 ** 40], [0], [((1, 1),)], [])

    def test_typed_arrays_write_the_per_value_bytes(self):
        """u32/f64 typed arrays (and views of them) take the one-copy
        path and produce exactly the per-value encoding; any other
        input still goes value by value and still rejects what does
        not fit in u32."""
        values = [0, 1, 7, 0xFFFFFFFF]
        dists = [0.0, 1.5, 2.0 ** -30, 1e300]
        expect_u32 = b"".join(struct.pack("<I", v) for v in values)
        expect_f64 = b"".join(struct.pack("<d", d) for d in dists)
        assert binfmt._u32_bytes(values) == expect_u32
        assert binfmt._u32_bytes(array("I", values)) == expect_u32
        assert (binfmt._u32_bytes(memoryview(array("I", values)))
                == expect_u32)
        assert binfmt._f64_bytes(dists) == expect_f64
        assert binfmt._f64_bytes(array("d", dists)) == expect_f64
        for bad in ([2 ** 32], [-1], array("q", [2 ** 32]),
                    array("q", [-1])):
            with pytest.raises(ValueError, match="does not fit in u32"):
                binfmt._u32_bytes(bad)
