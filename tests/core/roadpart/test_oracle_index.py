"""Oracle-carrying indexes end to end: build, serialise (JSON and the
v2 binary layout), reload, and answer queries.

The load-bearing contracts:

* DPS outputs are byte-identical with and without an oracle -- the
  oracle only short-circuits *invalid* bridges, which contribute
  nothing to the answer.
* ``oracle="none"`` builds keep writing version-1 binaries, so every
  pre-oracle reader (and CI baseline) still applies.
* Version-1 files load into an oracle-less index and answer exactly as
  before -- version negotiation is by header sniffing, not file name.
* Structural defects (unknown section tags, malformed oracle payloads)
  surface as :class:`~repro.errors.IndexFormatError` naming the path.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.core.roadpart import binfmt
from repro.core.roadpart.index import RoadPartIndex, build_index
from repro.core.roadpart.parallel import fork_available
from repro.core.roadpart.query import RoadPartQueryProcessor, roadpart_dps
from repro.errors import IndexFormatError

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


@pytest.fixture(scope="module")
def hub_index(medium_network):
    """The medium index built with the hub oracle (what ``--oracle
    auto`` resolves to on a bridged network)."""
    index = build_index(medium_network, border_count=8, oracle="auto")
    assert index.oracle is not None and index.oracle.kind == "hub"
    return index


@pytest.fixture(scope="module")
def saved_v2(hub_index, tmp_path_factory):
    root = tmp_path_factory.mktemp("oracleidx")
    json_path = root / "index.json"
    bin_path = root / "index.bin"
    hub_index.save(json_path)
    hub_index.save_binary(bin_path)
    return json_path, bin_path


class TestQueryByteIdentity:
    def test_dps_identical_with_and_without_oracle(self, medium_index,
                                                   hub_index,
                                                   medium_query):
        with_oracle = roadpart_dps(hub_index, medium_query)
        without = roadpart_dps(medium_index, medium_query)
        assert with_oracle.vertices == without.vertices

    def test_oracle_counters_only_when_attached(self, medium_index,
                                                hub_index, medium_query):
        plain = roadpart_dps(medium_index, medium_query)
        assert "oracle_hits" not in plain.stats
        assert "oracle_fallbacks" not in plain.stats
        assisted = roadpart_dps(hub_index, medium_query)
        assert (assisted.stats["oracle_hits"]
                + assisted.stats["oracle_fallbacks"]
                == assisted.stats["b"])
        # The short-circuited bridges are exactly the invalid ones.
        assert (assisted.stats["oracle_fallbacks"]
                >= assisted.stats["bv"])

    def test_oracle_none_policy_disables_even_when_attached(
            self, hub_index, medium_query):
        off = roadpart_dps(hub_index, medium_query, oracle="none")
        assert "oracle_hits" not in off.stats

    def test_requesting_missing_oracle_kind_raises(self, medium_index,
                                                   hub_index):
        with pytest.raises(ValueError, match="no oracle"):
            RoadPartQueryProcessor(medium_index, oracle="hub")
        with pytest.raises(ValueError, match="'hub' oracle"):
            RoadPartQueryProcessor(hub_index, oracle="ch")
        with pytest.raises(ValueError, match="unknown oracle policy"):
            RoadPartQueryProcessor(hub_index, oracle="plateau")


class TestSerialisation:
    def test_oracle_none_build_stays_version_1(self, medium_index,
                                               tmp_path):
        path = tmp_path / "plain.bin"
        medium_index.save_binary(path)
        header = binfmt.read_header(path)
        assert header.version == binfmt.VERSION
        assert set(header.sections) == set(binfmt.SECTION_TAGS)

    def test_oracle_build_writes_version_2(self, saved_v2):
        _, bin_path = saved_v2
        header = binfmt.read_header(bin_path)
        assert header.version == binfmt.VERSION_ORACLE
        assert binfmt.ORACLE_META_TAG in header.sections
        for tag in binfmt.HUB_SECTION_TAGS:
            assert tag in header.sections

    def test_binary_round_trip_preserves_answers(self, saved_v2,
                                                 medium_network,
                                                 hub_index,
                                                 medium_query):
        _, bin_path = saved_v2
        loaded = RoadPartIndex.load_binary(bin_path, medium_network)
        assert loaded.oracle is not None
        assert loaded.oracle.kind == "hub"
        assert loaded.stats.oracle_entries == hub_index.oracle.entry_count()
        fresh = roadpart_dps(hub_index, medium_query)
        reloaded = roadpart_dps(loaded, medium_query)
        assert reloaded.vertices == fresh.vertices
        assert reloaded.stats == fresh.stats

    def test_json_round_trip_preserves_oracle(self, saved_v2,
                                              medium_network, hub_index):
        json_path, _ = saved_v2
        loaded = RoadPartIndex.load(json_path, medium_network)
        assert loaded.oracle is not None
        assert (loaded.oracle.to_payload()
                == hub_index.oracle.to_payload())

    def test_json_omits_oracle_key_when_absent(self, medium_index):
        assert "oracle" not in medium_index.to_dict()

    def test_version_1_file_loads_oracle_less(self, medium_index,
                                              medium_network,
                                              medium_query, tmp_path):
        path = tmp_path / "v1.bin"
        medium_index.save_binary(path)
        loaded = RoadPartIndex.load_binary(path, medium_network)
        assert loaded.oracle is None
        assert (roadpart_dps(loaded, medium_query).vertices
                == roadpart_dps(medium_index, medium_query).vertices)

    def test_unknown_section_tag_names_path_and_section(self, saved_v2,
                                                        tmp_path):
        _, bin_path = saved_v2
        blob = bin_path.read_bytes()
        assert blob.count(b"orhubs") == 1  # only the section table
        mangled = tmp_path / "mangled.bin"
        mangled.write_bytes(blob.replace(b"orhubs", b"zzhubs"))
        with pytest.raises(IndexFormatError) as excinfo:
            binfmt.read_index_binary(mangled)
        assert "zzhubs" in str(excinfo.value)
        assert "mangled.bin" in str(excinfo.value)

    def test_malformed_json_oracle_payload_raises(self, saved_v2,
                                                  medium_network,
                                                  tmp_path):
        json_path, _ = saved_v2
        doc = json.loads(json_path.read_text())
        del doc["oracle"]["offsets"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(IndexFormatError, match="oracle"):
            RoadPartIndex.load(bad, medium_network)

    def test_non_object_json_oracle_payload_raises(self, saved_v2,
                                                   medium_network,
                                                   tmp_path):
        json_path, _ = saved_v2
        doc = json.loads(json_path.read_text())
        doc["oracle"] = [1, 2]
        bad = tmp_path / "listed.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(IndexFormatError,
                           match=r"listed\.json: oracle payload is a list"):
            RoadPartIndex.load(bad, medium_network)


def _u32(value):
    return struct.pack("<I", value)


class TestCorruptOracleSections:
    """One corrupt word in any hub-oracle section of a built v2 file
    fails the load with an IndexFormatError naming the path and the
    section -- never an IndexError or a wrong distance at query
    time."""

    @staticmethod
    def _corrupt(bin_path, out, tag, word, value):
        blob = bytearray(bin_path.read_bytes())
        offset, length = binfmt.read_header(bin_path).sections[
            tag.encode("ascii")]
        assert 4 * word + 4 <= length
        blob[offset + 4 * word:offset + 4 * word + 4] = value
        out.write_bytes(bytes(blob))
        return out

    def _cases(self, hub_index):
        oracle = hub_index.oracle
        n = oracle.num_vertices()
        hubs = oracle.hub_order
        non_hub = min(set(range(n)) - set(hubs))
        # A vertex in the middle whose offset is below the next one.
        mid = n // 2
        return [
            ("orloff", 0, _u32(1), "starts at 1"),
            ("orloff", mid, _u32(0xFFFFFFFF), f"decrease at vertex {mid}"),
            ("orloff", n, _u32(0), "ends at 0"),
            ("orhubs", 1, _u32(hubs[0]), "appears twice"),
            ("orhubs", 0, _u32(n), "out of range"),
            ("orlhub", 0, _u32(non_hub), "not a hub"),
            ("orlhub", 3, _u32(0xFFFFFFFF), "not a hub"),
            # High word of the first f64: 0xBFF0.... is a negative
            # double, 0xFFF8.... a NaN, 0x7FF0.... with a zero low
            # word is +inf (or a NaN otherwise).
            ("orldst", 1, _u32(0xBFF00000), "finite and >= 0"),
            ("orldst", 1, _u32(0xFFF80000), "finite and >= 0"),
            ("orldst", 1, _u32(0x7FF00000), "finite and >= 0"),
        ]

    def test_each_section_fails_loudly(self, either_backend, saved_v2,
                                       hub_index, medium_network,
                                       tmp_path):
        _, bin_path = saved_v2
        for i, (tag, word, value, problem) in enumerate(
                self._cases(hub_index)):
            bad = self._corrupt(bin_path, tmp_path / f"bad{i}.bin", tag,
                                word, value)
            with pytest.raises(IndexFormatError) as excinfo:
                RoadPartIndex.load_binary(bad, medium_network)
            message = str(excinfo.value)
            assert f"bad{i}.bin" in message, message
            assert repr(tag) in message, message
            assert problem in message, message

    def test_json_non_hub_label_names_section(self, either_backend, saved_v2,
                                              hub_index, medium_network,
                                              tmp_path):
        json_path, _ = saved_v2
        doc = json.loads(json_path.read_text())
        hubs = set(doc["oracle"]["hubs"])
        doc["oracle"]["label_hubs"][0] = min(
            set(range(medium_network.num_vertices)) - hubs)
        bad = tmp_path / "nonhub.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(IndexFormatError,
                           match=r"nonhub\.json: oracle section 'orlhub'"):
            RoadPartIndex.load(bad, medium_network)

    def test_intact_file_still_loads(self, either_backend, saved_v2,
                                     medium_network):
        _, bin_path = saved_v2
        loaded = RoadPartIndex.load_binary(bin_path, medium_network)
        assert loaded.oracle is not None


class TestBuildDeterminism:
    @needs_fork
    def test_parallel_build_matches_serial_with_oracle(
            self, medium_network, hub_index, tmp_path):
        parallel = build_index(medium_network, border_count=8, jobs=2,
                               oracle="auto")
        serial_path = tmp_path / "serial.bin"
        parallel_path = tmp_path / "parallel.bin"
        hub_index.save_binary(serial_path)
        parallel.save_binary(parallel_path)
        assert (parallel_path.read_bytes()
                == serial_path.read_bytes())

    def test_build_stats_record_oracle_phase(self, hub_index,
                                             medium_index):
        assert hub_index.stats.oracle_kind == "hub"
        assert hub_index.stats.oracle_entries > 0
        assert hub_index.stats.oracle_seconds > 0
        assert medium_index.stats.oracle_kind == "none"
        assert medium_index.stats.oracle_entries == 0
