"""Compact binary RoadPart index layout, loadable zero-copy via mmap.

The legacy on-disk index is JSON (``roadpart-index-v1``): simple, but a
load parses and materialises every ``O(|V|)`` structure as Python
objects, and every daemon worker or fork pool pays that again.  This
module defines ``roadpart-index-bin-v1``, a sectioned little-endian
binary layout whose large arrays are read through :mod:`mmap`:

- the file's pages are shared by every process that maps it (the OS
  page cache holds one copy per host, however many daemons serve it);
- the ``O(|V|)`` ``region_of`` array is exposed as a ``memoryview``
  cast straight over the mapping -- no parse, no copy, and forked
  workers inherit the mapping itself rather than a copy-on-write heap;
- small derived structures (region label vectors, the bridge set) are
  materialised eagerly -- they are ``O(ℓ|R| + |bridges|)``, far below
  ``O(|V|)``, and query code needs them as tuples/sets anyway.

Layout (all integers little-endian)::

    offset  size  field
    0       4     magic  b"RPIX"
    4       4     version        u32  (currently 1)
    8       4     flags          u32  (reserved, must be 0)
    12      4     num_vertices   u32
    16      4     border_count   u32  (= label dimensions, ℓ)
    20      4     region_count   u32
    24      4     bridge_count   u32
    28      4     section_count  u32
    32      ...   section table: section_count × (tag 8s, offset u64,
                  length u64) -- offsets from file start, 8-aligned
    ...           section payloads

Sections (tags are 8 bytes, NUL-padded):

    ``borders``   border_count u32 vertex ids, contour order
    ``regionof``  num_vertices u32 region ids (vertex-indexed)
    ``vectors``   region_count × ℓ × 2 u32 zone numbers, region-major,
                  ``(lo, hi)`` per dimension
    ``bridges``   bridge_count × 2 u32 endpoints, pairs sorted
                  ascending (the same order ``to_dict`` emits)

**Version 2** (``roadpart-index-bin-v2``) extends the layout with a
distance-oracle payload (see :mod:`repro.shortestpath.oracle`).  An
index *without* an oracle is still written as version 1, byte-identical
to older builds; only oracle-carrying files bump the header version.
Version-1 readers reject v2 files with a clear version error; this
reader accepts both and hands v1 files back with ``oracle=None``.
Oracle sections (all after the v1 base sections):

    ``oracle``    4 u32 meta words: kind (1=hub, 2=ch), count_a,
                  count_b, reserved (0).  hub: count_a=hub count,
                  count_b=label entries; ch: count_a=num_vertices,
                  count_b=upward edges.
    ``orhubs``    hub: hub vertex ids, processing order (u32)
    ``orloff``    hub: num_vertices+1 label offsets (u32, CSR)
    ``orlhub``    hub: label hub ids, vertex-major (u32)
    ``orldst``    hub: label distances (f64, same order)
    ``orchrk``    ch: num_vertices contraction ranks (u32)
    ``orchof``    ch: num_vertices+1 upward-edge offsets (u32, CSR)
    ``orchtg``    ch: upward edge targets (u32)
    ``orchwt``    ch: upward edge weights (f64)

The f64 payloads are mmap views too (cast ``"d"``), so a daemon loads
million-entry label sets without materialising a single Python float.
A section tag this build does not know is a structural defect, not
silent forward compatibility: the loader raises
:class:`~repro.errors.IndexFormatError` naming the path and the tag.

Every structural defect raises
:class:`~repro.errors.IndexFormatError` naming the path and the
problem, mirroring the JSON loader's contract; the hub-label sections'
contents (offsets, hub ids, distances) are checked at load by
:func:`repro.shortestpath.oracle.oracle_from_payload`.  Binding to the
wrong network is the caller's check (``num_vertices`` is in the
header).  The writer dumps a u32/f64 section held as a typed array (or
a view of one) with a single buffer copy on little-endian hosts, and
packs anything else value by value.
"""

from __future__ import annotations

import array
import mmap
import os
import struct
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import IndexFormatError

MAGIC = b"RPIX"
VERSION = 1
VERSION_ORACLE = 2
SUPPORTED_VERSIONS = (VERSION, VERSION_ORACLE)
FORMAT_NAME = "roadpart-index-bin-v1"
FORMAT_NAME_V2 = "roadpart-index-bin-v2"

_HEADER = struct.Struct("<4sIIIIIII")
_SECTION = struct.Struct("<8sQQ")
_U32_MAX = 0xFFFFFFFF

#: Section tags in file order.
SECTION_TAGS = (b"borders", b"regionof", b"vectors", b"bridges")

#: Oracle meta section (v2 only): kind, count_a, count_b, reserved.
ORACLE_META_TAG = b"oracle"
#: Hub-label oracle payload sections, file order.
HUB_SECTION_TAGS = (b"orhubs", b"orloff", b"orlhub", b"orldst")
#: Contraction-hierarchy oracle payload sections, file order.
CH_SECTION_TAGS = (b"orchrk", b"orchof", b"orchtg", b"orchwt")
#: Every section tag a v2 file may carry beyond the v1 base.
ORACLE_SECTION_TAGS = (ORACLE_META_TAG,) + HUB_SECTION_TAGS + CH_SECTION_TAGS
#: Oracle kind codes in the ``oracle`` meta section.
ORACLE_KIND_CODES = {"hub": 1, "ch": 2}
_ORACLE_KIND_NAMES = {code: kind for kind, code in ORACLE_KIND_CODES.items()}
#: f64 payload sections (everything else is u32).
_F64_TAGS = frozenset({b"orldst", b"orchwt"})


def _pad8(n: int) -> int:
    return (n + 7) & ~7


def _native_buffer(values, code: str) -> Optional[memoryview]:
    """A flat view of ``values`` when it is an :class:`array.array` or
    ``memoryview`` of typecode ``code`` on a little-endian host -- its
    bytes are then already the file layout -- else ``None``."""
    if sys.byteorder != "little":
        return None
    if isinstance(values, array.array) and values.typecode == code:
        view = memoryview(values)
    elif isinstance(values, memoryview) and values.format == code:
        view = values
    else:
        return None
    return view if view.itemsize == struct.calcsize("<" + code) else None


def _u32_bytes(values) -> bytes:
    view = _native_buffer(values, "I")
    if view is not None:
        return view.tobytes()
    out = bytearray()
    for v in values:
        if not 0 <= v <= _U32_MAX:
            raise ValueError(f"value {v} does not fit in u32")
        out += struct.pack("<I", v)
    return bytes(out)


def _f64_bytes(values) -> bytes:
    view = _native_buffer(values, "d")
    if view is not None:
        return view.tobytes()
    out = bytearray()
    for v in values:
        out += struct.pack("<d", v)
    return bytes(out)


def _oracle_sections(oracle: Dict[str, object]) -> Dict[bytes, bytes]:
    """Flatten one oracle payload dict (the ``to_payload`` form of
    :mod:`repro.shortestpath.oracle`) into v2 section blobs."""
    kind = oracle["kind"]
    code = ORACLE_KIND_CODES.get(kind)
    if code is None:
        raise ValueError(f"unknown oracle payload kind {kind!r}")
    if kind == "hub":
        meta = (code, len(oracle["hubs"]), len(oracle["label_hubs"]), 0)
        return {
            ORACLE_META_TAG: _u32_bytes(meta),
            b"orhubs": _u32_bytes(oracle["hubs"]),
            b"orloff": _u32_bytes(oracle["offsets"]),
            b"orlhub": _u32_bytes(oracle["label_hubs"]),
            b"orldst": _f64_bytes(oracle["label_dists"]),
        }
    meta = (code, len(oracle["rank"]), len(oracle["up_targets"]), 0)
    return {
        ORACLE_META_TAG: _u32_bytes(meta),
        b"orchrk": _u32_bytes(oracle["rank"]),
        b"orchof": _u32_bytes(oracle["offsets"]),
        b"orchtg": _u32_bytes(oracle["up_targets"]),
        b"orchwt": _f64_bytes(oracle["up_weights"]),
    }


def write_index_binary(path, num_vertices: int,
                       border_vertex_ids: Sequence[int],
                       region_of: Sequence[int],
                       vectors: Sequence[Tuple[Tuple[int, int], ...]],
                       bridges: Sequence[Tuple[int, int]],
                       oracle: Optional[Dict[str, object]] = None) -> None:
    """Serialise one index's parts as a binary RoadPart index file.

    ``bridges`` must already be the canonical sorted pair list (the
    writer sorts defensively so binary and JSON agree byte-for-byte on
    bridge order).  Without ``oracle`` the file is written as version 1
    -- byte-identical to pre-oracle builds; with an oracle payload dict
    (the ``to_payload`` form) the header says version 2 and the oracle
    sections follow the v1 base sections.
    """
    dims = len(vectors[0]) if vectors else len(border_vertex_ids)
    flat_vectors: List[int] = []
    for vector in vectors:
        if len(vector) != dims:
            raise ValueError("ragged region vectors")
        for lo, hi in vector:
            flat_vectors.append(lo)
            flat_vectors.append(hi)
    bridge_pairs = sorted(tuple(b) for b in bridges)
    payloads = {
        b"borders": _u32_bytes(border_vertex_ids),
        b"regionof": _u32_bytes(region_of),
        b"vectors": _u32_bytes(flat_vectors),
        b"bridges": _u32_bytes(v for pair in bridge_pairs for v in pair),
    }
    tags: Tuple[bytes, ...] = SECTION_TAGS
    version = VERSION
    if oracle is not None:
        extra = _oracle_sections(oracle)
        payloads.update(extra)
        kind_tags = (HUB_SECTION_TAGS if oracle["kind"] == "hub"
                     else CH_SECTION_TAGS)
        tags = SECTION_TAGS + (ORACLE_META_TAG,) + kind_tags
        version = VERSION_ORACLE
    table_offset = _HEADER.size
    data_offset = _pad8(table_offset + _SECTION.size * len(tags))
    table = bytearray()
    body = bytearray()
    for tag in tags:
        payload = payloads[tag]
        offset = data_offset + len(body)
        table += _SECTION.pack(tag.ljust(8, b"\0"), offset, len(payload))
        body += payload
        body += b"\0" * (_pad8(len(payload)) - len(payload))
    header = _HEADER.pack(MAGIC, version, 0, num_vertices,
                          len(border_vertex_ids), len(vectors),
                          len(bridge_pairs), len(tags))
    blob = header + bytes(table)
    blob += b"\0" * (data_offset - len(blob))
    blob += bytes(body)
    with open(path, "wb") as stream:
        stream.write(blob)


@dataclass
class BinaryIndexHeader:
    """The fixed header plus the section table of one binary index."""

    version: int
    num_vertices: int
    border_count: int
    region_count: int
    bridge_count: int
    sections: Dict[bytes, Tuple[int, int]]  #: tag -> (offset, length)


@dataclass
class BinaryIndexPayload:
    """Everything :func:`read_index_binary` hands back.

    ``region_of`` is a ``memoryview`` cast over the mapping on
    little-endian hosts (zero-copy; indexing and iteration behave like
    a list of ints).  ``mapping`` must stay referenced for as long as
    any view into it lives -- callers stash it on the index object.
    """

    header: BinaryIndexHeader
    border_vertex_ids: List[int]
    region_of: Sequence[int]
    vectors: List[Tuple[Tuple[int, int], ...]]
    bridges: List[Tuple[int, int]]
    mapping: object
    #: Oracle payload dict (``to_payload`` form, arrays as mmap views)
    #: for v2 files; ``None`` for v1.
    oracle: Optional[Dict[str, object]] = None


def sniff_binary(path) -> bool:
    """True when ``path`` starts with the binary index magic."""
    try:
        with open(path, "rb") as stream:
            return stream.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def read_header(path,
                data: Optional[memoryview] = None) -> BinaryIndexHeader:
    """Parse and validate the header + section table of ``path``.

    ``data`` (the full mapped file) is optional; without it the bytes
    are read directly -- ``repro index info`` uses this to describe a
    file without touching its payload sections.
    """
    if data is None:
        with open(path, "rb") as stream:
            raw = stream.read(_HEADER.size + _SECTION.size * 16)
        size = os.path.getsize(path)
    else:
        raw = bytes(data[:_HEADER.size + _SECTION.size * 16])
        size = len(data)
    if len(raw) < _HEADER.size:
        raise IndexFormatError(
            f"{path}: truncated header ({len(raw)} bytes, need"
            f" {_HEADER.size})")
    (magic, version, flags, num_vertices, border_count, region_count,
     bridge_count, section_count) = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise IndexFormatError(
            f"{path}: not a binary RoadPart index (magic {magic!r},"
            f" expected {MAGIC!r})")
    if version not in SUPPORTED_VERSIONS:
        raise IndexFormatError(
            f"{path}: unsupported binary index version {version}"
            f" (this build reads versions"
            f" {', '.join(str(v) for v in SUPPORTED_VERSIONS)})")
    if flags != 0:
        raise IndexFormatError(
            f"{path}: reserved flags field is {flags:#x}, expected 0")
    if section_count < len(SECTION_TAGS) or section_count > 64:
        raise IndexFormatError(
            f"{path}: implausible section count {section_count}")
    table_end = _HEADER.size + _SECTION.size * section_count
    if len(raw) < table_end:
        raise IndexFormatError(
            f"{path}: truncated section table ({len(raw)} bytes, need"
            f" {table_end})")
    sections: Dict[bytes, Tuple[int, int]] = {}
    for i in range(section_count):
        tag, offset, length = _SECTION.unpack_from(
            raw, _HEADER.size + _SECTION.size * i)
        tag = tag.rstrip(b"\0")
        if offset + length > size:
            raise IndexFormatError(
                f"{path}: section {tag.decode('ascii', 'replace')!r}"
                f" runs past end of file"
                f" (offset {offset} + length {length} > {size})")
        if length % 4:
            raise IndexFormatError(
                f"{path}: section {tag.decode('ascii', 'replace')!r}"
                f" length {length} is not a multiple of 4")
        sections[tag] = (offset, length)
    known = set(SECTION_TAGS)
    if version >= VERSION_ORACLE:
        known.update(ORACLE_SECTION_TAGS)
    unknown = [t for t in sections if t not in known]
    if unknown:
        names = ", ".join(repr(t.decode("ascii", "replace"))
                          for t in unknown)
        raise IndexFormatError(
            f"{path}: unknown section {names} (this build understands:"
            f" {', '.join(t.decode('ascii') for t in sorted(known))})")
    missing = [t for t in SECTION_TAGS if t not in sections]
    if missing:
        raise IndexFormatError(
            f"{path}: missing sections:"
            f" {', '.join(t.decode('ascii') for t in missing)}")
    return BinaryIndexHeader(version, num_vertices, border_count,
                             region_count, bridge_count, sections)


def _u32_view(path, data: memoryview, tag: bytes, offset: int,
              length: int, expected: int) -> Sequence[int]:
    if length != expected * 4:
        raise IndexFormatError(
            f"{path}: section {tag.decode('ascii')!r} holds"
            f" {length // 4} u32s, header implies {expected}")
    view = data[offset:offset + length]
    if sys.byteorder == "little":
        return view.cast("I")
    # Big-endian host: one byte-swapped copy (correctness over zero-copy
    # on the rare platform where the layout is foreign).
    arr = array.array("I", view.tobytes())
    arr.byteswap()
    return arr


def _f64_view(path, data: memoryview, tag: bytes, offset: int,
              length: int, expected: int) -> Sequence[float]:
    if length != expected * 8:
        raise IndexFormatError(
            f"{path}: section {tag.decode('ascii')!r} holds"
            f" {length // 8} f64s, header implies {expected}")
    view = data[offset:offset + length]
    if sys.byteorder == "little":
        return view.cast("d")
    arr = array.array("d", view.tobytes())
    arr.byteswap()
    return arr


def read_oracle_meta(path, header: BinaryIndexHeader,
                     ) -> Optional[Tuple[str, int, int]]:
    """Return ``(kind, count_a, count_b)`` from the oracle meta section
    without touching the payload arrays (``repro index info``), or
    ``None`` when the file carries no oracle."""
    got = header.sections.get(ORACLE_META_TAG)
    if got is None:
        return None
    offset, length = got
    if length != 16:
        raise IndexFormatError(
            f"{path}: oracle meta section is {length} bytes, expected 16")
    with open(path, "rb") as stream:
        stream.seek(offset)
        raw = stream.read(16)
    code, count_a, count_b, _reserved = struct.unpack("<IIII", raw)
    kind = _ORACLE_KIND_NAMES.get(code)
    if kind is None:
        raise IndexFormatError(
            f"{path}: unknown oracle kind code {code}")
    return kind, count_a, count_b


def _section(path, header: BinaryIndexHeader,
             tag: bytes) -> Tuple[int, int]:
    got = header.sections.get(tag)
    if got is None:
        raise IndexFormatError(
            f"{path}: oracle section {tag.decode('ascii')!r} missing")
    return got


def _read_oracle(path, data: memoryview,
                 header: BinaryIndexHeader) -> Dict[str, object]:
    """Decode the v2 oracle sections into the payload-dict form
    :func:`repro.shortestpath.oracle.oracle_from_payload` accepts, with
    the big arrays as zero-copy views over the mapping."""
    off, length = _section(path, header, ORACLE_META_TAG)
    meta = _u32_view(path, data, ORACLE_META_TAG, off, length, 4)
    code, count_a, count_b, reserved = meta
    kind = _ORACLE_KIND_NAMES.get(code)
    if kind is None:
        raise IndexFormatError(
            f"{path}: unknown oracle kind code {code}")
    if reserved != 0:
        raise IndexFormatError(
            f"{path}: oracle reserved word is {reserved:#x}, expected 0")
    n = header.num_vertices
    if kind == "hub":
        off, length = _section(path, header, b"orhubs")
        hubs = _u32_view(path, data, b"orhubs", off, length, count_a)
        off, length = _section(path, header, b"orloff")
        offsets = _u32_view(path, data, b"orloff", off, length, n + 1)
        off, length = _section(path, header, b"orlhub")
        label_hubs = _u32_view(path, data, b"orlhub", off, length, count_b)
        off, length = _section(path, header, b"orldst")
        label_dists = _f64_view(path, data, b"orldst", off, length, count_b)
        return {"kind": "hub", "hubs": hubs, "offsets": offsets,
                "label_hubs": label_hubs, "label_dists": label_dists}
    if count_a != n:
        raise IndexFormatError(
            f"{path}: oracle rank count {count_a} does not match"
            f" num_vertices {n}")
    off, length = _section(path, header, b"orchrk")
    rank = _u32_view(path, data, b"orchrk", off, length, n)
    off, length = _section(path, header, b"orchof")
    offsets = _u32_view(path, data, b"orchof", off, length, n + 1)
    off, length = _section(path, header, b"orchtg")
    targets = _u32_view(path, data, b"orchtg", off, length, count_b)
    off, length = _section(path, header, b"orchwt")
    weights = _f64_view(path, data, b"orchwt", off, length, count_b)
    return {"kind": "ch", "rank": rank, "offsets": offsets,
            "up_targets": targets, "up_weights": weights}


def read_index_binary(path) -> BinaryIndexPayload:
    """mmap ``path`` and decode it into index parts.

    The ``regionof`` section -- the only ``O(|V|)`` payload -- stays a
    view over the mapping; everything else is materialised as the small
    Python structures query code consumes.
    """
    with open(path, "rb") as stream:
        if os.path.getsize(path) == 0:
            raise IndexFormatError(f"{path}: empty file")
        mapped = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
    data = memoryview(mapped)
    header = read_header(path, data)
    off, length = header.sections[b"borders"]
    borders = list(_u32_view(path, data, b"borders", off, length,
                             header.border_count))
    off, length = header.sections[b"regionof"]
    region_of = _u32_view(path, data, b"regionof", off, length,
                          header.num_vertices)
    off, length = header.sections[b"vectors"]
    flat = _u32_view(path, data, b"vectors", off, length,
                     header.region_count * header.border_count * 2)
    dims = header.border_count
    vectors: List[Tuple[Tuple[int, int], ...]] = []
    for r in range(header.region_count):
        base = r * dims * 2
        vectors.append(tuple((flat[base + 2 * d], flat[base + 2 * d + 1])
                             for d in range(dims)))
    off, length = header.sections[b"bridges"]
    flat_bridges = _u32_view(path, data, b"bridges", off, length,
                             header.bridge_count * 2)
    bridges = [(flat_bridges[2 * i], flat_bridges[2 * i + 1])
               for i in range(header.bridge_count)]
    bad = max(region_of, default=0)
    if header.region_count and bad >= header.region_count:
        raise IndexFormatError(
            f"{path}: region id {bad} out of range"
            f" (region_count {header.region_count})")
    oracle = None
    if header.version >= VERSION_ORACLE and ORACLE_META_TAG in header.sections:
        oracle = _read_oracle(path, data, header)
    return BinaryIndexPayload(header, borders, region_of, vectors,
                              bridges, mapped, oracle)
