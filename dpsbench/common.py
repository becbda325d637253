"""Shared pieces of the DPS benchmark: statistics, answer fingerprints,
the environment block, spans and the self-time table.

Everything here is pure Python and touches the program under test only
through its public modules, so the helpers can be unit-tested without
building a network.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

#: Metric names the benchmark may print (the result schema's rule).
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer the value is one or two outliers.
MIN_SAMPLES_BEYOND = 10


class PercentileRefused(ValueError):
    """Raised when a sample is too small for the requested percentile."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    The median (``q <= 50``) needs one sample.  Any higher percentile is
    refused unless at least :data:`MIN_SAMPLES_BEYOND` samples lie
    beyond its rank, so a p95 needs 200 samples.
    """
    if not values:
        raise PercentileRefused("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    n = len(ordered)
    if q == 50.0:
        mid = n // 2
        return ordered[mid] if n % 2 else (ordered[mid - 1]
                                           + ordered[mid]) / 2.0
    rank = max(1, math.ceil(q / 100.0 * n))
    if q > 50.0 and n - rank < MIN_SAMPLES_BEYOND:
        raise PercentileRefused(
            f"p{q:g} of {n} samples has {n - rank} beyond it;"
            f" need {MIN_SAMPLES_BEYOND}")
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def p95_note(latencies: Sequence[float]) -> tuple:
    """The p95 latency in ms for printing, or why it was refused."""
    try:
        return percentile(latencies, 95) * 1e3, "ms"
    except PercentileRefused as exc:
        return f"refused ({exc})", ""


def closed_loop_timings(latencies: Sequence[float],
                        factors: Sequence[float]
                        ) -> Tuple[Dict[str, float], Dict[str, tuple]]:
    """Throughput and median latency of a closed loop at reference speed
    (each call's seconds over its speed factor, see :mod:`probe`), and
    the raw values as printed-only notes (with the raw p95)."""
    scaled = [lat / f for lat, f in zip(latencies, factors)]
    metrics = {"throughput_qps": len(scaled) / sum(scaled),
               "latency_p50_ms": median(scaled) * 1e3}
    notes = {"raw_throughput_qps": (len(latencies) / sum(latencies), "1/s"),
             "raw_latency_p50_ms": (median(latencies) * 1e3, "ms"),
             "mean_speed_factor": (sum(factors) / len(factors), "x"),
             "latency_p95_ms": p95_note(latencies)}
    return metrics, notes


def fingerprint(vertices: Iterable[int]) -> str:
    """Content hash of a DPS vertex set (order-independent)."""
    data = ",".join(map(str, sorted(vertices))).encode("ascii")
    return hashlib.sha1(data).hexdigest()[:16]


def query_id(algorithm: str, sources: Iterable[int],
             targets: Iterable[int]) -> str:
    """Content-derived query id: the same inputs give the same id in
    every run, so answers can be compared across runs."""
    text = (f"{algorithm}|{','.join(map(str, sorted(sources)))}"
            f"|{','.join(map(str, sorted(targets)))}")
    return hashlib.sha1(text.encode("ascii")).hexdigest()[:12]


class AnswerLedger:
    """Every answer's fingerprint, checked against earlier answers to
    the same query: repeats in this run, the untraced pass, another
    engine, and (through :class:`FingerprintStore`) earlier runs."""

    def __init__(self, known: Optional[Dict[str, str]] = None) -> None:
        self.known: Dict[str, str] = dict(known or {})
        self.mismatches: List[str] = []

    def record(self, qid: str, vertices: Iterable[int],
               where: str) -> bool:
        """Record one answer; returns False (and logs) on a mismatch."""
        fp = fingerprint(vertices)
        expected = self.known.setdefault(qid, fp)
        if expected != fp:
            self.mismatches.append(
                f"{where}: query {qid} answered {fp}, earlier {expected}")
            return False
        return True


class FingerprintStore:
    """Per-workload fingerprints persisted between runs of the same code.

    Queries are content-keyed, so a later run (any seed) that meets a
    query an earlier run answered must return the same vertex set.  The
    store is keyed by the program's source digest as well: another
    version of the program may give other valid answers, which
    :func:`repro.core.verify.verify_dps` and the in-run checks judge.
    """

    def __init__(self, directory: Path, workload: str, code: str) -> None:
        self.path = directory / f"fingerprints-{workload}-{code}.json"

    def load(self) -> Dict[str, str]:
        try:
            with open(self.path, encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return {}

    def save(self, fingerprints: Dict[str, str]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(fingerprints, fh, sort_keys=True)
        os.replace(tmp, self.path)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources, so a result names the
    code that produced it even where the checkout is not a git tree."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def env_block(root: Path, code: str, **extra: object
              ) -> Dict[str, object]:
    """What produced a result: interpreter, NumPy, vec backend, the
    engine the shipped default resolves to, cores and code identity
    (``code`` is :func:`source_digest` of the sources).  Workloads add
    the index's oracle kind and builder."""
    from repro.shortestpath.flat import resolve_engine
    from repro.vec.backend import backend_name
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    block: Dict[str, object] = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "vec_backend": backend_name(),
        "engine": resolve_engine("flat"),
        "oracle_policy": "auto",
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "src_sha256": code,
    }
    block.update(extra)
    return block


# -- spans ------------------------------------------------------------


class Tracer:
    """In-memory span recorder for the traced run.

    A span has a name, a request id shared by every span of one query,
    its parent span, start and end (``perf_counter`` seconds) and
    attributes.  ``phases`` (``{label: seconds}``, from ``QueryStats``)
    are attributes that count as child time when self time is computed.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._next_rid = 0

    def new_request(self) -> str:
        self._next_rid += 1
        return f"r{self._next_rid:05d}"

    @contextmanager
    def span(self, name: str, rid: str, **attrs: object
             ) -> Iterator[Dict[str, object]]:
        """Time the block as a child of the enclosing span; yields the
        attribute dict, which the caller may extend."""
        record = {"id": len(self.spans), "name": name, "rid": rid,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield attrs
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, rid: str, start: float, end: float,
            parent: Optional[int] = None, **attrs: object) -> int:
        """Record a span timed elsewhere (e.g. by a load-generator
        thread); returns its id."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "rid": rid, "parent": parent, "start": start,
                           "end": end, "attrs": attrs})
        return len(self.spans) - 1

    def write(self, path: Path, env: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "spans": self.spans}, fh)


def self_time_table(spans: Sequence[dict]) -> Dict[str, Dict[str, float]]:
    """``{layer: {count, total_s, self_s}}`` over a span list.

    A span's self time is its duration minus its child spans and minus
    the phase seconds in its ``phases`` attribute; each phase becomes a
    row of its own, named ``<module of the span>.<phase>``.
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    table: Dict[str, Dict[str, float]] = {}

    def add_row(name: str, total: float, own: float) -> None:
        row = table.setdefault(name, {"count": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += total
        row["self_s"] += own

    for span in spans:
        total = span["end"] - span["start"]
        phases: Dict[str, float] = span["attrs"].get("phases", {})
        add_row(span["name"], total, total - child_time.get(span["id"], 0.0)
                - sum(phases.values()))
        module = span["name"].rsplit(".", 1)[0]
        for label, secs in phases.items():
            add_row(f"{module}.{label}", secs, secs)
    return table


def render_table(table: Dict[str, Dict[str, float]]) -> str:
    lines = [f"{'layer':<44} {'count':>6} {'total_s':>10} {'self_s':>10}"]
    for name, row in sorted(table.items(),
                            key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<44} {int(row['count']):>6}"
                     f" {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    return "\n".join(lines)
