"""Per-layer metrics from the program's public instrumentation.

``QueryStats`` (phases, ``SearchCounters``, result extras) of the traced
pass's answers, ``IndexBuildStats`` of the build, and the daemon's
``/metrics`` counters are mapped onto the per-layer metric names of
``BENCHMARK.json``.  A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.obs.stats import QueryStats
from repro.vec.backend import has_backend

#: The SearchCounters fields the benchmark reports.
COUNTERS = ("vertices_settled", "edges_relaxed", "heap_pops", "stale_skips")

#: Phases that are SSSP kernel work (settles are counted only there;
#: the oracle phase runs label sweeps and counts no settles).
SSSP_PHASES = ("sssp", "connect-borders", "cor3-ble", "bridge-domains")

BLQ_PHASES = ("sssp", "collect")
HULL_PHASES = ("hull-membership", "crossing-border", "connect-borders")
ROADPART_PHASES = ("window", "region-prune", "bridge-classify", "cor3-ble",
                   "oracle", "bridge-domains", "path-patch")


def _phase_sum(stats: Iterable, label: str) -> float:
    return sum(s.phases.get(label, 0.0) for s in stats)


def _extra_sum(stats: Iterable, key: str) -> float:
    return sum(s.extras.get(key, 0) for s in stats)


def shortestpath(counters: Dict[str, float], sssp_seconds: float,
                 dps_vertices: float) -> Dict[str, float]:
    settled = counters.get("vertices_settled", 0)
    out = {f"shortestpath.{name}": counters.get(name, 0)
           for name in COUNTERS}
    out["shortestpath.settles_per_s"] = (settled / sssp_seconds
                                         if sssp_seconds else 0.0)
    out["shortestpath.settled_per_dps_vertex"] = (
        settled / dps_vertices if dps_vertices else 0.0)
    return out


def from_query_stats(stats: Sequence) -> Dict[str, float]:
    """Every query-path layer metric over a list of ``QueryStats``."""
    by_algo: Dict[str, list] = {}
    for s in stats:
        by_algo.setdefault(s.algorithm, []).append(s)
    blq = by_algo.get("BL-Q", [])
    hull = by_algo.get("ConvexHull", [])
    roadpart = by_algo.get("RoadPart", [])
    counters: Dict[str, float] = {}
    for s in stats:
        for name, value in s.counters.items():
            counters[name] = counters.get(name, 0) + value
    sssp_seconds = sum(_phase_sum(stats, p) for p in SSSP_PHASES)
    out = shortestpath(counters, sssp_seconds,
                       sum(s.result_size for s in stats))
    for label in BLQ_PHASES:
        out[f"core.blq.{label}_s"] = _phase_sum(blq, label)
    out["core.blq.sssp_rounds"] = _extra_sum(blq, "sssp_rounds")
    for label in HULL_PHASES:
        out[f"core.hull.{label}_s"] = _phase_sum(hull, label)
    out["core.hull.border_vertices"] = _extra_sum(hull, "border")
    out["core.hull.sssp_rounds"] = _extra_sum(hull, "sssp_rounds")
    out.update(roadpart_query(
        {label: _phase_sum(roadpart, label) for label in ROADPART_PHASES},
        examined=_extra_sum(roadpart, "b"),
        valid=_extra_sum(roadpart, "bv"),
        oracle_hits=_extra_sum(roadpart, "oracle_hits")))
    return out


def roadpart_query(phases: Dict[str, float], examined: float,
                   valid: float, oracle_hits: float) -> Dict[str, float]:
    out = {f"core.roadpart.query.{label}_s": phases.get(label, 0.0)
           for label in ROADPART_PHASES}
    out["core.roadpart.query.bridges_examined"] = examined
    out["core.roadpart.query.bridges_valid"] = valid
    out["core.roadpart.query.oracle_hit_ratio"] = (
        oracle_hits / examined if examined else 0.0)
    # A bridge the oracle did not rule out runs the dual-heap domain
    # sweep; the sweeps that then find the bridge invalid were wasted.
    out["core.roadpart.query.wasted_domain_sweeps"] = (
        examined - oracle_hits - valid)
    return out


def from_build_stats(build, save_s: float, load_s: float,
                     index_bytes: int) -> Dict[str, float]:
    """``core.roadpart.index.*`` from an ``IndexBuildStats``."""
    return {
        "core.roadpart.index.build_s": build.build_seconds,
        "core.roadpart.index.bridge_find_s": build.bridge_find_seconds,
        "core.roadpart.index.contour_s": build.contour_seconds,
        "core.roadpart.index.labeling_s": build.labeling_seconds,
        "core.roadpart.index.oracle_s": build.oracle_seconds,
        "core.roadpart.index.save_binary_s": save_s,
        "core.roadpart.index.load_binary_s": load_s,
        "core.roadpart.index.index_bytes": index_bytes,
    }


def from_metrics_delta(before: Dict[str, float], after: Dict[str, float],
                       computed_vertices: float) -> Dict[str, float]:
    """Query-path layer metrics from two ``/metrics`` scrapes of the
    daemon (its merged ``QueryStats`` of every computed answer)."""
    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    def phase(label: str) -> float:
        return delta(f'repro_phase_seconds_total{{phase="{label}"}}')

    counters = {name: delta(f"repro_search_{name}_total")
                for name in COUNTERS}
    out = shortestpath(counters, sum(phase(p) for p in SSSP_PHASES),
                       computed_vertices)
    for label in HULL_PHASES:
        out[f"core.hull.{label}_s"] = phase(label)
    # The daemon exports phases and engine counters but not the
    # per-answer bridge counts, so those read 0 here.
    out.update(roadpart_query({p: phase(p) for p in ROADPART_PHASES},
                              examined=0, valid=0, oracle_hits=0))
    return out


def numpy_over_flat(calls: List[Tuple[str, Callable]], repeats: int,
                    ledger, notes: Dict[str, tuple]) -> float:
    """SSSP-phase seconds of the same calls under ``engine="numpy"``
    over ``engine="flat"``, alternating which engine goes first.

    ``calls`` are ``(answer key, fn)`` with ``fn(stats=, engine=)``
    returning a DPS result; every answer must match ``ledger``.  Reads
    0 without the numpy backend.
    """
    if not has_backend():
        notes["numpy_over_flat"] = ("no numpy backend", "")
        return 0.0
    seconds = {"flat": 0.0, "numpy": 0.0}
    for rep in range(repeats):
        for engine in ("flat", "numpy")[::1 if rep % 2 == 0 else -1]:
            for key, fn in calls:
                stats = QueryStats()
                result = fn(stats=stats, engine=engine)
                seconds[engine] += sum(stats.phases.get(p, 0.0)
                                       for p in SSSP_PHASES)
                ledger.record(key, result.vertices, f"engine {engine}")
    return seconds["numpy"] / seconds["flat"]
