"""Statistics, metric names, result selection and the self-time table."""

import json
import os
from types import SimpleNamespace

import pytest

import layers
import run
from probe import RoundTripProbe, SpeedProbe
from common import (METRIC_NAME, AnswerLedger, FingerprintStore,
                    PercentileRefused, closed_loop_timings, median,
                    percentile, self_time_table)


def test_median_needs_one_sample():
    assert median([3.0]) == 3.0
    assert median([1.0, 5.0]) == 3.0


def test_tail_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(200)]
    assert percentile(values, 95) == 189.0
    with pytest.raises(PercentileRefused):
        percentile(values[:199], 95)
    with pytest.raises(PercentileRefused):
        percentile([1.0] * 19, 60)


def test_percentile_of_nothing_is_refused():
    with pytest.raises(PercentileRefused):
        median([])


def test_closed_loop_timings_scale_each_call_by_its_speed():
    # Two calls of the same work, the second in a spell twice as slow.
    metrics, notes = closed_loop_timings([0.010, 0.020], [1.0, 2.0])
    assert metrics["throughput_qps"] == pytest.approx(100.0)
    assert metrics["latency_p50_ms"] == pytest.approx(10.0)
    assert notes["raw_throughput_qps"][0] == pytest.approx(2 / 0.03)
    assert notes["raw_latency_p50_ms"][0] == pytest.approx(15.0)


def test_speed_factor_averages_blocks_within_one_call_length():
    with SpeedProbe() as probe:
        pass
    # Probe blocks (begin, end, factor) recorded between calls.
    probe._begins = [0.0, 2.0, 10.0]
    probe._ends = [1.0, 2.5, 11.0]
    probe._factors = [1.0, 2.0, 4.0]
    assert probe.around(1.0, 2.0) == pytest.approx(1.5)
    assert probe.around(2.5, 10.0) == pytest.approx(7.0 / 3.0)
    # A fixed reach; with no block within it, the nearest block.
    assert probe.around(3.0, 3.1, reach=1.0) == pytest.approx(2.0)
    assert probe.around(7.0, 7.1, reach=1.0) == pytest.approx(4.0)


def test_probe_runs_in_a_child_process_that_stops():
    with SpeedProbe(probes_per_block=2) as probe:
        probe.block()
        value, speed = probe.bracket(lambda: 42)
        child = probe._proc
        assert child.pid != os.getpid()
    assert child.returncode == 0
    assert value == 42 and len(probe._factors) == 3
    assert speed == pytest.approx(sum(probe._factors[1:]) / 2)


def test_round_trip_probe_serves_from_a_child_process_that_stops():
    with RoundTripProbe() as probe:
        probe.block()
        probe.block()
        child = probe._proc
        assert child.pid != os.getpid()
    assert child.returncode == 0
    assert len(probe._factors) == 2 and min(probe._factors) > 0


def _spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_every_metric_name_is_well_formed_and_unique():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(METRIC_NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _stats(algorithm, phases, extras):
    """The QueryStats fields the layer mapping reads."""
    return SimpleNamespace(algorithm=algorithm, phases=phases,
                           extras=extras, result_size=10,
                           counters={"vertices_settled": 40,
                                     "edges_relaxed": 90})


def test_layer_functions_emit_only_declared_names():
    declared = {m["name"] for m in _spec()["per_layer"]}
    stats = [_stats("RoadPart", {"cor3-ble": 0.5, "oracle": 0.1},
                    {"b": 6, "bv": 2, "oracle_hits": 3}),
             _stats("BL-Q", {"sssp": 1.0}, {"sssp_rounds": 4})]
    out = layers.from_query_stats(stats)
    assert set(out) <= declared
    assert out["core.roadpart.query.wasted_domain_sweeps"] == 1
    assert out["core.roadpart.query.oracle_hit_ratio"] == 0.5
    assert out["shortestpath.settles_per_s"] == 80 / 1.5
    assert set(layers.from_metrics_delta({}, {}, 0)) <= declared


def test_result_has_exactly_the_declared_metrics():
    spec = _spec()
    e2e = {m["name"]: 1.5 for m in spec["end_to_end"]}
    assert set(run._select(spec, e2e, trace=False)) == set(e2e)
    with pytest.raises(RuntimeError):
        run._select(spec, dict(e2e, extra_metric=1.0), trace=False)
    missing = dict(e2e)
    missing.pop("setup_s")
    with pytest.raises(RuntimeError):
        run._select(spec, missing, trace=False)
    # A layer the workload did not exercise reads 0.
    layer = run._select(spec, {"bench.trace_overhead": 1.1}, trace=True)
    assert layer["bench.trace_overhead"]["value"] == 1.1
    assert layer["core.blq.sssp_s"]["value"] == 0


def test_ledger_flags_a_changed_answer():
    ledger = AnswerLedger({"q1": "stale"})
    assert ledger.record("q2", [3, 1, 2], "a")
    assert ledger.record("q2", [1, 2, 3], "b")
    assert not ledger.record("q2", [1, 2], "c")
    assert not ledger.record("q1", [1], "d")
    assert len(ledger.mismatches) == 2


def test_fingerprint_store_is_per_code_version(tmp_path):
    FingerprintStore(tmp_path, "w", "aaaa").save({"q1": "f1"})
    assert FingerprintStore(tmp_path, "w", "aaaa").load() == {"q1": "f1"}
    # Other code may give other valid answers: it starts afresh.
    assert FingerprintStore(tmp_path, "w", "bbbb").load() == {}


def test_self_time_subtracts_children_and_phases():
    spans = [
        {"id": 0, "name": "bench.request", "rid": "r1", "parent": None,
         "start": 0.0, "end": 10.0, "attrs": {}},
        {"id": 1, "name": "core.blq.bl_quality", "rid": "r1", "parent": 0,
         "start": 1.0, "end": 9.0, "attrs": {"phases": {"sssp": 5.0,
                                                         "collect": 1.0}}},
    ]
    table = self_time_table(spans)
    assert table["bench.request"]["self_s"] == 2.0
    assert table["core.blq.bl_quality"]["self_s"] == 2.0
    assert table["core.blq.sssp"]["self_s"] == 5.0
