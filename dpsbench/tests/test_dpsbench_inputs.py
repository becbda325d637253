"""Seeded inputs and the open-loop generator."""

import threading
import time

import pytest

from repro.datasets.catalog import DATASETS

from inputs import many_source_batch, roadpart_pool, serve_schedule
from loadgen import OpenLoop, max_workers


@pytest.fixture(scope="module")
def network():
    return DATASETS["COL-S"].build()[0]


def _schedule(network, seed):
    requests, _ = serve_schedule(network, seed, rate=20.0, seconds=10.0)
    return [(r.due, r.kind, r.body) for r in requests]


def test_same_seed_same_inputs_other_seed_other_inputs(network):
    for make in (lambda s: many_source_batch(network, s),
                 lambda s: roadpart_pool(network, s, 12),
                 lambda s: _schedule(network, s)):
        assert make(3) == make(3)
        assert make(3) != make(4)


def test_schedule_mix_is_fixed_and_due_ordered(network):
    for seed in (1, 2):
        requests, queries = serve_schedule(network, seed, 20.0, 10.0)
        dues = [r.due for r in requests]
        assert dues == sorted(dues) and 0.0 <= dues[0] <= dues[-1] < 10.0
        kinds = [r.kind for r in requests]
        assert (kinds.count("popular"), kinds.count("hull")) == (184, 4)
        assert {r.qid for r in requests} == set(queries)


def test_schedule_keeps_identical_concurrent_misses(network):
    """Twin slots send one new query twice at the same due time: both
    are misses in flight together, so a daemon that does not coalesce
    them computes the key twice."""
    requests, _ = serve_schedule(network, 5, 20.0, 10.0)
    seen = set()
    twins = 0
    for a, b in zip(requests, requests[1:]):
        if a.qid == b.qid and a.due == b.due and a.qid not in seen:
            twins += 1
        seen.add(a.qid)
    assert twins >= 2


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_latency_counts_from_due_time_and_lateness_is_reported():
    clock = FakeClock()
    service = [0.5, 0.1, 0.1, 0.1]

    def send(i):
        clock.now += service[i]
        return 200, b"", "miss"

    records = OpenLoop([0.0, 0.2, 0.3, 2.0], send, workers=1,
                       clock=clock, sleep=clock.sleep).run()
    # Request 1 was due at 0.2 but went out at 0.5, behind request 0.
    assert [round(r.lateness, 9) for r in records] == [0.0, 0.3, 0.3, 0.0]
    assert [round(r.latency, 9) for r in records] == [0.5, 0.4, 0.4, 0.1]


def test_in_flight_never_exceeds_workers():
    lock = threading.Lock()
    state = {"now": 0, "max": 0}

    def send(i):
        with lock:
            state["now"] += 1
            state["max"] = max(state["max"], state["now"])
        time.sleep(0.001)
        with lock:
            state["now"] -= 1
        return 200, b"", "hit"

    records = OpenLoop([0.0] * 40, send, workers=64).run()
    assert len(records) == 40
    assert state["max"] <= max_workers(64)


def test_idle_hook_runs_only_in_quiet_gaps():
    clock = FakeClock()
    start = clock.now
    quiet_at = []

    def send(i):
        clock.now += 0.001
        return 200, b"", "hit"

    # After request 0 the next is due in 4 ms, after request 1 in ~1 s,
    # after request 2 nothing is left.
    OpenLoop([0.0, 0.005, 1.0], send, workers=1, clock=clock,
             sleep=clock.sleep, idle=lambda: quiet_at.append(clock.now - start),
             idle_gap=0.010).run()
    assert quiet_at == [pytest.approx(0.006)]


def test_due_times_must_be_sorted():
    with pytest.raises(ValueError):
        OpenLoop([1.0, 0.5], lambda i: (200, b"", ""), workers=1)
