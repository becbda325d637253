"""Machine-speed probes, each run in a child process.

On a shared host the same Python work runs up to ~1.7x slower for
minutes at a time, so raw timings of one program, taken a few minutes
apart, differ by more than the benchmark's bounds.  A closed loop
therefore asks a child process for a block of fixed probe work before
its first call and after each call, and divides each call's time by the
speed factor of the blocks near it (:meth:`SpeedProbe.around`): its time
at reference speed.  Set-up times are scaled by the blocks just before
and after each set-up (:meth:`SpeedProbe.bracket`).

The probe runs in its own interpreter, so nothing the program does in
its process (a larger heap that makes garbage collection dearer, extra
threads holding the GIL) can slow the probe and be divided out; a
regression of the program shows in the scaled timings in full.  The
speed of a VM's vCPUs varies independently (one ran 1.7x faster than
the other for seconds at a time), so each block runs on the CPU the
program last ran on, while the program waits for it.

The open loop of serve-east uses :class:`RoundTripProbe` instead: round
trips to a reference HTTP server, which slow on a loaded host the way a
daemon cache hit does.

Run as a script, this module is a child: for each line it reads (a CPU
and a probe count) it runs that many probes on that CPU and answers with
their seconds; with ``--http`` it is the reference server, printing its
port and serving until its input closes.
"""

from __future__ import annotations

import bisect
import heapq
import http.client
import http.server
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from typing import Callable, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class _ProbeWork:
    """Fixed work of the kind the program does: a Dijkstra over a seeded
    random graph (heap, dict and list traffic over a few MB), stopped
    after :attr:`SETTLES` vertices (under a millisecond)."""

    NODES = 20000
    SETTLES = 300

    def __init__(self) -> None:
        rng = random.Random(0)
        self.adj = [[(rng.randrange(self.NODES), rng.random())
                     for _ in range(3)] for _ in range(self.NODES)]

    def __call__(self) -> int:
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        settled = set()
        while heap and len(settled) < self.SETTLES:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            for v, w in self.adj[u]:
                if d + w < dist.get(v, math.inf):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        return len(settled)


#: Typical seconds of one probe on the 2-vCPU Xeon VM the bounds were
#: set on; a speed factor of 1 means the machine ran like that.
REFERENCE_PROBE_S = 0.00100


def _current_cpu() -> int:
    """The CPU the calling thread last ran on (field 39 of its stat)."""
    with open("/proc/thread-self/stat", "rb") as fh:
        return int(fh.read().rsplit(b")", 1)[1].split()[36])


class _Factors:
    """Speed factors of probe blocks, with their times; use as a context
    manager, which stops the child process."""

    def __init__(self) -> None:
        self._begins: List[float] = []
        self._ends: List[float] = []
        self._factors: List[float] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        raise NotImplementedError

    def _record(self, began: float, ended: float, factor: float) -> None:
        self._begins.append(began)
        self._ends.append(ended)
        self._factors.append(factor)

    def around(self, start: float, end: float,
               reach: Optional[float] = None) -> float:
        """Speed factor (>1: slow) of a call timed from ``start`` to
        ``end``, between two blocks: the mean of the blocks within
        ``reach`` seconds (by default one call duration) of it on either
        side."""
        if reach is None:
            reach = end - start
        near = self._factors[bisect.bisect_left(self._ends, start - reach):
                             bisect.bisect_right(self._begins, end + reach)]
        if not near:  # no block that close: the nearest one
            nearest = min(range(len(self._factors)), key=lambda j: max(
                self._begins[j] - end, start - self._ends[j]))
            near = [self._factors[nearest]]
        return sum(near) / len(near)


class SpeedProbe(_Factors):
    """Speed factors around the timed calls of a closed loop."""

    def __init__(self, probes_per_block: int = 1) -> None:
        super().__init__()
        self.probes_per_block = probes_per_block
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)

    def close(self) -> None:
        """Stop the child (it exits at the end of its input)."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def block(self) -> None:
        """Run one block of probes in the child, on the CPU this thread
        last ran on, and record its factor."""
        began = time.perf_counter()
        self._proc.stdin.write(f"{_current_cpu()} {self.probes_per_block}\n")
        reply = self._proc.stdout.readline()
        ended = time.perf_counter()
        if not reply:
            raise RuntimeError(
                f"speed probe exited with {self._proc.wait()}")
        self._record(began, ended, float(reply) / self.probes_per_block
                     / REFERENCE_PROBE_S)

    def bracket(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """Run ``fn()`` between two blocks (a set-up, which times
        itself); returns its result and the blocks' mean speed factor."""
        self.block()
        result = fn()
        self.block()
        return result, (self._factors[-2] + self._factors[-1]) / 2


#: Typical seconds of one reference round trip on the VM above.
REFERENCE_ROUND_TRIP_S = 0.00150
#: The reference request: a Q-DPS body and an answer of the size of a
#: cached RoadPart answer.
_REFERENCE_BODY = json.dumps({"algorithm": "roadpart",
                              "Q": list(range(0, 4000, 20))}).encode()
_REFERENCE_ANSWER = json.dumps({"size": 400,
                                "vertices": list(range(400))}).encode()


class RoundTripProbe(_Factors):
    """Speed factors of an HTTP service: one round trip per block, on a
    new connection, to a reference server in a child process (stdlib
    ``ThreadingHTTPServer``, fixed answer).  It pays what a daemon cache
    hit pays apart from the daemon's own code: connect, thread start,
    header parsing, JSON and the wake-ups between client and server
    processes.  On a loaded host it slows like a hit does, which the
    CPU-bound :class:`SpeedProbe` does not: over seven serve-east runs at
    20 req/s whose raw median latency ranged 2.4-3.7 ms, dividing by
    SpeedProbe factors left a spread (IQR/median) of 0.072, by
    round-trip factors 0.040."""

    def __init__(self) -> None:
        super().__init__()
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--http"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        line = self._proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("reference server printed no port")
        self.port = int(line)

    def close(self) -> None:
        """Stop the server (it exits at the end of its input)."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def block(self) -> None:
        """One round trip; records its factor."""
        began = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=20)
        try:
            conn.request("POST", "/", _REFERENCE_BODY,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            if resp.status != 200 or resp.read() != _REFERENCE_ANSWER:
                raise RuntimeError("reference server answered wrongly")
        finally:
            conn.close()
        ended = time.perf_counter()
        self._record(began, ended,
                     (ended - began) / REFERENCE_ROUND_TRIP_S)


class _ReferenceHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(_REFERENCE_ANSWER)))
        self.end_headers()
        self.wfile.write(_REFERENCE_ANSWER)

    def log_message(self, fmt: str, *args: object) -> None:
        pass


def _serve() -> None:
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                             _ReferenceHandler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()  # until the parent closes it
    server.shutdown()


def _child() -> None:
    work = _ProbeWork()
    on = None
    for line in sys.stdin:
        cpu, count = map(int, line.split())
        if cpu != on:
            os.sched_setaffinity(0, {cpu})
            on = cpu
        began = time.perf_counter()
        for _ in range(count):
            work()
        print(time.perf_counter() - began, flush=True)


if __name__ == "__main__":
    _serve() if sys.argv[1:] == ["--http"] else _child()
