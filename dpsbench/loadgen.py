"""Open-loop load generator.

Requests have due times fixed by a seeded schedule.  ``workers`` threads
(at most the core count) each take the next request in due order, wait
until it is due and send it, so at most ``workers`` requests are in
flight.  When every worker is busy past a due time the request goes out
late; its latency still counts from when it was due, so a stall is
charged to every request queued behind it, and the lateness itself is
reported.

An optional ``idle`` hook runs in the quiet gaps of the load: a worker
that has a reply calls it when nothing is in flight and no request is
due within ``idle_gap`` seconds (serve-east probes the machine's speed
there).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

#: What ``send`` returns for one request: (status, body, cache header).
Reply = Tuple[int, bytes, str]


@dataclass
class Record:
    index: int
    due: float        #: seconds after start
    sent: float       #: seconds after start
    done: float       #: seconds after start
    status: int       #: HTTP status, 0 when the request raised
    body: bytes
    cache: str        #: X-Repro-Cache value ("" when absent)

    @property
    def latency(self) -> float:
        """Seconds from due time to reply."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """Seconds the request was sent after its due time."""
        return self.sent - self.due


def max_workers(requested: int) -> int:
    return max(1, min(requested, os.cpu_count() or 1))


class OpenLoop:
    """Send ``len(dues)`` requests on schedule; see the module docstring.

    ``send(i)`` performs request ``i`` and returns a :data:`Reply`; it is
    called from worker threads, each worker always the same thread, so a
    per-thread connection is safe.  ``clock`` and ``sleep`` are
    injectable so tests can drive the generator with a fake clock.
    """

    def __init__(self, dues: Sequence[float], send: Callable[[int], Reply],
                 workers: int,
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep,
                 idle: Optional[Callable[[], None]] = None,
                 idle_gap: float = 0.0) -> None:
        if list(dues) != sorted(dues):
            raise ValueError("due times must be non-decreasing")
        self.dues = list(dues)
        self.send = send
        self.workers = max_workers(workers)
        self.clock = clock
        self.sleep = sleep
        self.idle = idle
        self.idle_gap = idle_gap
        self.records: List[Optional[Record]] = [None] * len(self.dues)
        self._next = 0
        #: Taken requests not sent yet, and requests in flight.
        self._waiting: Set[int] = set()
        self._sending = 0
        self._idling = False
        self._lock = threading.Lock()
        self._errors: List[BaseException] = []
        self.start = 0.0

    def _take(self) -> Optional[int]:
        """The next request, or None when all are taken."""
        with self._lock:
            if self._next >= len(self.dues):
                return None
            self._next += 1
            self._waiting.add(self._next - 1)
            return self._next - 1

    def _idle_if_quiet(self) -> None:
        """Run the idle hook if nothing is in flight, nothing is due
        within ``idle_gap`` and no other worker is running it."""
        with self._lock:
            dues = [self.dues[j] for j in self._waiting]
            if self._next < len(self.dues):
                dues.append(self.dues[self._next])
            if (self._sending or self._idling or not dues
                    or self.start + min(dues) - self.clock()
                    <= self.idle_gap):
                return
            self._idling = True
        try:
            self.idle()
        finally:
            with self._lock:
                self._idling = False

    def _worker(self) -> None:
        try:
            self._send_all()
        except BaseException as exc:  # re-raised by run()
            with self._lock:
                self._errors.append(exc)
                self._next = len(self.dues)  # stop the other workers

    def _send_all(self) -> None:
        while True:
            i = self._take()
            if i is None:
                return
            wait = self.start + self.dues[i] - self.clock()
            if wait > 0:
                self.sleep(wait)
            with self._lock:
                self._waiting.discard(i)
                self._sending += 1
            sent = self.clock()
            try:
                status, body, cache = self.send(i)
            except OSError:
                status, body, cache = 0, b"", ""
            done = self.clock()
            self.records[i] = Record(i, self.dues[i], sent - self.start,
                                     done - self.start, status, body, cache)
            with self._lock:
                self._sending -= 1
            if self.idle is not None:
                self._idle_if_quiet()

    def run(self) -> List[Record]:
        self.start = self.clock()
        if self.workers == 1:
            self._worker()
        else:
            threads = [threading.Thread(target=self._worker,
                                        name=f"loadgen-{k}", daemon=True)
                       for k in range(self.workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if self._errors:
            raise self._errors[0]
        return self.records  # type: ignore[return-value]
