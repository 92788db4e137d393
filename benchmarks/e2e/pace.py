"""Host-speed pacing: a fixed reference task timed while a workload runs.

The benchmark runs on small shared virtual machines whose CPU speed
changes by up to 1.5x within seconds and by more between minutes, as
neighbours come and go, and not by the same amount on every CPU. No run
length averages that out. So each process of a workload is pinned to a CPU
of its own (:func:`cpu_pair`), and the load generator runs a fixed reference
task (heap pushes and pops plus dict updates, the simulator's own mix;
about 0.8 ms) on each of those CPUs whenever ``INTERVAL_S`` has passed
since the previous one, at a moment when no request is in flight. Every
timing the benchmark reports is scaled to *reference speed*: multiplied by
``REFERENCE_S / d``, where ``d`` is the median duration of the reference
tasks just before, during and just after the timed interval (averaged over
the CPUs). A time at reference speed is what the interval would have taken
on a host where the reference task takes exactly ``REFERENCE_S``. The
program neither calls this code nor runs while it runs, so a change to the
program moves scaled times as it moves wall times at a steady host speed.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import heapq
import os
import statistics
import threading
import time
from typing import Iterator, Sequence

#: Duration of one reference task at reference speed: about its median on
#: the 2-CPU host the benchmark was calibrated on, so that times at
#: reference speed read close to that host's wall times.
REFERENCE_S = 0.8e-3
#: Time between reference tasks: short against the seconds for which the
#: host's speed holds still, long against the task (about 2% overhead).
INTERVAL_S = 0.05


def reference_task(n: int = 2000) -> int:
    """Fixed pure-Python work: ``n`` heap pushes and pops, ``n`` dict updates."""
    heap: list[int] = []
    counts: dict[int, int] = {}
    for i in range(n):
        heapq.heappush(heap, (i * 7919) % 1009)
        counts[i & 255] = counts.get(i & 255, 0) + 1
    total = 0
    while heap:
        total += heapq.heappop(heap)
    return total + len(counts)


def cpu_pair() -> tuple[int, int]:
    """The CPU for the load generator and the one for a server child: the
    first two this process may run on (the same one on a 1-CPU host)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[min(1, len(allowed) - 1)]


class Pacer:
    """Times :func:`reference_task` between the requests of a timed phase.

    ``cpus`` are the CPUs the workload's processes are pinned to; the
    calling process must be pinned to the first. Load generators wrap every
    request (a cell, or a streamed batch of cells) in :meth:`request`. A
    probe that is due waits until no request is in flight and holds new ones
    back while it runs, so it measures the host, not the program competing
    with it. Probes also run with the garbage collector paused, so they
    never pay for the program's collections.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = tuple(cpus)
        #: ``(start, end, seconds per reference task)`` of every probe, in
        #: ``time.perf_counter`` seconds.
        self.probes: list[tuple[float, float, float]] = []
        self._next = 0.0
        self._in_flight = 0
        self._quiet = threading.Condition()
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._durations: list[float] = []

    @contextlib.contextmanager
    def request(self) -> Iterator[None]:
        """Around one request; runs a due probe first."""
        with self._quiet:
            while time.perf_counter() >= self._next:
                if self._in_flight == 0:
                    self.probe()
                else:
                    self._quiet.wait()
            self._in_flight += 1
        try:
            yield
        finally:
            with self._quiet:
                self._in_flight -= 1
                self._quiet.notify_all()

    def probe(self, times: int = 1) -> None:
        """Time the reference task ``times`` times on each of :attr:`cpus`."""
        home = self.cpus[0]
        for _ in range(times):
            enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                took = 0.0
                for cpu in self.cpus:
                    if cpu != home:
                        os.sched_setaffinity(0, {cpu})
                    began = time.perf_counter()
                    reference_task()
                    took += time.perf_counter() - began
                    if cpu != home:
                        os.sched_setaffinity(0, {home})
                end = time.perf_counter()
            finally:
                if enabled:
                    gc.enable()
            self.probes.append((start, end, took / len(self.cpus)))
            self._next = end + INTERVAL_S

    def _index(self) -> None:
        if len(self._durations) != len(self.probes):
            self.probes.sort()
            self._starts = [s for s, _, _ in self.probes]
            self._ends = [e for _, e, _ in self.probes]
            self._durations = [d for _, _, d in self.probes]

    def scale(self, start: float, end: float) -> float:
        """Factor taking wall seconds in ``[start, end]`` to reference speed:
        ``REFERENCE_S`` over the median probe from the last one that ended
        before ``start`` to the first one that began after ``end``."""
        self._index()
        first = max(bisect.bisect_right(self._ends, start) - 1, 0)
        last = bisect.bisect_left(self._starts, end)
        return REFERENCE_S / statistics.median(self._durations[first:last + 1])

    def elapsed(self, start: float, end: float) -> tuple[float, float]:
        """Wall seconds and seconds at reference speed in ``[start, end]``,
        both without the time spent in probes."""
        self._index()
        wall = scaled = 0.0
        bounds = [(start, start)] + [(s, e) for s, e, _ in self.probes] + [(end, end)]
        for (_, gap_start), (gap_end, _) in zip(bounds, bounds[1:]):
            gap_start, gap_end = max(gap_start, start), min(gap_end, end)
            if gap_end > gap_start:
                wall += gap_end - gap_start
                scaled += (gap_end - gap_start) * self.scale(gap_start, gap_end)
        return wall, scaled

    def median_probe_s(self) -> float:
        self._index()
        return statistics.median(self._durations)
