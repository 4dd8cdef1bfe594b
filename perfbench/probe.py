"""A host-speed probe that shares no code with the program.

The benchmark's times are reported at a reference host speed: each is
multiplied by how much faster than the reference the host ran a fixed
pure-Python loop around the time it was measured.
"""

from __future__ import annotations

import bisect
import os
import time

#: Every CPU the process may use, read before the benchmark pins itself.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


class _Counter:
    __slots__ = ("total", "slots")

    def __init__(self) -> None:
        self.total = 0
        self.slots = [0] * 8

    def step(self, i: int) -> int:
        self.total += i
        self.slots[i & 7] = self.total & 0xFFFF
        return self.total


def _reference_loop() -> int:
    """Fixed interpreter work: method calls, tuple-keyed dict, list stores.

    It shares no code with the program.  Its mix follows the simulator's
    (attribute access, dict lookups, small-int arithmetic); a plain
    arithmetic loop tracked the workloads' speed about half as well.
    """
    table: dict = {}
    counter = _Counter()
    acc = 0
    for i in range(3000):
        key = ("r", i & 15)
        table[key] = table.get(key, 0) + counter.step(i)
        acc ^= table[key] & 0xFF
    return acc


class SpeedProbe:
    """Times a fixed pure-Python loop between operations.

    On a shared VM the host's speed differs by up to 25% from one
    process to the next and swings by up to 2x within seconds; the
    workloads are bound by the interpreter.  Each ``tick`` measures how
    much faster than the reference the host runs the loop at that
    moment.  ``around(t0, t1)`` is the speed around one operation: the
    mean of the ticks from the last one before it to the first one after
    it.  Latencies are reported multiplied by it, that is at the
    reference speed.  ``speed`` is the speed of all ticks together;
    taken evenly over the window, it follows the window's average
    slowdown, as its summed time does, and scales rates and summed
    times.  ``spent_ns`` is the probe's own time, which windows leave
    out.

    With ``cpus`` the probe runs its loop on each of those CPUs in turn
    and takes their mean speed: for a workload whose work runs in worker
    processes spread over every CPU, not on the CPU of the benchmark
    process.  Without, it runs on the CPU the calling thread is on.
    """

    REFERENCE_NS = 2_000_000
    EVERY_NS = 500_000_000
    LOOPS = 3

    def __init__(self, cpus=None) -> None:
        self.cpus = sorted(cpus) if cpus else None
        self.times: list[int] = []      # end of each tick
        self.loops_ns: list[int] = []   # the tick's loops, summed
        self.speeds: list[float] = []   # the host speed at that tick
        self.spent_ns = 0
        self._last = 0

    def tick(self, force: bool = False) -> None:
        """Sample the loop if half a second has passed since the last."""
        now = time.perf_counter_ns()
        if not force and now - self._last < self.EVERY_NS:
            return
        if self.cpus is None:
            loops_ns = self._loops()
        else:
            # The mean per-CPU speed, as the loops' time at that speed.
            home = os.sched_getaffinity(0)
            try:
                speeds = []
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    speeds.append(1 / self._loops())
            finally:
                os.sched_setaffinity(0, home)
            loops_ns = round(len(speeds) / sum(speeds))
        self._last = time.perf_counter_ns()
        self.times.append(self._last)
        self.loops_ns.append(loops_ns)
        self.speeds.append(self.REFERENCE_NS * self.LOOPS / loops_ns)
        self.spent_ns += self._last - now

    def _loops(self) -> int:
        start = time.perf_counter_ns()
        for _ in range(self.LOOPS):
            _reference_loop()
        return time.perf_counter_ns() - start

    @property
    def speed(self) -> float:
        return (self.REFERENCE_NS * self.LOOPS * len(self.loops_ns)
                / sum(self.loops_ns))

    def around(self, t0: int, t1: int) -> float:
        """Mean speed of the ticks bracketing the span ``[t0, t1]``."""
        first = max(bisect.bisect_right(self.times, t0) - 1, 0)
        last = min(bisect.bisect_left(self.times, t1), len(self.times) - 1)
        near = self.speeds[first:last + 1]
        return sum(near) / len(near)

    def scale(self, spans: list) -> list:
        """``(end_ns, ns)`` spans as latencies at the reference speed."""
        return [ns * self.around(end - ns, end) for end, ns in spans]
