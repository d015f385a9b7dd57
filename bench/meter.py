"""Normalised timing of in-process work, one slice at a time.

A :class:`Meter` times *slices* — single calls into the program's
public API, each at most a few hundred milliseconds — with the frozen
reference kernel run immediately before and immediately after every
one (back-to-back slices share the kernel run between them).  A slice
counts as::

    cpu_seconds * REF_KERNEL_MS / mean(kernel before, kernel after)
    + max(0, wall - cpu - steal - runqueue wait)        (blocked on I/O)

CPU time carries the host's slow phases (removed by the kernel ratio)
but not its preemptions; the second term puts back what wall time would
have shown had nothing preempted the thread — time blocked in
``fsync`` and friends — so a change that adds blocking I/O still moves
the metric.  It is clamped per pass, not per slice: steal is exposed in
10 ms ticks.  Raw wall and CPU sums ride along for ``details``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Optional, Sequence

from kernel import REF_KERNEL_MS, kernel_times

__all__ = ["Meter", "steal_share", "calibrate"]

#: A kernel sample taken this recently still describes "now".
_FRESH_SECONDS = 0.003
_last_sample: tuple[float, float] = (0.0, float("-inf"))
#: every in-process kernel sample of this run (the report states their
#: median beside ``REF_KERNEL_MS``).
SAMPLES_MS: list[float] = []


def calibrate(fresh: bool = False) -> float:
    """Kernel CPU milliseconds now: a new kernel run, or — unless
    ``fresh`` — the previous sample if it was taken within the last few
    milliseconds (the run *after* one slice is the run *before* the
    next)."""
    global _last_sample
    if fresh or time.perf_counter() - _last_sample[1] > _FRESH_SECONDS:
        _last_sample = (kernel_times()[0], time.perf_counter())
        SAMPLES_MS.append(_last_sample[0])
    return _last_sample[0]


def _steal_seconds(cpu: Optional[int]) -> float:
    """Cumulative steal time of ``cpu`` (all CPUs when None)."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields and fields[0] == label and len(fields) > 8:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError):
        pass
    return 0.0


def _runqueue_wait_seconds() -> float:
    """Cumulative time this thread sat runnable but not running."""
    try:
        with open("/proc/thread-self/schedstat", encoding="ascii") as handle:
            return int(handle.read().split()[1]) / 1e9
    except (OSError, ValueError, IndexError):
        return 0.0


def steal_share() -> float:
    """Host-wide steal since boot as a share of all CPU time (header)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        ticks = [int(value) for value in fields[1:9]]
        return ticks[7] / sum(ticks) if sum(ticks) else 0.0
    except (OSError, ValueError, IndexError):
        return 0.0


class Meter:
    """Accumulates the slices of one metric on one CPU.

    ``cpu`` is the index of the CPU the slices run on (for its steal
    counter).  Call :meth:`end_pass` after each pass to fold its blocked
    time in; totals are read from the attributes.
    """

    def __init__(self, cpu: Optional[int] = None):
        self._cpu = cpu
        self.norm_s = 0.0       # normalised CPU + blocked, finished passes
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.blocked_s = 0.0
        self.slices = 0
        self.kernel_ms: list[float] = []
        self.pass_norm_s: list[float] = []
        self.pass_wall_s: list[float] = []
        #: normalised CPU seconds of each call of the latest
        #: :meth:`timed_many` (blocked time is per pass, not per call).
        self.last_norm_s: list[float] = []
        self.last_wall_s: list[float] = []
        self._pass_norm_cpu = 0.0
        self._pass_offcpu = 0.0
        self._pass_wall = 0.0

    def timed(self, fn: Callable[[], Any]) -> Any:
        """Run and time ``fn()`` as one slice."""
        return self.timed_many([fn])[0]

    def timed_many(self, fns: Sequence[Callable[[], Any]]) -> list[Any]:
        """One calibrated slice made of several calls, each timed on its
        own (``last_norm_s``) and all scaled by the same kernel pair —
        for calls too short to calibrate one by one."""
        before = calibrate()
        steal0 = _steal_seconds(self._cpu)
        wait0 = _runqueue_wait_seconds()
        results = []
        cpus = []
        walls = []
        for fn in fns:
            wall0 = time.perf_counter()
            cpu0 = time.thread_time()
            results.append(fn())
            cpus.append(time.thread_time() - cpu0)
            walls.append(time.perf_counter() - wall0)
        wall = sum(walls)
        preempted = (_steal_seconds(self._cpu) - steal0
                     + _runqueue_wait_seconds() - wait0)
        kernel_ms = (before + calibrate(fresh=True)) / 2.0
        self.kernel_ms.append(kernel_ms)
        factor = REF_KERNEL_MS / kernel_ms
        self.last_norm_s = [cpu * factor for cpu in cpus]
        self.last_wall_s = walls
        self.cpu_s += sum(cpus)
        self.wall_s += wall
        self.slices += 1
        self._pass_norm_cpu += sum(self.last_norm_s)
        self._pass_offcpu += wall - sum(cpus) - preempted
        self._pass_wall += wall
        return results

    def end_pass(self) -> float:
        """Close the current pass; returns its normalised seconds."""
        blocked = max(0.0, self._pass_offcpu)
        total = self._pass_norm_cpu + blocked
        self.blocked_s += blocked
        self.norm_s += total
        self.pass_norm_s.append(total)
        self.pass_wall_s.append(self._pass_wall)
        self._pass_norm_cpu = 0.0
        self._pass_offcpu = 0.0
        self._pass_wall = 0.0
        return total

    def details(self) -> dict[str, float]:
        return {"norm_s": self.norm_s, "cpu_s": self.cpu_s,
                "wall_s": self.wall_s, "blocked_s": self.blocked_s,
                "slices": self.slices, "passes": len(self.pass_norm_s)}
