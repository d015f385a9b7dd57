"""Discrete-event engine.

A minimal priority-queue scheduler with deterministic ordering: events
at the same instant fire in scheduling order (monotonic sequence
numbers), which keeps whole-world simulations reproducible under a
fixed seed.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

__all__ = ["Engine"]


class Engine:
    """Priority-queue event loop over float timestamps (seconds)."""

    def __init__(self, start_time: float = 0.0):
        self._queue: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = 0
        #: Current simulation time: the time of the event being run.
        self.now = float(start_time)
        self._processed = 0

    @property
    def processed(self) -> int:
        """Total events executed so far."""
        return self._processed

    def schedule(self, time: float, callback: Callable[..., None],
                 *args) -> None:
        """Schedule ``callback(*args)`` to fire at ``time``.

        Scheduling into the past is a bug in the caller and raises.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        heapq.heappush(self._queue, (float(time), self._sequence, callback, args))
        self._sequence += 1

    def run(self, until: Optional[float] = None) -> int:
        """Drain events (up to and including ``until``); returns the
        number of events processed by this call."""
        queue, pop = self._queue, heapq.heappop
        limit = float("inf") if until is None else until
        count = 0
        while queue and queue[0][0] <= limit:
            time, _, callback, args = pop(queue)
            self.now = time
            callback(*args)
            count += 1
            self._processed += 1
        if until is not None and self.now < until:
            self.now = float(until)
        return count

    def run_until_idle(self) -> int:
        """Drain every pending event."""
        return self.run(until=None)
