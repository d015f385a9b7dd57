"""The one restart policy: backoff, failure budget, health vocabulary.

:class:`~repro.observatory.supervisor.ObservatorySupervisor` (one
in-process ingest engine) and :class:`~repro.observatory.fleet.
ShardFleet` (one worker subprocess per shard) restart what they watch
the same way, written here once:

* restart *n* of a failure streak waits :func:`~repro.utils.backoff.
  backoff_delay` of attempt *n − 1* — ``min(backoff_cap, backoff *
  2**(n-1))`` plus ``jitter`` times a draw from a seeded RNG — so the
  same crash history always gives the same schedule, and a flapping
  dependency does not spin a hot crash loop;
* ``max_restarts`` consecutive failures without forward progress
  exhaust the budget: the policy gives up until :meth:`~RestartPolicy.
  reset`; forward progress ends the streak (a crash per million records
  is weather, not a loop).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.utils.backoff import backoff_delay

__all__ = ["RestartPolicy", "STATES"]

#: Health states, best to worst; ``max(states, key=STATES.index)`` is
#: the state of a whole made of parts.
STATES = HEALTHY, DEGRADED, STALLED = ("healthy", "degraded", "stalled")


class RestartPolicy:
    """Restart bookkeeping for one supervised thing; ``rng`` is the
    jitter source (a fleet passes every policy the same seeded one)."""

    def __init__(self, backoff: float, backoff_cap: float, jitter: float,
                 max_restarts: int, rng: random.Random):
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.max_restarts = max_restarts
        self._rng = rng
        self.consecutive_failures = 0
        self.gave_up = False
        #: When the pending restart is due (on the clock ``failed`` was
        #: given); None while nothing is scheduled.
        self.restart_at: Optional[float] = None

    def failed(self, now: float = 0.0) -> Optional[float]:
        """Count one failure.  Returns the delay to wait before the
        restart (also scheduled as ``restart_at = now + delay``), or
        None when the budget is exhausted and the policy gave up."""
        self.consecutive_failures += 1
        if self.consecutive_failures > self.max_restarts:
            self.gave_up = True
            return None
        delay = backoff_delay(self.consecutive_failures - 1, self.backoff,
                              self.backoff_cap, self.jitter, self._rng)
        self.restart_at = now + delay
        return delay

    def due(self, now: float) -> bool:
        """True once per scheduled restart, when its time has come."""
        if self.restart_at is None or now < self.restart_at:
            return False
        self.restart_at = None
        return True

    def progressed(self) -> None:
        """Forward progress: the failure streak is over."""
        self.consecutive_failures = 0
        self.restart_at = None

    def reset(self) -> None:
        """An operator's restart: streak and give-up both forgotten."""
        self.progressed()
        self.gave_up = False

    def state(self, *, degraded: bool, stalled: bool = False) -> str:
        """The health word: ``stalled`` once given up (or when the
        caller's own stall test says so), else ``degraded`` when the
        caller has something to confess, else ``healthy``."""
        if self.gave_up or stalled:
            return STALLED
        return DEGRADED if degraded else HEALTHY
