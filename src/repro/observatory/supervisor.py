"""Crash-tolerant driver for a checkpointed ingest.

:class:`ObservatoryIngest` is deterministic and checkpointed but not
crash-*tolerant*: an exception escaping the decode path (a poisoned
archive file under the strict policy, a torn gzip stream, a bug) kills
the ingest loop, and whatever drove it has to notice, rebuild the
engine from the last checkpoint and resume.  The supervisor is that
driver:

* batches of :data:`BATCH_RECORDS` are pulled through the engine, each
  one stamping a watchdog heartbeat (injectable clock, so tests freeze
  it);
* a crash — in the engine or in the caller's ``on_batch`` hook — is
  caught, counted and logged; the engine is rebuilt via the caller's
  factory (which restores from the checkpoint file) after the delay
  :class:`~repro.observatory.restart.RestartPolicy` hands out, so a
  flapping archive does not spin a hot crash loop;
* ``max_restarts`` consecutive failures without forward progress
  exhaust that policy's budget and stop the loop — better a dead daemon
  than one silently rewriting the same poisoned window forever.

The observable health is a three-state machine:

``healthy``     running (or finished) with no restarts and no records
                skipped by the tolerant decoder;
``degraded``    forward progress, but the run has survived restarts
                and/or the decoder has skipped or quarantined records;
``stalled``     the heartbeat is older than :data:`HEARTBEAT_TIMEOUT`,
                or the supervisor exhausted its restart budget.

A supervisor is what :class:`~repro.observatory.server.ObservatoryApp`
takes as its live engine: it surfaces the state in ``/healthz`` and
exports the supervisor's counters (records skipped, bytes quarantined,
restarts, ingest lag) on ``/metrics``, plus the live engine's own
ingest, forensics-ring and archive read-path counters.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Optional

from repro.mrt.resilient import DecodeStats
from repro.observatory.ingest import ObservatoryIngest
from repro.observatory.restart import RestartPolicy

__all__ = ["ObservatorySupervisor"]

#: Records pulled through the engine per batch (one durable checkpoint
#: and one heartbeat each).
BATCH_RECORDS = 500
#: Restart schedule (seconds): restart *n* of a streak waits
#: ``min(BACKOFF_CAP, BACKOFF * 2**(n-1))`` plus up to ``JITTER`` from
#: an RNG seeded with ``JITTER_SEED``.
BACKOFF, BACKOFF_CAP, JITTER, JITTER_SEED = 1.0, 60.0, 0.5, 0
#: Seconds without a completed batch before an unfinished run is
#: ``stalled``.
HEARTBEAT_TIMEOUT = 300.0


class ObservatorySupervisor:
    """Run an ingest to completion, restarting it across crashes.

    ``ingest_factory`` builds a fresh :class:`ObservatoryIngest` bound
    to the same checkpoint path every time it is called — constructing
    the engine *is* the recovery (the checkpoint restore rolls the
    store back to the last durable position).  ``on_batch``, when
    given, runs after every batch with the live engine; exceptions it
    raises are treated exactly like engine crashes (the chaos harness
    uses this to corrupt archive files mid-run and to force restarts).

    ``max_restarts`` is the consecutive-crash budget (``ingest
    --max-restarts``).  ``clock`` and ``sleep`` are injectable for
    tests; the jitter RNG is seeded, so a given crash history always
    produces the same backoff schedule.
    """

    def __init__(self, ingest_factory: Callable[[], ObservatoryIngest], *,
                 max_restarts: int = 5,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.ingest_factory = ingest_factory
        self._policy = RestartPolicy(BACKOFF, BACKOFF_CAP, JITTER,
                                     max_restarts, random.Random(JITTER_SEED))
        self._clock = clock
        self._sleep = sleep

        self.ingest: Optional[ObservatoryIngest] = None
        self.restarts = 0
        self.crashes = 0
        self.batches = 0
        self.finished = False
        self.last_error: Optional[str] = None
        self.last_heartbeat: Optional[float] = None
        #: Decode counters of retired (crashed) engines; the live
        #: engine's are folded in on read, so totals survive restarts.
        self._decode_retired = DecodeStats()

    # -- health -----------------------------------------------------------

    @property
    def gave_up(self) -> bool:
        return self._policy.gave_up

    def heartbeat_age(self) -> Optional[float]:
        """Seconds since the last completed batch; None before the
        first one."""
        if self.last_heartbeat is None:
            return None
        return max(0.0, self._clock() - self.last_heartbeat)

    def decode_stats(self) -> DecodeStats:
        """Tolerant-decode counters across every engine this supervisor
        has run (retired ones plus the live one)."""
        total = DecodeStats()
        total.merge(self._decode_retired)
        if self.ingest is not None:
            total.merge(self.ingest.archive.decode_stats)
        return total

    @property
    def records_skipped(self) -> int:
        return self.decode_stats().records_skipped

    @property
    def bytes_quarantined(self) -> int:
        return self.decode_stats().bytes_quarantined

    @property
    def ingest_lag_seconds(self) -> Optional[int]:
        """How far the update watermark trails the window end — 0 once
        the window is fully consumed, None before any record."""
        if self.ingest is None:
            return None
        if self.finished:
            return 0
        watermark = self.ingest._updates_watermark
        if watermark is None:
            return self.ingest.end - self.ingest.start
        return max(0, self.ingest.end - watermark)

    @property
    def state(self) -> str:
        age = None if self.finished else self.heartbeat_age()
        return self._policy.state(
            stalled=age is not None and age > HEARTBEAT_TIMEOUT,
            degraded=(self.restarts > 0 or self.records_skipped > 0
                      or self.bytes_quarantined > 0))

    # -- driving ----------------------------------------------------------

    def _crashed(self, exc: Exception) -> bool:
        """Count a crash and sit out the backoff; False once the
        restart budget is spent."""
        self.crashes += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        delay = self._policy.failed()
        if delay is None:
            return False
        self._sleep(delay)
        self.restarts += 1
        return True

    def run(self, on_batch: Optional[
            Callable[[ObservatoryIngest], None]] = None) -> bool:
        """Drive the ingest to :meth:`ObservatoryIngest.finish`.

        Returns True when the window completed; False when the restart
        budget ran out (state is then ``stalled`` and the last error is
        kept for the post-mortem).
        """
        while True:
            try:
                if self.ingest is None:
                    # Rebuilding the engine from its checkpoint *is* the
                    # recovery; a factory crash counts like any other.
                    self.ingest = self.ingest_factory()
                ingested = self.ingest.run(BATCH_RECORDS)
                if ingested > 0:
                    # Make the batch boundary durable before anything
                    # else can crash; recovery then replays at most one
                    # batch regardless of the engine's own cadence.
                    self.ingest.checkpoint()
                self.batches += 1
                self.last_heartbeat = self._clock()
                if on_batch is not None:
                    on_batch(self.ingest)
                if ingested > 0:
                    self._policy.progressed()
                if ingested < BATCH_RECORDS:
                    self.ingest.finish()
                    self.finished = True
                    self.last_heartbeat = self._clock()
                    return True
            except Exception as exc:
                if not self._crashed(exc):
                    return False
                if self.ingest is not None:
                    self._decode_retired.merge(
                        self.ingest.archive.decode_stats)
                    self.ingest = None  # rebuild from checkpoint

    # -- reporting --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Supervisor counters for ``/metrics`` and ``/healthz``."""
        decode = self.decode_stats().as_dict()
        return {
            "state": self.state,
            "restarts": self.restarts,
            "crashes": self.crashes,
            "batches": self.batches,
            "finished": self.finished,
            "gave_up": self.gave_up,
            "last_error": self.last_error,
            "heartbeat_age_seconds": self.heartbeat_age(),
            "ingest_lag_seconds": self.ingest_lag_seconds,
            "records_skipped": self.records_skipped,
            "bytes_quarantined": self.bytes_quarantined,
            "decode": decode,
        }
