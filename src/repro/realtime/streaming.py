"""Real-time (streaming) zombie detection — the paper's §6 vision.

"Real-time detection of a zombie outbreak and identification of the AS
causing it will notify the network operators of the infected ASes" —
this module implements that pipeline as an incremental consumer of the
RIS record stream:

* :class:`StreamingDetector` is the alert-producing face of
  :class:`repro.core.detector.IntervalEvaluator`, the one implementation
  of the revised methodology (specified in that module's docstring and
  shared with the offline ``ZombieDetector``): each zombie route becomes
  a :class:`ZombieAlert` the moment the stream passes the end of the
  interval's window — no batch reprocessing.
* :class:`ResurrectionMonitor` watches withdrawn prefixes and raises a
  :class:`ResurrectionAlert` when a peer re-announces one after a quiet
  period — the §5.1 phenomenon, live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.beacons.schedule import BeaconInterval
from repro.bgp.attributes import ASPath
from repro.bgp.messages import Record, UpdateRecord
from repro.core.detector import DetectorConfig, IntervalEvaluator, Verdict
from repro.core.state import PeerKey
from repro.net.prefix import Prefix
from repro.utils.timeutil import MINUTE

__all__ = ["ZombieAlert", "ResurrectionAlert", "StreamingDetector",
           "ResurrectionMonitor"]

#: Snapshot document version shared by both streaming components
#: (2: the detector document became the evaluation core's).
SNAPSHOT_VERSION = 2


@dataclass(frozen=True)
class ZombieAlert:
    """A stuck route detected live."""

    prefix: Prefix
    peer: PeerKey
    peer_asn: int
    interval: BeaconInterval
    detected_at: int
    path: Optional[ASPath]
    stale: bool

    def __str__(self) -> str:
        collector, address = self.peer
        return (f"ALERT zombie {self.prefix} @ {collector}/{address} "
                f"(AS{self.peer_asn}) at {self.detected_at}"
                f"{' [old announcement]' if self.stale else ''}")


@dataclass(frozen=True)
class ResurrectionAlert:
    """A withdrawn prefix re-announced after a quiet period."""

    prefix: Prefix
    peer: PeerKey
    peer_asn: int
    withdrawn_at: int
    resurrected_at: int
    path: Optional[ASPath]

    @property
    def quiet_seconds(self) -> int:
        return self.resurrected_at - self.withdrawn_at


class StreamingDetector:
    """Incremental revised-methodology detector.

    Usage::

        detector = StreamingDetector(threshold=90*60)
        detector.add_intervals(schedule.intervals(start, end))
        for record in stream:              # in record_sort_key order
            for alert in detector.observe(record):
                notify(alert)
        alerts += detector.advance(end_of_stream_time)
    """

    def __init__(self, threshold: int = 90 * MINUTE, dedup: bool = True,
                 excluded_peers: frozenset[PeerKey] = frozenset()):
        #: the evaluation core; its ``config`` is the detector's.
        self.core = IntervalEvaluator(DetectorConfig(
            threshold=threshold, dedup=dedup, excluded_peers=excluded_peers))
        self._alert_count = 0

    def add_interval(self, interval: BeaconInterval) -> None:
        self.core.add_interval(interval)

    def add_intervals(self, intervals: Iterable[BeaconInterval]) -> None:
        for interval in intervals:
            self.core.add_interval(interval)

    @property
    def pending_evaluations(self) -> int:
        return self.core.pending_evaluations

    @property
    def alerts_emitted(self) -> int:
        return self._alert_count

    def observe(self, record: Record) -> list[ZombieAlert]:
        """Ingest one record and return the alerts of every interval
        whose window ended before it."""
        return self._alerts(self.core.observe(record))

    def advance(self, now: int) -> list[ZombieAlert]:
        """Declare the stream observed through ``now``; judge every
        interval whose window has ended by then."""
        return self._alerts(self.core.advance(now))

    def flush(self) -> list[ZombieAlert]:
        """Evaluate everything still pending (end of stream)."""
        return self._alerts(self.core.flush())

    def _alerts(self, verdicts: list[Verdict]) -> list[ZombieAlert]:
        alerts = [ZombieAlert(prefix=route.prefix, peer=route.peer,
                              peer_asn=route.peer_asn, interval=interval,
                              detected_at=route.detected_at,
                              path=route.zombie_path, stale=route.stale)
                  for interval, _, routes in verdicts for route in routes]
        self._alert_count += len(alerts)
        return alerts

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The core's snapshot document plus the alert counter."""
        return {"version": SNAPSHOT_VERSION,
                "alert_count": self._alert_count, **self.core.snapshot()}

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "StreamingDetector":
        """Rebuild a detector from a :meth:`snapshot` document."""
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported StreamingDetector snapshot version: "
                f"{snapshot.get('version')!r}")
        detector = cls()
        detector.core = IntervalEvaluator.from_snapshot(snapshot)
        detector._alert_count = snapshot["alert_count"]
        return detector


class ResurrectionMonitor:
    """Live detector for §5.1 resurrections: a tracked prefix that was
    withdrawn at a peer and re-announced after at least ``quiet``
    seconds raises an alert."""

    def __init__(self, prefixes: Iterable[Prefix], quiet: int = 120 * MINUTE,
                 scheduled_announcements: Iterable[tuple[Prefix, int]] = (),
                 schedule_tolerance: int = 5 * MINUTE):
        self.quiet = quiet
        self.schedule_tolerance = schedule_tolerance
        self._tracked = set(prefixes)
        #: (peer, prefix) -> withdrawal time.
        self._withdrawn_at: dict[tuple[PeerKey, Prefix], int] = {}
        #: prefix -> sorted scheduled announce times: a re-announcement
        #: near one of these is the *beacon* speaking, not a zombie.
        self._scheduled: dict[Prefix, list[int]] = {}
        for prefix, time in scheduled_announcements:
            self._scheduled.setdefault(prefix, []).append(time)
        for times in self._scheduled.values():
            times.sort()

    def track(self, prefix: Prefix) -> None:
        self._tracked.add(prefix)

    def _is_scheduled(self, prefix: Prefix, time: int) -> bool:
        import bisect

        times = self._scheduled.get(prefix)
        if not times:
            return False
        index = bisect.bisect_left(times, time - self.schedule_tolerance)
        return (index < len(times)
                and times[index] <= time + self.schedule_tolerance)

    def observe(self, record: Record) -> Optional[ResurrectionAlert]:
        if not isinstance(record, UpdateRecord):
            return None
        if record.prefix not in self._tracked:
            return None
        key: PeerKey = (record.collector, record.peer_address)
        slot = (key, record.prefix)
        if record.is_withdrawal:
            self._withdrawn_at.setdefault(slot, record.timestamp)
            return None
        withdrawn_at = self._withdrawn_at.pop(slot, None)
        if withdrawn_at is None:
            return None
        if record.timestamp - withdrawn_at < self.quiet:
            return None
        if self._is_scheduled(record.prefix, record.timestamp):
            return None  # the beacon itself re-announced — not a zombie
        return ResurrectionAlert(
            prefix=record.prefix, peer=key, peer_asn=record.peer_asn,
            withdrawn_at=withdrawn_at, resurrected_at=record.timestamp,
            path=(record.attributes.as_path if record.attributes else None))

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe document capturing tracked prefixes, open withdrawal
        windows and the beacon schedule filter."""
        return {
            "version": SNAPSHOT_VERSION,
            "quiet": self.quiet,
            "schedule_tolerance": self.schedule_tolerance,
            "tracked": sorted(str(p) for p in self._tracked),
            "withdrawn_at": [[c, a, str(prefix), time]
                             for ((c, a), prefix), time
                             in sorted(self._withdrawn_at.items(),
                                       key=lambda kv: (kv[0][0],
                                                       str(kv[0][1])))],
            "scheduled": {str(prefix): times
                          for prefix, times in sorted(self._scheduled.items(),
                                                      key=lambda kv: str(kv[0]))},
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "ResurrectionMonitor":
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported ResurrectionMonitor snapshot version: "
                f"{snapshot.get('version')!r}")
        monitor = cls((), quiet=snapshot["quiet"],
                      schedule_tolerance=snapshot["schedule_tolerance"])
        monitor._tracked = {Prefix(text) for text in snapshot["tracked"]}
        monitor._withdrawn_at = {
            ((c, a), Prefix(text)): time
            for c, a, text, time in snapshot["withdrawn_at"]}
        monitor._scheduled = {Prefix(text): list(times)
                              for text, times in snapshot["scheduled"].items()}
        return monitor
