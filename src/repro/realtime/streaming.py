"""Real-time (streaming) zombie detection — the paper's §6 vision.

"Real-time detection of a zombie outbreak and identification of the AS
causing it will notify the network operators of the infected ASes" —
this module implements that pipeline as an incremental consumer of the
RIS record stream:

* :class:`StreamingDetector` ingests records in timestamp order,
  schedules an evaluation for every beacon interval at
  ``withdraw_time + threshold``, and emits :class:`ZombieAlert` objects
  the moment the evaluation time passes — no batch reprocessing.
* Evaluations apply the same revised methodology as the offline
  detector: interval isolation, Aggregator-clock dedup, and noisy-peer
  exclusion, so streaming and offline results agree (tested).
* :class:`ResurrectionMonitor` watches withdrawn prefixes and raises a
  :class:`ResurrectionAlert` when a peer re-announces one after a quiet
  period — the §5.1 phenomenon, live.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.beacons.aggregator import AggregatorClock
from repro.beacons.schedule import BeaconInterval
from repro.bgp.attributes import ASPath
from repro.bgp.jsonio import record_from_json, record_to_json
from repro.bgp.messages import Record, StateRecord, UpdateRecord
from repro.core.state import PeerKey
from repro.net.prefix import Prefix
from repro.utils.timeutil import MINUTE

__all__ = ["ZombieAlert", "ResurrectionAlert", "StreamingDetector",
           "ResurrectionMonitor"]

#: Snapshot document version shared by both streaming components.
SNAPSHOT_VERSION = 1


def _interval_to_json(interval: BeaconInterval) -> dict[str, Any]:
    return {"prefix": str(interval.prefix),
            "announce_time": interval.announce_time,
            "withdraw_time": interval.withdraw_time,
            "origin_asn": interval.origin_asn,
            "discarded": interval.discarded}


def _interval_from_json(payload: dict[str, Any]) -> BeaconInterval:
    return BeaconInterval(prefix=Prefix(payload["prefix"]),
                          announce_time=payload["announce_time"],
                          withdraw_time=payload["withdraw_time"],
                          origin_asn=payload["origin_asn"],
                          discarded=payload["discarded"])


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


@dataclass
class _PeerPrefixState:
    """Live per-(peer, prefix) state."""

    present: bool = False
    last_announcement: Optional[UpdateRecord] = None
    #: announce-epoch: the interval announce time this state belongs to.
    seen_since: int = 0


class StreamingDetector:
    """Incremental revised-methodology detector.

    Usage::

        detector = StreamingDetector(threshold=90*60)
        detector.add_intervals(schedule.intervals(start, end))
        for record in stream:              # must be time-ordered
            for alert in detector.observe(record):
                notify(alert)
        alerts += detector.advance(end_of_stream_time)
    """

    def __init__(self, threshold: int = 90 * MINUTE, dedup: bool = True,
                 excluded_peers: frozenset[PeerKey] = frozenset()):
        self.threshold = threshold
        self.dedup = dedup
        self.excluded_peers = excluded_peers
        #: (eval_time, seq, interval) pending evaluations.
        self._pending: list[tuple[int, int, BeaconInterval]] = []
        self._seq = 0
        #: prefix -> (peer -> state); only beacon prefixes are tracked.
        self._state: dict[Prefix, dict[PeerKey, _PeerPrefixState]] = {}
        self._peer_asn: dict[PeerKey, int] = {}
        self._tracked: set[Prefix] = set()
        self._clock = 0
        self._alert_count = 0

    # -- interval registration ------------------------------------------

    def add_interval(self, interval: BeaconInterval) -> None:
        if interval.discarded:
            return
        eval_time = interval.withdraw_time + self.threshold
        heapq.heappush(self._pending, (eval_time, self._seq, interval))
        self._seq += 1
        self._tracked.add(interval.prefix)

    def add_intervals(self, intervals: Iterable[BeaconInterval]) -> None:
        for interval in intervals:
            self.add_interval(interval)

    @property
    def pending_evaluations(self) -> int:
        return len(self._pending)

    @property
    def alerts_emitted(self) -> int:
        return self._alert_count

    # -- ingestion ---------------------------------------------------------

    def observe(self, record: Record) -> list[ZombieAlert]:
        """Ingest one record (records must arrive in time order) and
        return any alerts whose evaluation time has now passed."""
        alerts = self.advance(record.timestamp)
        key: PeerKey = (record.collector, record.peer_address)
        self._peer_asn.setdefault(key, record.peer_asn)

        if isinstance(record, StateRecord):
            if record.is_session_down or record.is_session_up:
                for states in self._state.values():
                    state = states.get(key)
                    if state is not None:
                        state.present = False
                        state.last_announcement = None
            return alerts

        assert isinstance(record, UpdateRecord)
        if record.prefix not in self._tracked:
            return alerts
        states = self._state.setdefault(record.prefix, {})
        state = states.setdefault(key, _PeerPrefixState())
        if record.is_announcement:
            state.present = True
            state.last_announcement = record
            state.seen_since = min(state.seen_since or record.timestamp,
                                   record.timestamp)
        else:
            state.present = False
            state.last_announcement = None
        return alerts

    def advance(self, now: int) -> list[ZombieAlert]:
        """Advance the clock; evaluate every interval whose evaluation
        instant has passed."""
        self._clock = max(self._clock, now)
        alerts: list[ZombieAlert] = []
        while self._pending and self._pending[0][0] <= self._clock:
            _, _, interval = heapq.heappop(self._pending)
            alerts.extend(self._evaluate(interval))
        self._alert_count += len(alerts)
        return alerts

    def flush(self) -> list[ZombieAlert]:
        """Evaluate everything still pending (end of stream)."""
        if not self._pending:
            return []
        horizon = max(eval_time for eval_time, _, _ in self._pending)
        return self.advance(horizon)

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe document capturing the complete detector state:
        pending evaluations, per-(prefix, peer) live state including the
        supporting announcements, clocks and counters.  Restoring it with
        :meth:`from_snapshot` and continuing the stream produces exactly
        the alerts an uninterrupted detector would have produced."""
        state = []
        for prefix in sorted(self._state, key=str):
            for key in sorted(self._state[prefix]):
                s = self._state[prefix][key]
                state.append({
                    "prefix": str(prefix),
                    "collector": key[0],
                    "peer_address": key[1],
                    "present": s.present,
                    "seen_since": s.seen_since,
                    "last_announcement": (record_to_json(s.last_announcement)
                                          if s.last_announcement is not None
                                          else None),
                })
        return {
            "version": SNAPSHOT_VERSION,
            "threshold": self.threshold,
            "dedup": self.dedup,
            "excluded_peers": sorted([c, a] for c, a in self.excluded_peers),
            "pending": [[eval_time, seq, _interval_to_json(interval)]
                        for eval_time, seq, interval in sorted(self._pending)],
            "seq": self._seq,
            "clock": self._clock,
            "alert_count": self._alert_count,
            "peer_asns": [[c, a, asn]
                          for (c, a), asn in sorted(self._peer_asn.items())],
            "tracked": sorted(str(p) for p in self._tracked),
            "state": state,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "StreamingDetector":
        """Rebuild a detector from a :meth:`snapshot` document."""
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported StreamingDetector snapshot version: "
                f"{snapshot.get('version')!r}")
        detector = cls(
            threshold=snapshot["threshold"], dedup=snapshot["dedup"],
            excluded_peers=frozenset((c, a)
                                     for c, a in snapshot["excluded_peers"]))
        detector._pending = [(eval_time, seq, _interval_from_json(payload))
                             for eval_time, seq, payload in snapshot["pending"]]
        heapq.heapify(detector._pending)
        detector._seq = snapshot["seq"]
        detector._clock = snapshot["clock"]
        detector._alert_count = snapshot["alert_count"]
        detector._peer_asn = {(c, a): asn
                              for c, a, asn in snapshot["peer_asns"]}
        detector._tracked = {Prefix(text) for text in snapshot["tracked"]}
        for entry in snapshot["state"]:
            states = detector._state.setdefault(Prefix(entry["prefix"]), {})
            states[(entry["collector"], entry["peer_address"])] = \
                _PeerPrefixState(
                    present=entry["present"],
                    last_announcement=(
                        record_from_json(entry["last_announcement"])
                        if entry["last_announcement"] is not None else None),
                    seen_since=entry["seen_since"])
        return detector

    # -- evaluation -----------------------------------------------------------

    def _evaluate(self, interval: BeaconInterval) -> Iterator[ZombieAlert]:
        eval_time = interval.withdraw_time + self.threshold
        states = self._state.get(interval.prefix, {})
        for key in sorted(states):
            if key in self.excluded_peers:
                continue
            state = states[key]
            announcement = state.last_announcement
            if not state.present or announcement is None:
                continue
            # Interval isolation: the supporting announcement must have
            # been received within this interval.
            if announcement.timestamp < interval.announce_time:
                continue
            stale = AggregatorClock.is_stale(announcement,
                                             interval.announce_time)
            if self.dedup and stale:
                continue
            yield ZombieAlert(
                prefix=interval.prefix, peer=key,
                peer_asn=self._peer_asn.get(key, 0),
                interval=interval, detected_at=eval_time,
                path=(announcement.attributes.as_path
                      if announcement.attributes else None),
                stale=stale)


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
