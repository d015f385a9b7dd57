"""Zombie resurrection detection (paper §5.1).

Two complementary signals:

* **Update scale**: a peer withdraws the beacon prefix and later
  receives a fresh announcement for it although the beacon announced
  nothing new — the Fig. 2 uptick after 160 minutes (common subpath
  ``4637 1299 25091 8298 210312``).  :class:`ResurrectionMonitor` is
  its one implementation: batch :func:`find_late_announcements` and
  the observatory ingest feed it records in ``record_sort_key`` order.
  For every registered, non-discarded beacon interval:

  1. the interval's **window** opens at ``announce_time`` and stays open
     until the prefix's next registered announcement opens the next
     window (the detector's own window start and cap, with no
     threshold); a window opens with empty state, so the beacon's next
     scheduled announcement is never read as a late one;
  2. inside the window a withdrawal by a peer router arms that peer;
     ``withdrawn_at`` is the first withdrawal since the peer's last
     announcement, and any announcement disarms it;
  3. an announcement that finds its peer armed and is stamped at or
     after ``withdraw_time + min_offset`` — measured from the *beacon's*
     withdrawal, the axis of §5.1 and Fig. 2 — is a
     :class:`LateAnnouncement`;
  4. at most one late announcement is reported per (interval, peer).

* **Dump scale** (RIB dumps): the prefix disappears from every RIS peer
  for one or more dump rounds and then reappears — the Fig. 4 timeline
  of ``2a0d:3dc1:1851::/48``.  :func:`find_resurrections` over
  :class:`ZombieLifespan` results, with the predicate
  :func:`repro.core.lifespan.starts_resurrection` that the incremental
  ``LifespanSession`` flags its deltas with.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.beacons.schedule import BeaconInterval
from repro.bgp.attributes import ASPath
from repro.bgp.messages import Record, UpdateRecord, record_sort_key
from repro.core.lifespan import ZombieLifespan, starts_resurrection
from repro.core.state import PeerKey
from repro.net.prefix import Prefix
from repro.utils.timeutil import MINUTE

__all__ = [
    "DEFAULT_MIN_OFFSET",
    "LateAnnouncement",
    "ResurrectionEvent",
    "ResurrectionMonitor",
    "find_late_announcements",
    "find_resurrections",
]

DEFAULT_MIN_OFFSET = 120 * MINUTE

#: Monitor snapshot document version (3: windows per beacon interval).
SNAPSHOT_VERSION = 3


@dataclass(frozen=True)
class LateAnnouncement:
    """A re-announcement of a withdrawn beacon at one peer."""

    interval: BeaconInterval
    peer: PeerKey
    peer_asn: int
    withdrawn_at: int
    reannounced_at: int
    path: ASPath

    @property
    def prefix(self) -> Prefix:
        return self.interval.prefix

    @property
    def offset_minutes(self) -> float:
        """Minutes between the beacon withdrawal and the re-announcement."""
        return (self.reannounced_at - self.interval.withdraw_time) / MINUTE

    @property
    def quiet_seconds(self) -> int:
        """Seconds the peer went without the route."""
        return self.reannounced_at - self.withdrawn_at


@dataclass(frozen=True)
class ResurrectionEvent:
    """A dump-scale resurrection: gone from all peers, then back."""

    prefix: Prefix
    disappeared_after: int      # last dump of the previous segment
    resurrected_at: int         # first dump of the next segment
    peers: frozenset[PeerKey]   # peers of the new segment


@dataclass
class _Window:
    """An open interval: armed peers and the peers already reported."""

    interval: BeaconInterval
    #: peer -> first withdrawal since its last announcement.
    withdrawn_at: dict[PeerKey, int] = field(default_factory=dict)
    reported: set[PeerKey] = field(default_factory=set)


class ResurrectionMonitor:
    """The incremental core: register intervals, feed records in
    ``record_sort_key`` order, get each late announcement from the
    record that makes it (see the module docstring)."""

    def __init__(self, min_offset: int = DEFAULT_MIN_OFFSET):
        self.min_offset = min_offset
        #: (announce_time, seq, interval): intervals whose window has
        #: not opened yet.
        self._pending: list[tuple[int, int, BeaconInterval]] = []
        self._seq = 0
        #: prefix -> its open window; only these prefixes hold state.
        self._windows: dict[Prefix, _Window] = {}

    def add_interval(self, interval: BeaconInterval) -> None:
        """Register an interval (before its announcement is streamed)."""
        if interval.discarded:
            return
        heapq.heappush(self._pending,
                       (interval.announce_time, self._seq, interval))
        self._seq += 1

    def observe(self, record: Record) -> Optional[LateAnnouncement]:
        """Apply one record; returns the late announcement it is, if any."""
        while self._pending and self._pending[0][0] <= record.timestamp:
            interval = heapq.heappop(self._pending)[2]
            self._windows[interval.prefix] = _Window(interval)
        if not isinstance(record, UpdateRecord):
            return None
        window = self._windows.get(record.prefix)
        if window is None:
            return None
        key: PeerKey = (record.collector, record.peer_address)
        if key in window.reported:
            return None
        if record.is_withdrawal:
            window.withdrawn_at.setdefault(key, record.timestamp)
            return None
        withdrawn_at = window.withdrawn_at.pop(key, None)
        interval = window.interval
        if (withdrawn_at is None or record.timestamp
                < interval.withdraw_time + self.min_offset):
            return None
        window.reported.add(key)
        return LateAnnouncement(
            interval=interval, peer=key, peer_asn=record.peer_asn,
            withdrawn_at=withdrawn_at, reannounced_at=record.timestamp,
            path=record.attributes.as_path)

    # -- persistence -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe document of the complete state; restoring it with
        :meth:`from_snapshot` and continuing the stream yields exactly
        the late announcements an uninterrupted monitor would have."""
        return {
            "version": SNAPSHOT_VERSION,
            "min_offset": self.min_offset,
            "pending": [[time, seq, interval.to_json()]
                        for time, seq, interval in sorted(self._pending)],
            "seq": self._seq,
            "windows": [
                {"interval": window.interval.to_json(),
                 "withdrawn_at": [[c, a, time] for (c, a), time
                                  in sorted(window.withdrawn_at.items())],
                 "reported": sorted([c, a] for c, a in window.reported)}
                for _, window in sorted(self._windows.items(),
                                        key=lambda item: str(item[0]))],
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "ResurrectionMonitor":
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported ResurrectionMonitor snapshot version: "
                f"{snapshot.get('version')!r}")
        monitor = cls(snapshot["min_offset"])
        monitor._pending = [(time, seq, BeaconInterval.from_json(payload))
                            for time, seq, payload in snapshot["pending"]]
        heapq.heapify(monitor._pending)
        monitor._seq = snapshot["seq"]
        for entry in snapshot["windows"]:
            interval = BeaconInterval.from_json(entry["interval"])
            monitor._windows[interval.prefix] = _Window(
                interval,
                {(c, a): time for c, a, time in entry["withdrawn_at"]},
                {(c, a) for c, a in entry["reported"]})
        return monitor


def find_late_announcements(records: Iterable[Record],
                            intervals: Iterable[BeaconInterval],
                            min_offset: int = DEFAULT_MIN_OFFSET
                            ) -> list[LateAnnouncement]:
    """Every late announcement in a complete record set, in stream
    order: the records are put in ``record_sort_key`` order and
    streamed through one :class:`ResurrectionMonitor`."""
    monitor = ResurrectionMonitor(min_offset)
    for interval in intervals:
        monitor.add_interval(interval)
    events = (monitor.observe(record)
              for record in sorted(records, key=record_sort_key))
    return [event for event in events if event is not None]


def find_resurrections(lifespans: Iterable[ZombieLifespan]
                       ) -> list[ResurrectionEvent]:
    """Extract resurrection events: every presence segment that
    :func:`~repro.core.lifespan.starts_resurrection` — one after a gap,
    or a first sighting long after the withdrawal (the paper's
    2a0d:3dc1:1851::/48 reappearing a week after full withdrawal)."""
    events: list[ResurrectionEvent] = []
    for lifespan in lifespans:
        segments = lifespan.segments
        for index, segment in enumerate(segments):
            if starts_resurrection(lifespan.withdraw_time, index,
                                   segment.start):
                events.append(ResurrectionEvent(
                    prefix=lifespan.prefix,
                    disappeared_after=(segments[index - 1].end if index
                                       else lifespan.withdraw_time),
                    resurrected_at=segment.start,
                    peers=segment.peers))
    return sorted(events, key=lambda e: (e.resurrected_at, str(e.prefix)))
