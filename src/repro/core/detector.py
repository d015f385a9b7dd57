"""The revised zombie detection methodology (paper §3.1 and §5).

:class:`IntervalEvaluator` is its one implementation: batch
:class:`ZombieDetector` and the live observatory ingest
(``repro.observatory.ObservatoryIngest``) feed it records in
``record_sort_key`` order and read its verdicts.  For every registered,
non-discarded beacon interval:

1. the interval's **window** is ``[announce_time, min(withdraw_time +
   threshold, next registered announcement of the same prefix - 1)]``;
   it opens with empty state and only records stamped inside it —
   *at* its end included — are applied (**interval isolation**);
2. inside the window each peer router's state for the prefix is rebuilt
   from raw messages: an announcement makes it PRESENT, a withdrawal or
   a session up/down STATE record of that peer makes it REMOVED; the
   first announcement also marks the peer as having **seen** the beacon,
   under the ASN that record carried (the visibility denominators of
   the tables and Fig. 2);
3. once the stream has passed the window's end, a peer that saw the
   beacon and is still PRESENT holds a **zombie route**, detected at
   ``withdraw_time + threshold`` (default 90 minutes, as in prior work);
4. if the Aggregator clock of the stuck announcement pre-dates this
   interval's announcement the zombie is *old* (``stale``) and is
   dropped when ``dedup`` is on (**double-count elimination**);
5. peers in ``excluded_peers`` / ``excluded_peer_asns`` (noisy peers,
   §3.2) are neither visible nor zombie.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.beacons.aggregator import AggregatorClock
from repro.beacons.schedule import BeaconInterval
from repro.bgp.jsonio import record_from_json, record_to_json
from repro.bgp.messages import Record, StateRecord, UpdateRecord, record_sort_key
from repro.core.outbreaks import ZombieOutbreak, ZombieRoute
from repro.core.state import PeerKey
from repro.net.prefix import Prefix
from repro.utils.timeutil import MINUTE

__all__ = ["DetectorConfig", "DetectionResult", "IntervalEvaluator",
           "Verdict", "ZombieDetector", "DEFAULT_THRESHOLD"]

DEFAULT_THRESHOLD = 90 * MINUTE

#: :meth:`IntervalEvaluator.snapshot` document version.  It is 2 because
#: the detector documents already in checkpoints carry 2 and must still
#: restore; version 1 (per-prefix state, before this core) is refused.
SNAPSHOT_VERSION = 2


@dataclass(frozen=True)
class DetectorConfig:
    """Detection knobs.

    ``dedup`` toggles Aggregator-based double-count elimination ("without
    double-counting" in Tables 1-2).  ``excluded_peers`` removes noisy
    peer routers; ``excluded_peer_asns`` removes whole peer ASes.
    """

    threshold: int = DEFAULT_THRESHOLD
    dedup: bool = True
    excluded_peers: frozenset[PeerKey] = frozenset()
    excluded_peer_asns: frozenset[int] = frozenset()

    def excludes(self, key: PeerKey, asn: int) -> bool:
        return key in self.excluded_peers or asn in self.excluded_peer_asns


@dataclass
class DetectionResult:
    """Everything one detection run produces."""

    config: DetectorConfig
    outbreaks: list[ZombieOutbreak]
    #: intervals whose announcement was visible at >= 1 peer.
    visible_intervals: list[BeaconInterval]
    #: (interval, peer) pairs that saw the announcement — emergence-rate
    #: denominators.
    visible_pairs: dict[tuple[Prefix, int], int] = field(default_factory=dict)
    #: zombie-route counts per (prefix, peer ASN) — emergence-rate numerators.
    zombie_pairs: dict[tuple[Prefix, int], int] = field(default_factory=dict)
    #: per peer-router visibility/zombie counts (noisy-peer statistics).
    router_visible: dict[PeerKey, int] = field(default_factory=dict)
    router_zombies: dict[PeerKey, int] = field(default_factory=dict)

    @property
    def outbreak_count(self) -> int:
        return len(self.outbreaks)

    @property
    def visible_count(self) -> int:
        return len(self.visible_intervals)

    def outbreak_fraction(self) -> float:
        """Fraction of visible beacon announcements that led to a zombie
        outbreak (left axis of Fig. 2)."""
        if not self.visible_intervals:
            return 0.0
        return len(self.outbreaks) / len(self.visible_intervals)

    def outbreaks_for(self, prefix: Prefix) -> list[ZombieOutbreak]:
        return [o for o in self.outbreaks if o.prefix == prefix]

    def split_by_family(self) -> tuple[list[ZombieOutbreak], list[ZombieOutbreak]]:
        """(IPv4 outbreaks, IPv6 outbreaks)."""
        v4 = [o for o in self.outbreaks if o.prefix.is_ipv4]
        v6 = [o for o in self.outbreaks if o.prefix.is_ipv6]
        return v4, v6


@dataclass
class _PeerPrefixState:
    """One peer router's view of one beacon prefix inside a window."""

    #: the announcement that makes the prefix PRESENT; None = REMOVED.
    last_announcement: Optional[UpdateRecord] = None
    #: peer ASN of the first announcement inside the window; None until
    #: the peer has seen the beacon.
    visible_as: Optional[int] = None


@dataclass
class _Window:
    """An open interval: its heap seq and every peer's state in it."""

    seq: int
    interval: BeaconInterval
    peers: dict[PeerKey, _PeerPrefixState] = field(default_factory=dict)


#: One judged interval: (interval, [(peer, ASN) that saw the beacon],
#: zombie routes), peers in sorted order.
Verdict = tuple[BeaconInterval, list[tuple[PeerKey, int]], list[ZombieRoute]]


class IntervalEvaluator:
    """The incremental core: register intervals, feed records in
    ``record_sort_key`` order, collect a verdict per interval as the
    stream passes the end of its window (see the module docstring)."""

    def __init__(self, config: DetectorConfig):
        self.config = config
        #: (time, seq, interval): an interval waits at ``announce_time -
        #: 1`` for its window to open, then at its deadline to be judged.
        self._pending: list[tuple[int, int, BeaconInterval]] = []
        self._seq = 0
        #: prefix -> its open window; only these prefixes hold state.
        self._windows: dict[Prefix, _Window] = {}

    def add_interval(self, interval: BeaconInterval) -> None:
        """Register an interval (before its announcement is streamed)."""
        if interval.discarded:
            return
        heapq.heappush(self._pending,
                       (interval.announce_time - 1, self._seq, interval))
        self._seq += 1

    @property
    def pending_evaluations(self) -> int:
        """Registered intervals not yet judged."""
        return len(self._windows) + sum(
            time < interval.announce_time
            for time, _, interval in self._pending)

    def _deadline(self, interval: BeaconInterval) -> int:
        return interval.withdraw_time + self.config.threshold

    # -- ingestion ---------------------------------------------------------

    def observe(self, record: Record) -> list[Verdict]:
        """Apply one record; returns the verdicts of every window that
        ended before it."""
        verdicts = self.advance(record.timestamp - 1)
        key: PeerKey = (record.collector, record.peer_address)
        announcement = None
        if isinstance(record, StateRecord):
            if not (record.is_session_down or record.is_session_up):
                return verdicts
            # Both directions void what the session taught: on "up" the
            # peer must re-announce before counting as present.
            states = [window.peers[key] for window in self._windows.values()
                      if key in window.peers]
        else:
            window = self._windows.get(record.prefix)
            if window is None:
                return verdicts
            states = [window.peers.setdefault(key, _PeerPrefixState())]
            if record.is_announcement:
                announcement = record
        for state in states:
            state.last_announcement = announcement
            if announcement is not None and state.visible_as is None:
                state.visible_as = record.peer_asn
        return verdicts

    def advance(self, now: int) -> list[Verdict]:
        """Everything stamped ``<= now`` has been observed: open the
        windows starting right after ``now``, judge those ending by it."""
        verdicts: list[Verdict] = []
        while self._pending and self._pending[0][0] <= now:
            time, seq, interval = heapq.heappop(self._pending)
            window = self._windows.get(interval.prefix)
            if time < interval.announce_time:
                if window is not None:  # the next announcement ends it
                    verdicts.append(self._judge(window))
                self._windows[interval.prefix] = _Window(seq, interval)
                heapq.heappush(self._pending,
                               (self._deadline(interval), seq, interval))
            elif window is not None and window.seq == seq:
                verdicts.append(self._judge(window))
            # else: already judged when its successor's window opened
        return verdicts

    def flush(self) -> list[Verdict]:
        """Judge everything still registered (end of stream)."""
        return self.advance(max((self._deadline(interval) for _, _, interval
                                 in self._pending), default=0))

    def _judge(self, window: _Window) -> Verdict:
        config, interval = self.config, window.interval
        del self._windows[interval.prefix]
        visible: list[tuple[PeerKey, int]] = []
        routes: list[ZombieRoute] = []
        for key, state in sorted(window.peers.items()):
            asn = state.visible_as
            if asn is None or config.excludes(key, asn):
                continue
            visible.append((key, asn))
            announcement = state.last_announcement
            if announcement is None:
                continue  # withdrawn in time — healthy
            stale = AggregatorClock.is_stale(announcement,
                                             interval.announce_time)
            if config.dedup and stale:
                continue
            routes.append(ZombieRoute(
                interval=interval, peer=key, peer_asn=asn,
                detected_at=self._deadline(interval),
                announcement=announcement, stale=stale))
        return interval, visible, routes

    # -- persistence -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe document of the complete state; restoring it with
        :meth:`from_snapshot` and continuing the stream yields exactly
        the verdicts an uninterrupted evaluator would have produced."""
        config = self.config
        return {
            "version": SNAPSHOT_VERSION,
            "threshold": config.threshold,
            "dedup": config.dedup,
            "excluded_peers": sorted([c, a] for c, a in config.excluded_peers),
            "excluded_peer_asns": sorted(config.excluded_peer_asns),
            "pending": [[time, seq, interval.to_json()]
                        for time, seq, interval in sorted(self._pending)],
            "seq": self._seq,
            "windows": [
                {"seq": window.seq,
                 "peers": [[collector, address, state.visible_as,
                            None if state.last_announcement is None
                            else record_to_json(state.last_announcement)]
                           for (collector, address), state
                           in sorted(window.peers.items())]}
                for window in sorted(self._windows.values(),
                                     key=lambda w: w.seq)],
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "IntervalEvaluator":
        """Rebuild an evaluator from a :meth:`snapshot` document; keys
        it does not know are ignored."""
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported IntervalEvaluator snapshot version: "
                f"{snapshot.get('version')!r}")
        core = cls(DetectorConfig(
            threshold=snapshot["threshold"], dedup=snapshot["dedup"],
            excluded_peers=frozenset(
                (c, a) for c, a in snapshot["excluded_peers"]),
            excluded_peer_asns=frozenset(snapshot["excluded_peer_asns"])))
        core._pending = [(time, seq, BeaconInterval.from_json(payload))
                         for time, seq, payload in snapshot["pending"]]
        heapq.heapify(core._pending)
        core._seq = snapshot["seq"]
        by_seq = {seq: interval for _, seq, interval in core._pending}
        for entry in snapshot["windows"]:
            interval = by_seq[entry["seq"]]
            core._windows[interval.prefix] = _Window(entry["seq"], interval, {
                (collector, address): _PeerPrefixState(
                    None if announcement is None
                    else record_from_json(announcement), asn)
                for collector, address, asn, announcement in entry["peers"]})
        return core


def _count(counts: dict, key) -> None:
    counts[key] = counts.get(key, 0) + 1


class ZombieDetector:
    """Run the revised methodology over a complete record set."""

    def __init__(self, config: Optional[DetectorConfig] = None):
        self.config = config or DetectorConfig()

    def detect(self, records: Iterable[Record],
               intervals: Iterable[BeaconInterval]) -> DetectionResult:
        """Detect zombie outbreaks for every non-discarded interval.

        ``records`` must cover the intervals' windows; they are put in
        ``record_sort_key`` order and streamed through one
        :class:`IntervalEvaluator`.
        """
        core = IntervalEvaluator(self.config)
        for interval in intervals:
            core.add_interval(interval)
        verdicts: list[Verdict] = []
        for record in sorted(records, key=record_sort_key):
            verdicts += core.observe(record)
        verdicts += core.flush()

        result = DetectionResult(self.config, [], [])
        verdicts.sort(key=lambda v: (v[0].announce_time, str(v[0].prefix)))
        for interval, visible, routes in verdicts:
            for key, asn in visible:
                _count(result.visible_pairs, (interval.prefix, asn))
                _count(result.router_visible, key)
            for route in routes:
                _count(result.zombie_pairs, (interval.prefix, route.peer_asn))
                _count(result.router_zombies, route.peer)
            if visible:
                result.visible_intervals.append(interval)
            if routes:
                result.outbreaks.append(ZombieOutbreak(interval, tuple(routes)))
        return result
