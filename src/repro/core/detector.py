"""The revised zombie detection methodology (paper §3.1 and §5).

For every beacon interval:

1. collect the interval's records for the beacon prefix (**interval
   isolation** — no knowledge from earlier intervals leaks in);
2. reconstruct each peer router's state at the evaluation instant
   ``withdraw_time + threshold`` (default 90 minutes, as in all prior
   work);
3. a peer whose state is PRESENT holds a **zombie route**;
4. decode the Aggregator clock of the stuck announcement: if it
   pre-dates this interval's announcement, the zombie is *old* and is
   dropped (**double-count elimination**) when ``dedup`` is on;
5. peers in ``excluded_peers`` (noisy peers, §3.2) are ignored.

The detector also tracks per-interval *visibility* (did any peer see the
announcement at all), which the tables and Fig. 2 use as denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.beacons.aggregator import AggregatorClock
from repro.beacons.schedule import BeaconInterval
from repro.bgp.messages import Record, UpdateRecord
from repro.core.outbreaks import ZombieOutbreak, ZombieRoute
from repro.core.state import PeerKey, StateReconstructor
from repro.net.prefix import Prefix
from repro.utils.timeutil import MINUTE

__all__ = ["DetectorConfig", "DetectionResult", "ZombieDetector",
           "DEFAULT_THRESHOLD"]

DEFAULT_THRESHOLD = 90 * MINUTE


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
    def zombie_route_count(self) -> int:
        return sum(o.size for o in self.outbreaks)

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


class ZombieDetector:
    """Run the revised methodology over a record stream."""

    def __init__(self, config: Optional[DetectorConfig] = None):
        self.config = config or DetectorConfig()

    def detect(self, records: Sequence[Record],
               intervals: Iterable[BeaconInterval]) -> DetectionResult:
        """Detect zombie outbreaks for every non-discarded interval.

        ``records`` must cover the intervals' evaluation windows; they
        are indexed by prefix once, then each interval is processed in
        isolation.
        """
        intervals = [i for i in intervals if not i.discarded]
        by_prefix = self._index_by_prefix(records)
        result = DetectionResult(self.config, [], [])

        # A prefix's interval ends where its next announcement begins:
        # records past that instant belong to the next interval and must
        # not leak in, even under long thresholds.
        announce_times: dict[Prefix, list[int]] = {}
        for interval in intervals:
            announce_times.setdefault(interval.prefix, []).append(
                interval.announce_time)
        for times in announce_times.values():
            times.sort()

        for interval in sorted(intervals, key=lambda i: (i.announce_time,
                                                         str(i.prefix))):
            times = announce_times[interval.prefix]
            position = times.index(interval.announce_time)
            next_announce = (times[position + 1] if position + 1 < len(times)
                             else None)
            self._process_interval(interval, by_prefix, result, next_announce)
        return result

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _index_by_prefix(records: Sequence[Record]) -> dict:
        """Prefix -> its update records; None key -> state records
        (which affect every prefix)."""
        index: dict = {None: []}
        for record in records:
            if isinstance(record, UpdateRecord):
                index.setdefault(record.prefix, []).append(record)
            else:
                index[None].append(record)
        return index

    def _interval_records(self, interval: BeaconInterval, by_prefix: dict,
                          eval_time: int) -> list[Record]:
        window = [r for r in by_prefix.get(interval.prefix, ())
                  if interval.announce_time <= r.timestamp <= eval_time]
        window += [r for r in by_prefix[None]
                   if interval.announce_time <= r.timestamp <= eval_time]
        return window

    def _process_interval(self, interval: BeaconInterval, by_prefix: dict,
                          result: DetectionResult,
                          next_announce: Optional[int] = None) -> None:
        config = self.config
        eval_time = interval.withdraw_time + config.threshold
        window_end = eval_time
        if next_announce is not None:
            window_end = min(window_end, next_announce - 1)
        window = self._interval_records(interval, by_prefix, window_end)
        state = StateReconstructor(window)

        visible_anywhere = False
        routes: list[ZombieRoute] = []
        for key, asn in sorted(state.peers().items()):
            if config.excludes(key, asn):
                continue
            if not state.ever_announced(interval.prefix, key):
                continue
            visible_anywhere = True
            pair = (interval.prefix, asn)
            result.visible_pairs[pair] = result.visible_pairs.get(pair, 0) + 1
            result.router_visible[key] = result.router_visible.get(key, 0) + 1

            announcement = state.last_announcement(key, interval.prefix, eval_time)
            if announcement is None:
                continue  # withdrawn in time — healthy
            stale = AggregatorClock.is_stale(announcement,
                                             interval.announce_time)
            if config.dedup and stale:
                continue
            routes.append(ZombieRoute(
                interval=interval, peer=key, peer_asn=asn,
                detected_at=eval_time, announcement=announcement, stale=stale))
            result.zombie_pairs[pair] = result.zombie_pairs.get(pair, 0) + 1
            result.router_zombies[key] = result.router_zombies.get(key, 0) + 1

        if visible_anywhere:
            result.visible_intervals.append(interval)
        if routes:
            result.outbreaks.append(ZombieOutbreak(interval, tuple(routes)))
