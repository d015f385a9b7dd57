"""Zombie lifespan tracking from 8-hourly RIB dumps (paper §5, Fig. 3-4).

Update streams answer *whether* a route got stuck; RIB dumps answer
*for how long*.  RIS publishes every peer's table every 8 hours, so we
replay the dump series and, for every beacon prefix, record in which
dumps (and at which peers) the prefix was still present after its final
withdrawal by the origin.

Presence over time forms **segments**: maximal runs of consecutive dumps
where at least one peer holds the route.  More than one segment means
the prefix disappeared from every peer and later came back — a
**resurrection** (§5.1, Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.core.state import PeerKey
from repro.mrt.tabledump import RibDump
from repro.net.prefix import Prefix
from repro.utils.timeutil import DAY, MINUTE

__all__ = ["PresenceSegment", "ZombieLifespan", "LifespanTracker",
           "LifespanDelta", "LifespanSession", "LATE_FIRST_SEEN",
           "starts_resurrection"]

#: Session snapshot document version (2: ``late_first_seen`` became
#: the constant :data:`LATE_FIRST_SEEN`).
SNAPSHOT_VERSION = 2

#: A first sighting this long after the final withdrawal means the route
#: had vanished from every peer and came back.
LATE_FIRST_SEEN = 2 * DAY


def starts_resurrection(withdraw_time: int, earlier_segments: int,
                        start: int) -> bool:
    """The dump-scale §5.1 predicate: a presence segment starting at
    ``start`` is a resurrection when it follows a gap (an earlier
    segment exists) or is a first sighting later than
    ``withdraw_time + LATE_FIRST_SEEN``."""
    return bool(earlier_segments) or start > withdraw_time + LATE_FIRST_SEEN


@dataclass(frozen=True)
class PresenceSegment:
    """A maximal run of dump instants where the zombie was visible."""

    start: int
    end: int
    peers: frozenset[PeerKey]


@dataclass
class ZombieLifespan:
    """The full story of one zombie prefix after its final withdrawal."""

    prefix: Prefix
    withdraw_time: int
    segments: list[PresenceSegment] = field(default_factory=list)
    #: peer router -> (first dump seen, last dump seen).
    peer_spans: dict[PeerKey, tuple[int, int]] = field(default_factory=dict)

    @property
    def is_zombie(self) -> bool:
        return bool(self.segments)

    @property
    def first_seen(self) -> Optional[int]:
        return self.segments[0].start if self.segments else None

    @property
    def last_seen(self) -> Optional[int]:
        return self.segments[-1].end if self.segments else None

    @property
    def duration_seconds(self) -> int:
        """Withdrawal → last sighting (0 when never stuck)."""
        return (self.last_seen - self.withdraw_time) if self.segments else 0

    @property
    def duration_days(self) -> float:
        return self.duration_seconds / DAY

    @property
    def resurrection_count(self) -> int:
        """Number of gaps: times the zombie vanished then reappeared."""
        return max(0, len(self.segments) - 1)

    def peer_duration_days(self, peer: PeerKey) -> float:
        span = self.peer_spans.get(peer)
        if span is None:
            return 0.0
        return (span[1] - span[0]) / DAY


@dataclass(frozen=True)
class LifespanDelta:
    """One prefix's presence change committed at one dump instant."""

    prefix: Prefix
    instant: int
    #: any (non-excluded) peer held the route at this instant.
    visible: bool
    #: this instant opened a new presence segment.
    started_segment: bool
    #: the new segment follows a gap (or a late first sighting) — the
    #: §5.1 dump-scale resurrection signal.
    resurrection: bool
    #: peers holding the route at this instant.
    peers: frozenset[PeerKey] = frozenset()


@dataclass
class _PrefixProgress:
    """Mutable per-prefix lifespan state inside a session."""

    withdraw_time: int
    segments: list[PresenceSegment] = field(default_factory=list)
    run_start: Optional[int] = None
    run_end: Optional[int] = None
    run_peers: set[PeerKey] = field(default_factory=set)
    peer_spans: dict[PeerKey, tuple[int, int]] = field(default_factory=dict)


class LifespanSession:
    """Incremental lifespan tracking over a RIB-dump stream.

    Dumps must arrive in non-decreasing timestamp order; several dumps
    (different collectors) may share one instant, so an instant is only
    *committed* when a strictly later dump arrives (or on
    :meth:`finalize`).  The session is restart-safe: :meth:`snapshot`
    captures the complete state — including the uncommitted instant
    buffer — and :meth:`from_snapshot` resumes it exactly.
    """

    def __init__(self, final_withdrawals: dict[Prefix, int],
                 excluded_peers: frozenset[PeerKey] = frozenset(),
                 min_stuck: int = 90 * MINUTE):
        self.min_stuck = min_stuck
        self.excluded_peers = excluded_peers
        self._progress: dict[Prefix, _PrefixProgress] = {
            prefix: _PrefixProgress(withdraw_time)
            for prefix, withdraw_time in final_withdrawals.items()}
        #: instant buffered but not yet committed.
        self._pending_instant: Optional[int] = None
        self._pending: dict[Prefix, set[PeerKey]] = {}

    # -- ingestion -------------------------------------------------------

    def observe(self, dump: RibDump) -> list[LifespanDelta]:
        """Feed one dump; returns deltas for any instant this commits."""
        deltas: list[LifespanDelta] = []
        if (self._pending_instant is not None
                and dump.timestamp < self._pending_instant):
            raise ValueError(
                f"dump at {dump.timestamp} arrived after instant "
                f"{self._pending_instant} was buffered (out of order)")
        if (self._pending_instant is not None
                and dump.timestamp > self._pending_instant):
            deltas = self._commit()
        self._pending_instant = dump.timestamp
        for prefix, progress in self._progress.items():
            if prefix not in dump.entries or \
                    dump.timestamp < progress.withdraw_time + self.min_stuck:
                continue
            holders = {(dump.collector, address)
                       for _, address in dump.peers_holding(prefix)}
            holders -= self.excluded_peers
            if holders:
                self._pending.setdefault(prefix, set()).update(holders)
        return deltas

    def finalize(self) -> list[LifespanDelta]:
        """Commit the trailing buffered instant (end of dump stream)."""
        return self._commit()

    def _commit(self) -> list[LifespanDelta]:
        if self._pending_instant is None:
            return []
        instant = self._pending_instant
        deltas: list[LifespanDelta] = []
        for prefix in sorted(self._progress, key=str):
            progress = self._progress[prefix]
            if instant < progress.withdraw_time + self.min_stuck:
                continue
            holders = self._pending.get(prefix, set())
            if holders:
                started = progress.run_start is None
                resurrection = started and starts_resurrection(
                    progress.withdraw_time, len(progress.segments), instant)
                if started:
                    progress.run_start = instant
                progress.run_end = instant
                progress.run_peers.update(holders)
                for peer in holders:
                    first, _ = progress.peer_spans.get(peer, (instant, instant))
                    progress.peer_spans[peer] = (first, instant)
                deltas.append(LifespanDelta(prefix, instant, True, started,
                                            resurrection, frozenset(holders)))
            elif progress.run_start is not None:
                progress.segments.append(PresenceSegment(
                    progress.run_start, progress.run_end,
                    frozenset(progress.run_peers)))
                progress.run_start = progress.run_end = None
                progress.run_peers = set()
                deltas.append(LifespanDelta(prefix, instant, False, False,
                                            False))
        self._pending_instant = None
        self._pending = {}
        return deltas

    # -- results ---------------------------------------------------------

    def lifespans(self) -> dict[Prefix, ZombieLifespan]:
        """Current lifespans (the open run counts as a segment so far)."""
        out: dict[Prefix, ZombieLifespan] = {}
        for prefix, progress in self._progress.items():
            lifespan = ZombieLifespan(prefix, progress.withdraw_time)
            lifespan.segments = list(progress.segments)
            if progress.run_start is not None:
                lifespan.segments.append(PresenceSegment(
                    progress.run_start, progress.run_end,
                    frozenset(progress.run_peers)))
            lifespan.peer_spans = dict(progress.peer_spans)
            out[prefix] = lifespan
        return out

    def lifespan_for(self, prefix: Prefix) -> Optional[ZombieLifespan]:
        if prefix not in self._progress:
            return None
        return self.lifespans()[prefix]

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe document capturing the complete session state."""
        prefixes = {}
        for prefix, p in sorted(self._progress.items(), key=lambda kv: str(kv[0])):
            prefixes[str(prefix)] = {
                "withdraw_time": p.withdraw_time,
                "segments": [[s.start, s.end, sorted(s.peers)]
                             for s in p.segments],
                "run": ([p.run_start, p.run_end, sorted(p.run_peers)]
                        if p.run_start is not None else None),
                "peer_spans": [[c, a, first, last]
                               for (c, a), (first, last)
                               in sorted(p.peer_spans.items())],
            }
        return {
            "version": SNAPSHOT_VERSION,
            "min_stuck": self.min_stuck,
            "excluded_peers": sorted([c, a] for c, a in self.excluded_peers),
            "pending_instant": self._pending_instant,
            "pending": {str(prefix): sorted([c, a] for c, a in holders)
                        for prefix, holders in sorted(self._pending.items(),
                                                      key=lambda kv: str(kv[0]))},
            "prefixes": prefixes,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "LifespanSession":
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported LifespanSession snapshot version: "
                f"{snapshot.get('version')!r}")
        session = cls({},
                      excluded_peers=frozenset(
                          (c, a) for c, a in snapshot["excluded_peers"]),
                      min_stuck=snapshot["min_stuck"])
        for text, data in snapshot["prefixes"].items():
            progress = _PrefixProgress(data["withdraw_time"])
            progress.segments = [
                PresenceSegment(start, end, frozenset((c, a) for c, a in peers))
                for start, end, peers in data["segments"]]
            if data["run"] is not None:
                start, end, peers = data["run"]
                progress.run_start = start
                progress.run_end = end
                progress.run_peers = {(c, a) for c, a in peers}
            progress.peer_spans = {(c, a): (first, last)
                                   for c, a, first, last in data["peer_spans"]}
            session._progress[Prefix(text)] = progress
        session._pending_instant = snapshot["pending_instant"]
        session._pending = {Prefix(text): {(c, a) for c, a in holders}
                            for text, holders in snapshot["pending"].items()}
        return session


class LifespanTracker:
    """Replay RIB dumps and measure zombie lifespans."""

    def __init__(self, min_stuck: int = 90 * MINUTE):
        #: a dump only counts as zombie evidence when it is at least this
        #: long after the withdrawal (consistent with the 90-minute
        #: detection threshold).
        self.min_stuck = min_stuck

    def session(self, final_withdrawals: dict[Prefix, int],
                excluded_peers: frozenset[PeerKey] = frozenset()
                ) -> LifespanSession:
        """An incremental (restart-safe) tracking session."""
        return LifespanSession(final_withdrawals, excluded_peers,
                               min_stuck=self.min_stuck)

    def track(self, dumps: Iterable[RibDump],
              final_withdrawals: dict[Prefix, int],
              excluded_peers: frozenset[PeerKey] = frozenset()
              ) -> dict[Prefix, ZombieLifespan]:
        """``final_withdrawals``: beacon prefix → the origin's last
        withdrawal time (ground truth from the schedule).  Returns one
        lifespan per prefix (non-zombies have empty segments).

        ``excluded_peers`` removes noisy peer routers, giving the
        "noisy peers excluded" line of Fig. 3."""
        session = self.session(final_withdrawals, excluded_peers)
        for dump in sorted(dumps, key=lambda d: d.timestamp):
            session.observe(dump)
        session.finalize()
        return session.lifespans()
