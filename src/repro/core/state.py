"""Per-peer prefix state reconstruction from RIS raw data (paper §3.1).

The revised methodology's first pillar: rather than querying the
RIPEstat looking glass, reconstruct the *present/removed* state of any
prefix at any RIS peer at any instant, at message-level granularity,
from archived BGP UPDATE messages plus STATE (session) messages.

State machine per (peer router, prefix):

* an announcement ⇒ PRESENT (remembering the announcement record);
* a withdrawal ⇒ REMOVED;
* session down ⇒ REMOVED (everything learned on the session is void);
* session up ⇒ REMOVED until the peer re-announces.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from repro.bgp.messages import Record, StateRecord, UpdateRecord, record_sort_key
from repro.net.prefix import Prefix

__all__ = ["PrefixState", "PeerKey", "StateReconstructor"]

#: A RIS peer router identity: (collector, peer_address).
PeerKey = tuple[str, str]


class PrefixState(Enum):
    PRESENT = "present"
    REMOVED = "removed"


@dataclass(frozen=True)
class _Event:
    time: int
    order: int           # global tiebreak preserving stream order
    present: bool
    announcement: Optional[UpdateRecord]  # set when present


class StateReconstructor:
    """Replayable state index over a record stream.

    Build once over a window of records, then query
    :meth:`state_at`/:meth:`last_announcement` for any instant inside the
    window.  Interval isolation (§3.1: "we process each interval
    independently") is achieved by constructing the reconstructor from
    only that interval's records.
    """

    def __init__(self, records: Iterable[Record]):
        #: (peer, prefix) -> time-ordered events.
        self._events: dict[tuple[PeerKey, Prefix], list[_Event]] = {}
        #: prefix -> peers with an event list for it.  Per-prefix
        #: queries (``peers_with_prefix``/``ever_announced``) walk this
        #: instead of scanning every (peer, prefix) pair.
        self._peers_by_prefix: dict[Prefix, set[PeerKey]] = {}
        #: peers that ever appeared in the stream.
        self._peers: dict[PeerKey, int] = {}
        ordered = sorted(records, key=record_sort_key)
        for order, record in enumerate(ordered):
            key: PeerKey = (record.collector, record.peer_address)
            self._peers.setdefault(key, record.peer_asn)
            if isinstance(record, StateRecord):
                if record.is_session_down or record.is_session_up:
                    # Both directions void previously learned routes: on
                    # "up" the peer must re-announce before counting as
                    # present.
                    self._append_for_peer(key, record.timestamp, order)
                continue
            assert isinstance(record, UpdateRecord)
            event = _Event(record.timestamp, order,
                           present=record.is_announcement,
                           announcement=record if record.is_announcement else None)
            self._events.setdefault((key, record.prefix), []).append(event)
            self._peers_by_prefix.setdefault(record.prefix, set()).add(key)

    def _append_for_peer(self, key: PeerKey, time: int, order: int) -> None:
        """Record a session transition: a REMOVED event on every prefix
        already tracked for the peer, plus a marker so future prefixes
        are unaffected (they start REMOVED anyway)."""
        for (peer, prefix), events in self._events.items():
            if peer == key:
                events.append(_Event(time, order, present=False, announcement=None))

    # -- queries ---------------------------------------------------------

    def peers(self) -> dict[PeerKey, int]:
        """Every peer router seen, mapped to its ASN."""
        return dict(self._peers)

    def peer_asn(self, key: PeerKey) -> Optional[int]:
        return self._peers.get(key)

    def prefixes(self) -> set[Prefix]:
        return {prefix for (_, prefix) in self._events}

    def _last_event(self, key: PeerKey, prefix: Prefix,
                    time: int) -> Optional[_Event]:
        events = self._events.get((key, prefix))
        if not events:
            return None
        # Events are appended in stream order, which is time order.
        index = bisect.bisect_right(events, (time, float("inf")),
                                    key=lambda e: (e.time, e.order))
        if index == 0:
            return None
        return events[index - 1]

    def state_at(self, key: PeerKey, prefix: Prefix, time: int) -> PrefixState:
        """The reconstructed state of ``prefix`` at peer ``key`` at
        ``time`` (unknown peers/prefixes are REMOVED)."""
        event = self._last_event(key, prefix, time)
        if event is None or not event.present:
            return PrefixState.REMOVED
        return PrefixState.PRESENT

    def last_announcement(self, key: PeerKey, prefix: Prefix,
                          time: int) -> Optional[UpdateRecord]:
        """The announcement that makes the prefix PRESENT at ``time``
        (None when the state is REMOVED)."""
        event = self._last_event(key, prefix, time)
        if event is None or not event.present:
            return None
        return event.announcement

    def peers_with_prefix(self, prefix: Prefix, time: int) -> list[PeerKey]:
        """Peer routers whose state for ``prefix`` is PRESENT at ``time``."""
        present = []
        for key in self._peers_by_prefix.get(prefix, ()):
            if self.state_at(key, prefix, time) is PrefixState.PRESENT:
                present.append(key)
        return sorted(present)

    def ever_announced(self, prefix: Prefix, key: Optional[PeerKey] = None) -> bool:
        """Did any peer (or one specific peer) announce ``prefix`` inside
        the window this reconstructor covers?"""
        if key is not None:
            events = self._events.get((key, prefix), [])
            return any(e.present for e in events)
        return any(any(e.present for e in self._events[(peer, prefix)])
                   for peer in self._peers_by_prefix.get(prefix, ()))
