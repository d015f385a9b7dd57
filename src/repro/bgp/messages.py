"""BGP message and collected-record model.

Two layers are distinguished:

* *Protocol messages* — :class:`Announcement`, :class:`Withdrawal` — what
  a BGP speaker sends to a neighbour.  They carry no timestamp; timing is
  a property of observation.
* *Collected records* — :class:`UpdateRecord`, :class:`StateRecord` — a
  protocol message (or session state change) as observed by a route
  collector from a specific peer at a specific time.  These are what MRT
  files serialise and what the detection pipeline consumes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Union

from repro.bgp.attributes import PathAttributes
from repro.net.prefix import Prefix

__all__ = [
    "Announcement",
    "Withdrawal",
    "PeerState",
    "UpdateRecord",
    "StateRecord",
    "Record",
    "merge_records",
]


@dataclass(frozen=True)
class Announcement:
    """A reachability announcement for one prefix."""

    prefix: Prefix
    attributes: PathAttributes

    @property
    def origin_as(self) -> int:
        return self.attributes.origin_as

    def __str__(self) -> str:
        return f"A {self.prefix} path[{self.attributes.as_path}]"


@dataclass(frozen=True)
class Withdrawal:
    """A withdrawal of one prefix."""

    prefix: Prefix

    def __str__(self) -> str:
        return f"W {self.prefix}"


Message = Union[Announcement, Withdrawal]


class PeerState(Enum):
    """BGP FSM states relevant to collector STATE messages (RFC 4271 §8)."""

    IDLE = 1
    CONNECT = 2
    ACTIVE = 3
    OPENSENT = 4
    OPENCONFIRM = 5
    ESTABLISHED = 6


@dataclass(frozen=True)
class UpdateRecord:
    """A BGP UPDATE observed by a collector.

    ``peer_address``/``peer_asn`` identify the RIS peer *router* that sent
    the update to the collector.  A peer AS may contribute several peer
    routers (distinct addresses), as with the paper's noisy peer AS211509.
    """

    timestamp: int
    collector: str
    peer_address: str
    peer_asn: int
    message: Message

    @property
    def is_withdrawal(self) -> bool:
        return isinstance(self.message, Withdrawal)

    @property
    def is_announcement(self) -> bool:
        return isinstance(self.message, Announcement)

    @property
    def prefix(self) -> Prefix:
        return self.message.prefix

    @property
    def attributes(self) -> Optional[PathAttributes]:
        if isinstance(self.message, Announcement):
            return self.message.attributes
        return None

    def __str__(self) -> str:
        kind = "W" if self.is_withdrawal else "A"
        return (f"{self.timestamp} {self.collector} {self.peer_address} "
                f"(AS{self.peer_asn}) {kind} {self.prefix}")


@dataclass(frozen=True)
class StateRecord:
    """A collector/peer BGP session state change (MRT BGP4MP_STATE_CHANGE).

    A transition *out of* ESTABLISHED invalidates everything previously
    learned from the peer; a transition back *into* ESTABLISHED means the
    peer re-announces its table.  The state reconstructor uses these to
    avoid counting stale knowledge across session resets.
    """

    timestamp: int
    collector: str
    peer_address: str
    peer_asn: int
    old_state: PeerState
    new_state: PeerState

    @property
    def is_session_down(self) -> bool:
        return (self.old_state == PeerState.ESTABLISHED
                and self.new_state != PeerState.ESTABLISHED)

    @property
    def is_session_up(self) -> bool:
        return (self.new_state == PeerState.ESTABLISHED
                and self.old_state != PeerState.ESTABLISHED)

    def __str__(self) -> str:
        return (f"{self.timestamp} {self.collector} {self.peer_address} "
                f"(AS{self.peer_asn}) STATE {self.old_state.name}->"
                f"{self.new_state.name}")


Record = Union[UpdateRecord, StateRecord]


def record_sort_key(record: Record) -> tuple:
    """Stable ordering for mixed record streams: by time, then peer, and
    STATE records before UPDATE records at the same instant (a session
    must be up before updates flow on it)."""
    is_update = isinstance(record, UpdateRecord)
    return (record.timestamp, record.collector, record.peer_address, is_update)


def merge_records(streams: Iterable[Iterable[Record]]) -> Iterator[Record]:
    """Merge streams that are each in :func:`record_sort_key` order
    (one per collector, file run or platform) into one such stream."""
    return heapq.merge(*streams, key=record_sort_key)
