"""Generic beacon scheduling primitives.

A *beacon schedule* is a deterministic plan of prefix announcements and
withdrawals.  Schedules generate :class:`BeaconEvent` streams that the
simulator executes and that the detector uses as ground truth (we know
exactly when each prefix was announced and withdrawn — the property that
makes beacons the right instrument for zombie studies).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator, Optional

from repro.net.prefix import Prefix

__all__ = ["BeaconAction", "BeaconEvent", "BeaconInterval", "BeaconSchedule"]


class BeaconAction(Enum):
    ANNOUNCE = "announce"
    WITHDRAW = "withdraw"


@dataclass(frozen=True)
class BeaconEvent:
    """One scheduled action on one beacon prefix.

    ``origin_time`` is the announcement-origination time encoded into the
    Aggregator clock (equals ``time`` for fresh announcements).
    ``discarded`` marks events the analysis must ignore (approach-B
    prefix collisions, paper footnote 3).
    """

    time: int
    action: BeaconAction
    prefix: Prefix
    origin_asn: int
    origin_time: Optional[int] = None
    discarded: bool = False

    @property
    def is_announce(self) -> bool:
        return self.action is BeaconAction.ANNOUNCE


@dataclass(frozen=True)
class BeaconInterval:
    """One announce→withdraw cycle of one prefix: the unit over which
    zombie outbreaks are defined."""

    prefix: Prefix
    announce_time: int
    withdraw_time: int
    origin_asn: int
    discarded: bool = False

    @property
    def duration(self) -> int:
        return self.withdraw_time - self.announce_time

    def __post_init__(self):
        if self.withdraw_time <= self.announce_time:
            raise ValueError("withdrawal must come after announcement")

    def to_json(self) -> dict[str, Any]:
        """The interval as it appears in checkpoints and scenario files."""
        return {"prefix": str(self.prefix),
                "announce_time": self.announce_time,
                "withdraw_time": self.withdraw_time,
                "origin_asn": self.origin_asn,
                "discarded": self.discarded}

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "BeaconInterval":
        return cls(prefix=Prefix(payload["prefix"]),
                   announce_time=payload["announce_time"],
                   withdraw_time=payload["withdraw_time"],
                   origin_asn=payload["origin_asn"],
                   discarded=payload["discarded"])


class BeaconSchedule:
    """Base class: concrete schedules implement :meth:`intervals`."""

    def intervals(self, start: int, end: int) -> Iterator[BeaconInterval]:
        """Announce/withdraw cycles whose announcement falls in [start, end)."""
        raise NotImplementedError

    def events(self, start: int, end: int) -> Iterator[BeaconEvent]:
        """Flatten intervals into a time-ordered event stream."""
        pending: list[BeaconEvent] = []
        for interval in self.intervals(start, end):
            pending.append(BeaconEvent(interval.announce_time,
                                       BeaconAction.ANNOUNCE, interval.prefix,
                                       interval.origin_asn,
                                       origin_time=interval.announce_time,
                                       discarded=interval.discarded))
            pending.append(BeaconEvent(interval.withdraw_time,
                                       BeaconAction.WITHDRAW, interval.prefix,
                                       interval.origin_asn,
                                       discarded=interval.discarded))
        pending.sort(key=lambda e: (e.time, e.action is BeaconAction.ANNOUNCE,
                                    str(e.prefix)))
        yield from pending

    def prefixes(self, start: int, end: int) -> set[Prefix]:
        """Every prefix the schedule touches in the window."""
        return {interval.prefix for interval in self.intervals(start, end)}
