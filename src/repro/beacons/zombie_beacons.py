"""The paper's new beaconing methodology (§4).

Every 15 minutes (:00, :15, :30, :45) a different /48 from
``2a0d:3dc1::/32`` is announced by AS210312 and withdrawn 15 minutes
later.  The announcement timestamp is encoded in the prefix bits (a
"BGP clock"), with two recycling approaches:

* **Approach A** (24-hour recycle, 2024-06-04 11:45 → 2024-06-10 09:30):
  hextet ``HHMM`` — e.g. 11:45 → ``2a0d:3dc1:1145::/48``.  96 distinct
  prefixes per day, reused every day.
* **Approach B** (15-day recycle, 2024-06-10 11:30 → 2024-06-22 17:30):
  hextet ``(HH)(minute + day%15)`` — e.g. 18:45 on a day with
  ``day%15 == 6`` → ``2a0d:3dc1:1851::/48``.

Approach B carries the paper's documented bug (footnote 3): because the
remainder is concatenated without padding, some days map two slots to
the same prefix (e.g. 2024-06-15: 00:30 and 03:00 both give
``2a0d:3dc1:30::/48``).  As in the paper, the *earlier* colliding slot
is marked ``discarded`` and excluded from analysis.

Decimal digits are written directly as hextet characters, so "11:45"
becomes the hex value 0x1145 — exactly how the real beacon prefixes
read in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from repro.beacons.schedule import BeaconInterval, BeaconSchedule
from repro.net.prefix import Prefix
from repro.utils.timeutil import MINUTE, align_up, from_iso, to_datetime

__all__ = [
    "RecycleApproach",
    "ZombieBeaconSchedule",
    "PaperCampaign",
    "slot_prefix",
    "BEACON_ORIGIN_ASN",
    "BEACON_SUPER_PREFIX",
    "SLOT_PERIOD",
    "HOLD_TIME",
]

BEACON_ORIGIN_ASN = 210312
BEACON_SUPER_PREFIX = Prefix("2a0d:3dc1::/32")

SLOT_PERIOD = 15 * MINUTE
HOLD_TIME = 15 * MINUTE

#: Paper campaign windows (§4).
APPROACH_A_START = from_iso("2024-06-04 11:45")
APPROACH_A_END = from_iso("2024-06-10 09:30")
APPROACH_B_START = from_iso("2024-06-10 11:30")
APPROACH_B_END = from_iso("2024-06-22 17:30")


class RecycleApproach(Enum):
    """How often a beacon prefix is reused."""

    DAILY = "24h"
    FIFTEEN_DAYS = "15d"


def _hextet_from_digits(digits: str) -> int:
    """Interpret a decimal-digit string as hextet characters (0x1145 for
    "1145").  Raises if the value would not fit in 16 bits."""
    value = int(digits, 16)
    if value > 0xFFFF:
        raise ValueError(f"clock digits {digits!r} overflow a hextet")
    return value


def slot_prefix(slot_time: int, approach: RecycleApproach) -> Prefix:
    """The beacon prefix announced at ``slot_time`` under ``approach``."""
    dt = to_datetime(slot_time)
    if dt.minute % 15 or dt.second:
        raise ValueError(f"{dt} is not a :00/:15/:30/:45 slot")
    if approach is RecycleApproach.DAILY:
        digits = f"{dt.hour:02d}{dt.minute:02d}"
    else:
        digits = f"{dt.hour:02d}{dt.minute + dt.day % 15}"
    return Prefix(f"2a0d:3dc1:{_hextet_from_digits(digits):x}::/48")


def decode_slot_a(prefix: Prefix, day_start: int) -> int:
    """Invert approach-A encoding for a given UTC day; returns slot time."""
    hextet = int(str(prefix.network.network_address).split(":")[2] or "0", 16)
    digits = f"{hextet:04x}"
    hour, minute = int(digits[:2]), int(digits[2:])
    if hour > 23 or minute not in (0, 15, 30, 45):
        raise ValueError(f"{prefix} is not an approach-A beacon prefix")
    return day_start + hour * 3600 + minute * 60


@dataclass(frozen=True)
class _Slot:
    time: int
    prefix: Prefix


class ZombieBeaconSchedule(BeaconSchedule):
    """15-minute beacon slots under one recycling approach."""

    def __init__(self, approach: RecycleApproach,
                 origin_asn: int = BEACON_ORIGIN_ASN):
        self.approach = approach
        self.origin_asn = origin_asn

    def _slots(self, start: int, end: int) -> Iterator[_Slot]:
        slot = align_up(start, SLOT_PERIOD)
        while slot < end:
            yield _Slot(slot, slot_prefix(slot, self.approach))
            slot += SLOT_PERIOD

    def intervals(self, start: int, end: int) -> Iterator[BeaconInterval]:
        """Announce/withdraw cycles, with approach-B collisions flagged.

        A collision exists when two slots inside one recycle window map
        to the same prefix; the earlier slot is marked ``discarded``
        (paper footnote 3 studies only the latter).
        """
        slots = list(self._slots(start, end))
        discarded: set[int] = set()
        if self.approach is RecycleApproach.FIFTEEN_DAYS:
            by_day_prefix: dict[tuple[int, Prefix], list[_Slot]] = {}
            for slot in slots:
                day = to_datetime(slot.time).toordinal()
                by_day_prefix.setdefault((day, slot.prefix), []).append(slot)
            for group in by_day_prefix.values():
                for earlier in group[:-1]:
                    discarded.add(earlier.time)
        for slot in slots:
            yield BeaconInterval(
                prefix=slot.prefix,
                announce_time=slot.time,
                withdraw_time=slot.time + HOLD_TIME,
                origin_asn=self.origin_asn,
                discarded=slot.time in discarded,
            )

    def collisions(self, start: int, end: int) -> list[tuple[BeaconInterval, BeaconInterval]]:
        """(discarded, kept) interval pairs that share a prefix and day."""
        intervals = list(self.intervals(start, end))
        pairs = []
        kept = {(i.prefix, to_datetime(i.announce_time).toordinal()): i
                for i in intervals if not i.discarded}
        for interval in intervals:
            if interval.discarded:
                key = (interval.prefix, to_datetime(interval.announce_time).toordinal())
                pairs.append((interval, kept[key]))
        return pairs


class PaperCampaign(BeaconSchedule):
    """The full 18-day 2024 campaign: approach A then approach B, with
    the paper's exact start/end instants."""

    def __init__(self, origin_asn: int = BEACON_ORIGIN_ASN):
        self.origin_asn = origin_asn
        self.approach_a = ZombieBeaconSchedule(RecycleApproach.DAILY, origin_asn)
        self.approach_b = ZombieBeaconSchedule(RecycleApproach.FIFTEEN_DAYS, origin_asn)

    @property
    def start(self) -> int:
        return APPROACH_A_START

    @property
    def end(self) -> int:
        return APPROACH_B_END

    def intervals(self, start: Optional[int] = None,
                  end: Optional[int] = None) -> Iterator[BeaconInterval]:
        start = self.start if start is None else start
        end = self.end if end is None else end
        a_lo, a_hi = max(start, APPROACH_A_START), min(end, APPROACH_A_END)
        if a_lo < a_hi:
            yield from self.approach_a.intervals(a_lo, a_hi)
        b_lo, b_hi = max(start, APPROACH_B_START), min(end, APPROACH_B_END)
        if b_lo < b_hi:
            yield from self.approach_b.intervals(b_lo, b_hi)
