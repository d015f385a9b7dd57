"""The RIPE RIS routing beacons.

Every RIS beacon prefix is announced at 00:00, 04:00, ... (every four
hours) and withdrawn two hours later, from the collector's own AS
(AS12654).  At the time of the Fontugne et al. experiments the set was
13 IPv4 and 14 IPv6 prefixes; the registry below follows the real
addressing plan (``84.205.<64+N>.0/24`` and ``2001:7fb:feNN::/48`` for
collector ``rrcNN``).

Announcements carry the Aggregator clock (:class:`AggregatorClock`),
which is what makes double-count elimination possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.beacons.schedule import BeaconInterval, BeaconSchedule
from repro.net.prefix import Prefix
from repro.utils.timeutil import HOUR, align_up

__all__ = ["RISBeacon", "RISBeaconSchedule", "ris_beacons_2018", "RIS_BEACON_ASN"]

RIS_BEACON_ASN = 12654

ANNOUNCE_PERIOD = 4 * HOUR
WITHDRAW_OFFSET = 2 * HOUR


@dataclass(frozen=True)
class RISBeacon:
    """One RIS beacon prefix, tied to its announcing collector."""

    collector: str
    prefix: Prefix


def ris_beacons_2018() -> list[RISBeacon]:
    """The beacon set during the paper's replication periods: 13 IPv4 and
    14 IPv6 prefixes across collectors rrc00–rrc15 (minus retired ones)."""
    beacons: list[RISBeacon] = []
    v4_collectors = [0, 1, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15]
    v6_collectors = [0, 1, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 16]
    for index in v4_collectors:
        beacons.append(RISBeacon(f"rrc{index:02d}",
                                 Prefix(f"84.205.{64 + index}.0/24")))
    for index in v6_collectors:
        beacons.append(RISBeacon(f"rrc{index:02d}",
                                 Prefix(f"2001:7fb:fe{index:02x}::/48")))
    return beacons


class RISBeaconSchedule(BeaconSchedule):
    """The 4-hour RIS announce/withdraw cycle for a beacon set."""

    def __init__(self, beacons: Optional[Sequence[RISBeacon]] = None,
                 origin_asn: int = RIS_BEACON_ASN):
        self.beacons = list(beacons) if beacons is not None else ris_beacons_2018()
        self.origin_asn = origin_asn

    def intervals(self, start: int, end: int) -> Iterator[BeaconInterval]:
        slot = align_up(start, ANNOUNCE_PERIOD)
        while slot < end:
            for beacon in self.beacons:
                yield BeaconInterval(
                    prefix=beacon.prefix,
                    announce_time=slot,
                    withdraw_time=slot + WITHDRAW_OFFSET,
                    origin_asn=self.origin_asn,
                )
            slot += ANNOUNCE_PERIOD
