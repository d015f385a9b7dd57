"""Beacon methodologies: RIS 4-hour beacons and the paper's new beacons."""

from repro.beacons.aggregator import AggregatorClock
from repro.beacons.ris_beacons import (
    RIS_BEACON_ASN,
    RISBeacon,
    RISBeaconSchedule,
    ris_beacons_2018,
)
from repro.beacons.schedule import BeaconAction, BeaconEvent, BeaconInterval, BeaconSchedule
from repro.beacons.zombie_beacons import (
    BEACON_ORIGIN_ASN,
    BEACON_SUPER_PREFIX,
    HOLD_TIME,
    SLOT_PERIOD,
    PaperCampaign,
    RecycleApproach,
    ZombieBeaconSchedule,
    slot_prefix,
)

__all__ = [
    "AggregatorClock",
    "RISBeacon",
    "RISBeaconSchedule",
    "RIS_BEACON_ASN",
    "ris_beacons_2018",
    "BeaconAction",
    "BeaconEvent",
    "BeaconInterval",
    "BeaconSchedule",
    "BEACON_ORIGIN_ASN",
    "BEACON_SUPER_PREFIX",
    "HOLD_TIME",
    "SLOT_PERIOD",
    "PaperCampaign",
    "RecycleApproach",
    "ZombieBeaconSchedule",
    "slot_prefix",
]
