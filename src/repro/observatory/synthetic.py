"""A small scripted campaign archive for exercising the observatory.

Builds a deterministic on-disk archive (updates + 8-hourly bview dumps)
whose record stream contains one of each phenomenon the observatory
reports on:

* a **stuck** prefix — one peer never sends the final withdrawal, cured
  a day and a half later (outbreak + multi-dump lifespan);
* an **update-scale resurrection** — withdrawn normally, re-announced
  170 minutes later (the §5.1 Fig. 2 uptick);
* a **dump-scale resurrection** — stuck, withdrawn after two dumps,
  re-announced a day later (a gap in the presence segments, §5.1
  Fig. 4).

Alongside the archive a ``scenario.json`` records the window and the
beacon intervals, so ``python -m repro observatory ingest`` can run
against the archive with no other configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.beacons.schedule import BeaconInterval
from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Announcement, Record, UpdateRecord, Withdrawal
from repro.net.prefix import Prefix
from repro.ris.archive import ArchiveWriter
from repro.simulator.ribgen import generate_rib_dumps
from repro.utils.timeutil import DAY, HOUR, MINUTE, ts

__all__ = ["SyntheticScenario", "build_synthetic_archive", "load_scenario"]

ORIGIN_ASN = 210312

#: (collector, peer address, peer ASN) — two collectors, two peers each.
PEERS: tuple[tuple[str, str, int], ...] = (
    ("rrc00", "2001:db8:a::1", 64500),
    ("rrc00", "2001:db8:b::1", 64501),
    ("rrc01", "2001:db8:c::1", 64502),
    ("rrc01", "2001:db8:d::1", 64503),
)


@dataclass(frozen=True)
class SyntheticScenario:
    """What :func:`build_synthetic_archive` produced."""

    root: Path
    start: int
    end: int
    intervals: tuple[BeaconInterval, ...]
    #: phenomenon name -> prefix string.
    scripted: dict[str, str]
    record_count: int
    scenario_path: Path


def _attrs(peer_asn: int, peer_address: str) -> PathAttributes:
    return PathAttributes(as_path=ASPath.of(peer_asn, 8298, ORIGIN_ASN),
                          next_hop=peer_address)


def build_synthetic_archive(root: Union[str, Path],
                            days: int = 2) -> SyntheticScenario:
    """Write the scripted archive under ``root``; fully deterministic.

    ``days`` is the number of beacon days (each prefix gets one
    announce/withdraw cycle per day; the zombie scripts ride on the
    final day's cycles).  The window extends two days past the beacon
    days so lifespans and resurrections play out across RIB dumps.
    """
    if days < 1:
        raise ValueError("need at least one beacon day")
    root = Path(root)
    start = ts(2024, 6, 1)
    end = start + (days + 2) * DAY
    prefixes = [Prefix(f"2a0d:3dc1:{0x1000 + i:x}::/48") for i in range(6)]

    intervals: list[BeaconInterval] = []
    for day in range(days):
        for index, prefix in enumerate(prefixes):
            announce = start + day * DAY + 2 * HOUR + index * HOUR
            intervals.append(BeaconInterval(
                prefix=prefix, announce_time=announce,
                withdraw_time=announce + 3 * HOUR, origin_asn=ORIGIN_ASN))

    stuck = prefixes[0]
    resur_updates = prefixes[1]
    resur_rib = prefixes[2]
    final_day = days - 1
    stuck_peer = PEERS[0]
    resur_updates_peer = PEERS[2]
    resur_rib_peer = PEERS[1]

    records: list[Record] = []

    def announce(peer, prefix: Prefix, when: int) -> None:
        collector, address, asn = peer
        records.append(UpdateRecord(when, collector, address, asn,
                                    Announcement(prefix, _attrs(asn, address))))

    def withdraw(peer, prefix: Prefix, when: int) -> None:
        collector, address, asn = peer
        records.append(UpdateRecord(when, collector, address, asn,
                                    Withdrawal(prefix)))

    for interval in intervals:
        is_final = interval.announce_time >= start + final_day * DAY
        for offset, peer in enumerate(PEERS):
            announce(peer, interval.prefix,
                     interval.announce_time + 10 + offset)
            if is_final and interval.prefix == stuck and peer == stuck_peer:
                continue  # the stuck peer never hears the withdrawal
            if is_final and interval.prefix == resur_rib \
                    and peer == resur_rib_peer:
                continue  # stuck too — scripted below
            withdraw(peer, interval.prefix,
                     interval.withdraw_time + 10 + offset)

    final_by_prefix = {p: max(i.withdraw_time for i in intervals
                              if i.prefix == p) for p in prefixes}

    # Stuck prefix: cured a day and a half after the final withdrawal.
    withdraw(stuck_peer, stuck, start + (final_day + 1) * DAY + 12 * HOUR + 10)

    # Update-scale resurrection: back 170 minutes after the withdrawal,
    # gone again an hour later (so it never reaches a RIB dump).
    wd = final_by_prefix[resur_updates]
    announce(resur_updates_peer, resur_updates, wd + 170 * MINUTE + 12)
    withdraw(resur_updates_peer, resur_updates, wd + 170 * MINUTE + HOUR + 12)

    # Dump-scale resurrection: stuck through two dumps, withdrawn, then
    # re-announced a day later and finally cured.
    withdraw(resur_rib_peer, resur_rib, start + (final_day + 1) * DAY + 6)
    announce(resur_rib_peer, resur_rib, start + (final_day + 2) * DAY + 6)
    withdraw(resur_rib_peer, resur_rib,
             start + (final_day + 2) * DAY + 12 * HOUR + 6)

    records.sort(key=lambda r: r.timestamp)
    writer = ArchiveWriter(root)
    by_collector: dict[str, list[Record]] = {}
    for record in records:
        by_collector.setdefault(record.collector, []).append(record)
    for collector, items in sorted(by_collector.items()):
        writer.write_updates(collector, items)
    for dump in generate_rib_dumps(records, start, end):
        writer.write_rib(dump)

    scenario_path = root / "scenario.json"
    with open(scenario_path, "w", encoding="utf-8") as handle:
        json.dump({
            "version": 1,
            "start": start,
            "end": end,
            "threshold": 90 * MINUTE,
            "min_offset": 120 * MINUTE,
            "excluded_peers": [],
            "intervals": [i.to_json() for i in intervals],
            "scripted": {"stuck": str(stuck),
                         "resurrection_updates": str(resur_updates),
                         "resurrection_rib": str(resur_rib)},
        }, handle, indent=2, sort_keys=True)

    return SyntheticScenario(
        root=root, start=start, end=end, intervals=tuple(intervals),
        scripted={"stuck": str(stuck),
                  "resurrection_updates": str(resur_updates),
                  "resurrection_rib": str(resur_rib)},
        record_count=len(records), scenario_path=scenario_path)


def load_scenario(path: Union[str, Path]) -> dict:
    """Read a ``scenario.json``; intervals come back rehydrated."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != 1:
        raise ValueError(f"unsupported scenario version: "
                         f"{payload.get('version')!r}")
    payload["intervals"] = [BeaconInterval.from_json(entry)
                            for entry in payload["intervals"]]
    payload["excluded_peers"] = frozenset(
        (c, a) for c, a in payload["excluded_peers"])
    return payload
