"""Replication of the Fontugne et al. study (paper §3, Appendix B).

Drives the RIPE RIS 4-hour beacons over one of the paper's three
periods and injects the fault classes that explain the paper's Table 1:

* **wedged peer sessions** (family-scoped :class:`LinkFreeze` on one of
  a multihomed peer AS's provider links): during the freeze, every
  beacon withdrawal triggers path hunting onto the frozen stale route,
  which is re-announced to the collector *with its original Aggregator
  clock* — so a freeze spanning k intervals yields k zombie counts with
  double-counting but only one without.  Freeze length distributions are
  per-period knobs reproducing the paper's per-period reductions.
* **the noisy peer** AS16347 @ rrc21, whose IPv6 feed is wedged ~43 % of
  the time (Table 4).
* **prefix-scoped suppressions** for singleton outbreaks (Fig. 7's
  "occurred singly" mass).

The run exposes both the revised and the legacy (looking-glass)
pipelines over the same records, which is what Tables 2-3 compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.beacons import RISBeaconSchedule, ris_beacons_2018
from repro.beacons.schedule import BeaconInterval
from repro.bgp.messages import Record
from repro.core import (
    DetectionResult,
    DetectorConfig,
    LegacyDetector,
    ZombieDetector,
)
from repro.core.state import PeerKey
from repro.experiments.config import ReplicationConfig
from repro.net.prefix import Prefix
from repro.ris import PeerRegistry, RISPeer
from repro.simulator import (
    BGPWorld,
    FaultPlan,
    LinkFreeze,
    WithdrawalSuppression,
)
from repro.topology import ASTopology, TopologyConfig, build_internet
from repro.utils.timeutil import HOUR, MINUTE

__all__ = ["ReplicationRun", "run_replication", "NOISY_PEER_16347"]

RIS_ORIGIN_ASN = 12654
BEACON_INTERVAL = 4 * HOUR

NOISY_PEER_16347 = RISPeer("rrc21", "2001:db8:3fdb::1", 16347)


@dataclass
class ReplicationRun:
    """One replication period's artefacts."""

    config: ReplicationConfig
    topology: ASTopology
    intervals: list[BeaconInterval]
    records: list[Record]
    peers: PeerRegistry
    noisy_truth: frozenset[PeerKey]
    #: detector config (or ``("legacy", threshold)``) -> its result over
    #: ``records``; see :meth:`detect`.
    _detections: dict[object, DetectionResult] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def detect(self, dedup: bool = True, exclude_noisy: bool = False,
               threshold: int = 90 * MINUTE) -> DetectionResult:
        """The revised detector over the period's records, memoised per
        detector configuration: callers share the result and must not
        mutate it."""
        excluded = self.noisy_truth if exclude_noisy else frozenset()
        config = DetectorConfig(threshold=threshold, dedup=dedup,
                                excluded_peers=excluded)
        if config not in self._detections:
            self._detections[config] = ZombieDetector(config).detect(
                self.records, self.intervals)
        return self._detections[config]

    def detect_legacy(self, threshold: int = 90 * MINUTE) -> DetectionResult:
        """The legacy detector (seeded, so deterministic), memoised and
        shared like :meth:`detect`."""
        key = ("legacy", threshold)
        if key not in self._detections:
            self._detections[key] = LegacyDetector(
                threshold=threshold, miss_prob=self.config.legacy_miss_prob,
                seed=self.config.seed, excluded_peers=self.noisy_truth,
            ).detect(self.records, self.intervals)
        return self._detections[key]


def run_replication(config: ReplicationConfig) -> ReplicationRun:
    """Build and execute one replication period."""
    rng = random.Random(config.seed)
    topology = build_internet(TopologyConfig(
        seed=config.seed, n_tier2=config.n_tier2, n_stub=config.n_stub))
    _add_ris_origin(topology)

    beacons = ris_beacons_2018()
    schedule = RISBeaconSchedule(beacons, origin_asn=RIS_ORIGIN_ASN)
    intervals = list(schedule.intervals(config.start, config.end))

    peers = _build_peer_registry(topology, config, rng)
    plan = _build_fault_plan(topology, config, intervals, peers, rng)

    world = BGPWorld(topology, seed=config.seed + 1, fault_plan=plan,
                     start_time=config.start - HOUR)
    world.attach_taps(peers, noisy={
        NOISY_PEER_16347.key: {6: config.noisy_drop_v6}})
    world.schedule_beacon_events(schedule.events(config.start, config.end))
    world.run_until(config.end + 6 * HOUR)

    return ReplicationRun(
        config=config,
        topology=topology,
        intervals=intervals,
        records=world.sorted_records(),
        peers=peers,
        noisy_truth=frozenset({NOISY_PEER_16347.key}),
    )


def _add_ris_origin(topology: ASTopology) -> None:
    """AS12654 (the RIS beacon origin) multihomed to two tier-1s."""
    if RIS_ORIGIN_ASN in topology:
        return
    topology.add_as(RIS_ORIGIN_ASN, tier=3)
    topology.add_provider_customer(1299, RIS_ORIGIN_ASN)
    topology.add_provider_customer(3356, RIS_ORIGIN_ASN)
    # The noisy peer must be multihomed: its wedged provider session
    # holds the stale route while withdrawals arrive on the live one.
    if not topology.graph.has_edge(2914, 16347):
        topology.add_provider_customer(2914, 16347)


def _build_peer_registry(topology: ASTopology, config: ReplicationConfig,
                         rng: random.Random) -> PeerRegistry:
    registry = PeerRegistry()
    registry.add(NOISY_PEER_16347)
    reserved = {RIS_ORIGIN_ASN, 16347}
    candidates = [asn for asn in topology.asns()
                  if asn >= 50000 and asn not in reserved
                  and len(topology.providers(asn)) >= 2]
    chosen = rng.sample(candidates, k=min(config.n_peers, len(candidates)))
    for index, asn in enumerate(sorted(chosen)):
        collector = f"rrc{(index % 14):02d}"
        registry.add(RISPeer(collector, f"2001:db8:{asn & 0xffff:x}:{index:x}::1",
                             asn))
    return registry


def _family_prefixes(beacons, ipv6: bool) -> frozenset[Prefix]:
    return frozenset(b.prefix for b in beacons if b.prefix.is_ipv6 == ipv6)


def _build_fault_plan(topology: ASTopology, config: ReplicationConfig,
                      intervals: list[BeaconInterval], peers: PeerRegistry,
                      rng: random.Random) -> FaultPlan:
    plan = FaultPlan()
    beacons = ris_beacons_2018()
    v4 = _family_prefixes(beacons, ipv6=False)
    v6 = _family_prefixes(beacons, ipv6=True)

    slots = sorted({i.announce_time for i in intervals})
    peer_links = _peer_provider_links(topology, peers)

    # The §3.2 noisy peer's IPv6 misbehaviour is tap-level (withdrawal
    # drops, wired in run_replication); its IPv4 contribution is one
    # rare long wedge whose duplicates dedup collapses (Table 4).
    noisy_link = _backup_provider_link(topology, NOISY_PEER_16347.asn)
    if noisy_link and slots and config.noisy_v4_freeze_fraction > 0:
        length = max(2, round(config.noisy_v4_freeze_fraction * len(slots)))
        start_index = rng.randrange(max(1, len(slots) - length))
        start = slots[start_index] + rng.uniform(0, HOUR)
        end = slots[start_index] + length * BEACON_INTERVAL
        plan.add_link_fault(LinkFreeze(src=noisy_link[0], dst=noisy_link[1],
                                       start=start, end=end, prefixes=v4))

    # Background wedges on ordinary peers, per family.
    for prefixes, p_freeze, mean_len in (
            (v4, config.p_session_freeze_v4, config.freeze_intervals_v4),
            (v6, config.p_session_freeze_v6, config.freeze_intervals_v6)):
        for slot in slots:
            if rng.random() >= p_freeze or not peer_links:
                continue
            link = rng.choice(peer_links)
            length = _geometric_length(rng, mean_len)
            start = slot + rng.uniform(0, HOUR)
            end = slot + length * BEACON_INTERVAL
            if end <= start:
                end = start + HOUR
            plan.add_link_fault(LinkFreeze(
                src=link[0], dst=link[1], start=start, end=end,
                prefixes=prefixes))

    # Prefix-scoped singleton zombies.
    for interval in intervals:
        if rng.random() >= config.p_prefix_zombie or not peer_links:
            continue
        link = rng.choice(peer_links)
        plan.add_link_fault(WithdrawalSuppression(
            src=link[0], dst=link[1], start=interval.withdraw_time - 60,
            end=interval.withdraw_time + HOUR,
            prefixes=frozenset({interval.prefix})))

    return plan


def _backup_provider_map(topology: ASTopology) -> dict[int, int]:
    """For every multihomed AS, the provider that is *not* its best
    source for the beacon origin's routes.

    Found empirically: propagate one probe announcement through a
    fault-free copy of the world and read each router's decision.
    Freezing the backup link is what makes a zombie double-counted:
    each interval the fresh route arrives and is withdrawn on the live
    (best) link, and path hunting then re-exposes the frozen stale
    route with its original Aggregator clock.
    """
    probe_world = BGPWorld(topology, seed=0)
    probe = Prefix("2001:db8:aaaa::/48")
    origin = probe_world.routers[RIS_ORIGIN_ASN]
    origin.originate(probe, probe_world.beacon_attributes(
        RIS_ORIGIN_ASN, 0, use_aggregator_clock=False))
    probe_world.run_until_idle()

    backups: dict[int, int] = {}
    for asn, router in probe_world.routers.items():
        providers = topology.providers(asn)
        if len(providers) < 2:
            continue
        entry = router.best.get(probe)
        if entry is None or entry[0] is None:
            continue
        best_src = entry[0]
        alternates = [p for p in providers
                      if p != best_src and p in router.adj_rib_in.get(probe, {})]
        if alternates:
            backups[asn] = min(alternates)
    return backups


def _backup_provider_link(topology: ASTopology, asn: int,
                          backups: Optional[dict[int, int]] = None
                          ) -> Optional[tuple[int, int]]:
    if backups is None:
        backups = _backup_provider_map(topology)
    provider = backups.get(asn)
    return (provider, asn) if provider is not None else None


def _peer_provider_links(topology: ASTopology,
                         peers: PeerRegistry) -> list[tuple[int, int]]:
    backups = _backup_provider_map(topology)
    links = []
    for peer in sorted(peers, key=lambda p: (p.asn, p.address)):
        if peer.asn == NOISY_PEER_16347.asn:
            continue
        link = _backup_provider_link(topology, peer.asn, backups)
        if link is not None:
            links.append(link)
    return links


def _geometric_length(rng: random.Random, mean: float) -> int:
    """Geometric interval count with the given mean (>= 1)."""
    if mean <= 1.0:
        return 1
    extend_prob = 1.0 - 1.0 / mean
    length = 1
    while rng.random() < extend_prob:
        length += 1
    return length
