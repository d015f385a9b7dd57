"""The 2024 beacon campaign experiment (paper §4-§5).

Builds the synthetic Internet, attaches RIS peers (including the three
noisy peer routers of §5), schedules the PaperCampaign beacons, injects
the fault script — background transient/persistent zombies plus the
paper's named case studies — runs the world to the RIB-dump horizon and
returns a :class:`CampaignRun` from which every §5 figure/table derives.

Scripted cases (each reproduces a named paper artefact):

* ``2a0d:3dc1:2233::/48`` — withdrawal suppressed at Core-Backbone
  (AS33891): the "impactful zombie" seen by many peers, cured 4 days
  later (§5.2).
* ``2a0d:3dc1:163::/48`` — suppressed at HGC (AS9304): stuck at peers
  AS9304/AS17639 until 2024-11-03 and AS142271 (visible 06-23) until
  2024-10-25 (§5.2).
* ``2a0d:3dc1:1851::/48`` — stuck invisibly at AS10429, resurrected to
  peer AS61573 on 06-29, withdrawn 10-04, resurrected again 11-29,
  cured 2025-03-11: the Fig. 4 timeline (~8.5 months).
* a cluster of prefixes stuck at noisy AS211509 and resurrected to the
  single peer router of AS207301 one month after the campaign, yielding
  the 35-37-day step of Fig. 3.
* Telstra (AS4637) session resets at withdrawal+170 minutes: the Fig. 2
  uptick (§5.1), subpath ``4637 1299 25091 8298 210312``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.beacons import PaperCampaign
from repro.beacons.schedule import BeaconInterval
from repro.bgp.messages import Record
from repro.core import (
    DetectionResult,
    DetectorConfig,
    LifespanTracker,
    ZombieDetector,
    ZombieLifespan,
)
from repro.core.state import PeerKey
from repro.experiments.config import CampaignConfig
from repro.mrt.tabledump import RibDump
from repro.net.prefix import Prefix
from repro.ris import PeerRegistry, RISPeer
from repro.simulator import (
    BGPWorld,
    FaultPlan,
    LinkFreeze,
    ROA,
    ROARegistry,
    SessionResetEvent,
    WithdrawalDelay,
    WithdrawalSuppression,
    generate_rib_dumps,
)
from repro.topology import ASTopology, TopologyConfig, build_internet
from repro.utils.timeutil import DAY, HOUR, MINUTE, from_iso, ts

__all__ = ["CampaignRun", "run_campaign", "NOISY_PEER_ROUTERS"]

#: The three §5 noisy peer routers (exact addresses from the paper).
NOISY_PEER_ROUTERS: tuple[RISPeer, ...] = (
    RISPeer("rrc25", "176.119.234.201", 211509, transport_v4=True),
    RISPeer("rrc25", "2001:678:3f4:5::1", 211509),
    RISPeer("rrc25", "2a0c:9a40:1031::504", 211380),
)

#: The single peer router behind the 35-37-day Fig. 3 cluster.
PEER_207301 = RISPeer("rrc07", "2a0c:b641:780:7::feca", 207301)

ROA_REVOCATION_TIME = from_iso("2024-06-22 19:49")


@dataclass
class CampaignRun:
    """Everything the campaign produced."""

    config: CampaignConfig
    topology: ASTopology
    world: BGPWorld
    intervals: list[BeaconInterval]
    records: list[Record]
    peers: PeerRegistry
    #: ground-truth noisy routers (for validating the detector).
    noisy_truth: frozenset[PeerKey]
    #: beacon prefix -> final origin withdrawal time.
    final_withdrawals: dict[Prefix, int]
    #: named scripted prefixes for the case studies.
    scripted_prefixes: dict[str, Prefix] = field(default_factory=dict)
    #: detector config -> its result over ``records``; see :meth:`detect`.
    _detections: dict[DetectorConfig, DetectionResult] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: exclude_noisy -> tracked lifespans; see :meth:`lifespans`.
    _lifespans: dict[bool, dict[Prefix, ZombieLifespan]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def detect(self, threshold: int = 90 * MINUTE, dedup: bool = True,
               exclude_noisy: bool = False,
               excluded_peers: frozenset[PeerKey] = frozenset()
               ) -> DetectionResult:
        """Run the revised detector over the campaign records.

        The result is memoised per detector configuration (a run's
        records never change), so callers share it and must not mutate
        it."""
        excluded = set(excluded_peers)
        if exclude_noisy:
            excluded |= set(self.noisy_truth)
        config = DetectorConfig(threshold=threshold, dedup=dedup,
                                excluded_peers=frozenset(excluded))
        if config not in self._detections:
            self._detections[config] = ZombieDetector(config).detect(
                self.records, self.intervals)
        return self._detections[config]

    def lifespans(self, exclude_noisy: bool = False
                  ) -> dict[Prefix, ZombieLifespan]:
        """Zombie lifespans tracked over :meth:`rib_dumps`, from every
        peer or with the noisy peer routers left out (paper Fig. 3).

        Memoised like :meth:`detect`, so callers share the result and
        must not mutate it."""
        if exclude_noisy not in self._lifespans:
            excluded = self.noisy_truth if exclude_noisy else frozenset()
            self._lifespans[exclude_noisy] = LifespanTracker().track(
                self.rib_dumps(), self.final_withdrawals,
                excluded_peers=excluded)
        return self._lifespans[exclude_noisy]

    def rib_dumps(self, start: Optional[int] = None,
                  end: Optional[int] = None) -> Iterator[RibDump]:
        """8-hourly bview snapshots replayed from the record stream."""
        start = self.config.start if start is None else start
        end = self.config.dump_horizon if end is None else end
        return generate_rib_dumps(self.records, start, end)

    @property
    def announcement_count(self) -> int:
        return sum(1 for i in self.intervals if not i.discarded)


def run_campaign(config: Optional[CampaignConfig] = None) -> CampaignRun:
    """Build and execute the full campaign; deterministic per seed."""
    config = config or CampaignConfig()
    rng = random.Random(config.seed)

    topology = build_internet(TopologyConfig(
        seed=config.seed, n_tier2=config.n_tier2, n_stub=config.n_stub))
    _add_campaign_asns(topology)

    campaign = PaperCampaign()
    intervals = [i for i in campaign.intervals(config.start, config.end)]

    peers = _build_peer_registry(topology, config, rng)
    fault_plan, scripted = _build_fault_plan(topology, config, intervals,
                                             peers, rng)

    registry = ROARegistry()
    parent_roa = ROA(Prefix("2a0d:3dc1::/32"), 210312, max_length=32)
    beacon_roa = ROA(Prefix("2a0d:3dc1::/32"), 210312, max_length=48)
    registry.add(parent_roa)
    registry.add(beacon_roa)
    registry.revoke(beacon_roa, ROA_REVOCATION_TIME)
    rov_asns = _pick_rov_asns(topology, rng)

    world = BGPWorld(topology, seed=config.seed + 1, fault_plan=fault_plan,
                     roa_registry=registry, rov_asns=rov_asns,
                     transparent_asns=(TELSTRA_ROUTE_SERVER,),
                     start_time=config.start - HOUR)
    noisy = {
        NOISY_PEER_ROUTERS[0].key: config.noisy_drop_211509,
        NOISY_PEER_ROUTERS[1].key: config.noisy_drop_211509,
        NOISY_PEER_ROUTERS[2].key: config.noisy_drop_211380,
    }
    world.attach_taps(peers, noisy={k: v for k, v in noisy.items()
                                    if k in peers})

    world.schedule_beacon_events(campaign.events(config.start, config.end))
    world.run_until(config.dump_horizon)

    final_withdrawals: dict[Prefix, int] = {}
    for interval in intervals:
        current = final_withdrawals.get(interval.prefix, 0)
        final_withdrawals[interval.prefix] = max(current, interval.withdraw_time)

    return CampaignRun(
        config=config,
        topology=topology,
        world=world,
        intervals=intervals,
        records=world.sorted_records(),
        peers=peers,
        noisy_truth=frozenset(peer.key for peer in NOISY_PEER_ROUTERS
                              if peer.key in peers),
        final_withdrawals=final_withdrawals,
        scripted_prefixes=scripted,
    )


# -- world construction helpers -------------------------------------------


def _add_campaign_asns(topology: ASTopology) -> None:
    """Extra ASes the scripted cases need: a second provider for AS28598
    (so it survives the 10429 freeze), plus an *invisible* IXP route
    server below Telstra serving three multihomed stubs — the holder of
    the +170-minute resurrections.  The route server is transparent
    (does not prepend its ASN), so the late zombies carry the paper's
    exact subpath ``4637 1299 25091 8298 210312`` while Telstra itself
    converges correctly — the "invisible AS" ambiguity §5.2 warns about.
    """
    topology.add_provider_customer(3257, 28598)
    topology.add_as(TELSTRA_ROUTE_SERVER, tier=3, route_server=True)
    topology.add_provider_customer(4637, TELSTRA_ROUTE_SERVER)
    for asn in _telstra_stubs():
        topology.add_as(asn, tier=3)
        topology.add_provider_customer(TELSTRA_ROUTE_SERVER, asn)
        topology.add_provider_customer(33891, asn)  # clean primary path


#: The transparent IXP route server of the Telstra resurrection script.
TELSTRA_ROUTE_SERVER = 64700


def _telstra_stubs() -> tuple[int, ...]:
    return (65101, 65102, 65103)


def _feed_address(asn: int) -> str:
    """Feed address of a named peer; a 32-bit ASN spills into a second
    group (a single group holds four hex digits)."""
    groups = f"{asn:x}" if asn <= 0xffff else f"{asn >> 16:x}:{asn & 0xffff:x}"
    return f"2001:db8:{groups}::feed"


def _build_peer_registry(topology: ASTopology, config: CampaignConfig,
                         rng: random.Random) -> PeerRegistry:
    registry = PeerRegistry()
    for peer in NOISY_PEER_ROUTERS:
        registry.add(peer)
    registry.add(PEER_207301)
    named = [(9304, "rrc10"), (17639, "rrc10"), (142271, "rrc23"),
             (61573, "rrc15")]
    for asn, collector in named:
        registry.add(RISPeer(collector, _feed_address(asn), asn))
    for asn in _telstra_stubs():
        registry.add(RISPeer("rrc03", _feed_address(asn), asn))

    reserved = {210312, 8298, 25091, 33891, 9304, 4637, 211509, 211380,
                207301, 10429, 28598, 12956, TELSTRA_ROUTE_SERVER}
    candidates = [asn for asn in topology.asns()
                  if asn >= 50000 and asn not in reserved
                  and asn not in _telstra_stubs()]
    chosen = rng.sample(candidates, k=min(config.n_peers, len(candidates)))
    for index, asn in enumerate(sorted(chosen)):
        collector = f"rrc{(index % 12):02d}"
        registry.add(RISPeer(collector, f"2001:db8:{asn & 0xffff:x}:{index:x}::1",
                             asn))
    return registry


def _pick_rov_asns(topology: ASTopology, rng: random.Random) -> list[int]:
    """A few transit ASes enforce ROV — none of them on scripted zombie
    paths, so the scripted timelines are unaffected (as in the paper:
    zombie holders demonstrably do not validate)."""
    scripted = {210312, 8298, 25091, 33891, 9304, 17639, 142271, 6939,
                43100, 1299, 4637, 12956, 10429, 28598, 61573, 211509,
                211380, 207301, 3356, 34549, 3257}
    candidates = [asn for asn in topology.asns()
                  if 50000 <= asn < 60000 and asn not in scripted]
    return sorted(rng.sample(candidates, k=min(4, len(candidates))))


# -- fault scripting -------------------------------------------------------


def _slot_interval(intervals: list[BeaconInterval], announce_time: int
                   ) -> Optional[BeaconInterval]:
    for interval in intervals:
        if interval.announce_time == announce_time and not interval.discarded:
            return interval
    return None


def _build_fault_plan(topology: ASTopology, config: CampaignConfig,
                      intervals: list[BeaconInterval], peers: PeerRegistry,
                      rng: random.Random
                      ) -> tuple[FaultPlan, dict[str, Prefix]]:
    plan = FaultPlan()
    scripted: dict[str, Prefix] = {}

    _script_background(plan, config, intervals, peers, topology, rng)
    _script_noisy_tap_resets(plan, config)
    if config.scripted_cases:
        _script_impactful(plan, intervals, scripted, config)
        _script_long_lived(plan, intervals, scripted, config)
        _script_resurrection_1851(plan, intervals, scripted, config)
        _script_35day_cluster(plan, intervals, scripted, config)
        _script_telstra_uptick(plan, intervals, scripted, config, rng)
    return plan, scripted


#: slots reserved for the scripted §5 cases — background faults skip
#: them so the paper's narratives stay clean.
_SCRIPTED_SLOTS: frozenset[int] = frozenset({
    ts(2024, 6, 18, 22, 30), ts(2024, 6, 18, 16, 0), ts(2024, 6, 21, 18, 45),
    ts(2024, 6, 16, 12, 0), ts(2024, 6, 16, 18, 15), ts(2024, 6, 17, 9, 30),
    ts(2024, 6, 17, 21, 45), ts(2024, 6, 17, 23, 30),
})


def _script_background(plan: FaultPlan, config: CampaignConfig,
                       intervals: list[BeaconInterval], peers: PeerRegistry,
                       topology: ASTopology, rng: random.Random) -> None:
    """Random transient and persistent zombies spread over the campaign.

    Fault windows are narrow: they only need to swallow the slot's one
    withdrawal; the zombie then persists because no further withdrawal
    is ever sent, until the cure reset (or, for approach-A prefixes,
    until the next day's recycle wipes it — the paper's §4 argument for
    the 15-day recycle period).
    """
    peer_asns = sorted({peer.asn for peer in peers
                        if peer.asn >= 50000 and topology.providers(peer.asn)})
    if not peer_asns:
        return
    for interval in intervals:
        if interval.discarded or interval.announce_time in _SCRIPTED_SLOTS:
            continue
        roll = rng.random()
        window = (interval.withdraw_time - 60, interval.withdraw_time + HOUR)
        if roll < config.p_transient:
            asn = rng.choice(peer_asns)
            provider = rng.choice(topology.providers(asn))
            delay = rng.uniform(95, 185) * MINUTE
            plan.add_link_fault(WithdrawalDelay(
                src=provider, dst=asn, start=window[0], end=window[1],
                prefixes=frozenset({interval.prefix}), delay=delay))
        elif roll < config.p_transient + config.p_persistent:
            asn = rng.choice(peer_asns)
            provider = rng.choice(topology.providers(asn))
            plan.add_link_fault(WithdrawalSuppression(
                src=provider, dst=asn, start=window[0], end=window[1],
                prefixes=frozenset({interval.prefix})))
            # Cure after a heavy-tailed number of days (Fig. 3 short tail).
            cure = interval.withdraw_time + rng.uniform(0.3, 10.0) * DAY
            plan.add_session_reset(SessionResetEvent(
                time=cure, a=provider, b=asn, downtime=5.0))


def _script_noisy_tap_resets(plan: FaultPlan, config: CampaignConfig) -> None:
    """Noisy collector sessions flap every few weeks after the campaign,
    flushing the stale collector views — so noisy-peer zombies last weeks
    to months (Fig. 3's all-peers tail) rather than forever."""
    # Staggered per-router maintenance, some during the campaign, so the
    # noisy-zombie lifetimes spread from days to months instead of all
    # ending at one instant.
    base_days = {NOISY_PEER_ROUTERS[0].address: (-6.0, 4.0, 21.0, 60.0, 150.0),
                 NOISY_PEER_ROUTERS[1].address: (-6.0, 4.0, 21.0, 60.0, 150.0),
                 NOISY_PEER_ROUTERS[2].address: (-10.0, 9.0, 35.0, 95.0, 200.0)}
    for peer in NOISY_PEER_ROUTERS:
        for index, days in enumerate(base_days[peer.address]):
            at = config.end + days * DAY + 3600.0 * index
            if at <= config.start or at >= config.dump_horizon:
                continue
            plan.add_session_reset(SessionResetEvent(
                time=at, a=peer.asn, b=0, downtime=30.0,
                tap_address=peer.address))


def _script_impactful(plan: FaultPlan, intervals: list[BeaconInterval],
                      scripted: dict[str, Prefix],
                      config: CampaignConfig) -> None:
    """2a0d:3dc1:2233::/48 stuck below AS33891 for 4 days (§5.2)."""
    announce = ts(2024, 6, 18, 22, 30)
    interval = _slot_interval(intervals, announce)
    if interval is None or str(interval.prefix) != "2a0d:3dc1:2233::/48":
        return
    scripted["impactful"] = interval.prefix
    plan.add_link_fault(LinkFreeze(
        src=25091, dst=33891, start=interval.withdraw_time - 60,
        end=interval.withdraw_time + 10 * DAY,
        prefixes=frozenset({interval.prefix})))
    plan.add_session_reset(SessionResetEvent(
        time=interval.withdraw_time + 4 * DAY, a=25091, b=33891))


def _script_long_lived(plan: FaultPlan, intervals: list[BeaconInterval],
                       scripted: dict[str, Prefix],
                       config: CampaignConfig) -> None:
    """2a0d:3dc1:163::/48 stuck below AS9304 for ~4.5 months (§5.2)."""
    announce = ts(2024, 6, 18, 16, 0)
    interval = _slot_interval(intervals, announce)
    if interval is None or str(interval.prefix) != "2a0d:3dc1:163::/48":
        return
    scripted["long_lived"] = interval.prefix
    wd = interval.withdraw_time
    plan.add_link_fault(LinkFreeze(
        src=6939, dst=9304, start=wd - 60, end=ts(2025, 1, 1),
        prefixes=frozenset({interval.prefix})))
    # AS142271 joins late (visible 06-23) and leaves early (10-25).
    plan.add_link_fault(LinkFreeze(
        src=9304, dst=142271, start=config.start - HOUR,
        end=ts(2024, 6, 23, 11, 0), prefixes=frozenset({interval.prefix})))
    plan.add_session_reset(SessionResetEvent(
        time=ts(2024, 6, 23, 12, 0), a=9304, b=142271))
    plan.add_link_fault(LinkFreeze(
        src=9304, dst=142271, start=ts(2024, 10, 25), end=ts(2025, 6, 1),
        prefixes=frozenset({interval.prefix})))
    plan.add_session_reset(SessionResetEvent(
        time=ts(2024, 10, 25), a=9304, b=142271))
    # Final cure at HGC on 2024-11-03.
    plan.add_session_reset(SessionResetEvent(
        time=ts(2024, 11, 3), a=6939, b=9304))


def _script_resurrection_1851(plan: FaultPlan, intervals: list[BeaconInterval],
                              scripted: dict[str, Prefix],
                              config: CampaignConfig) -> None:
    """2a0d:3dc1:1851::/48: the Fig. 4 double resurrection (~8.5 months)."""
    announce = ts(2024, 6, 21, 18, 45)
    interval = _slot_interval(intervals, announce)
    if interval is None or str(interval.prefix) != "2a0d:3dc1:1851::/48":
        return
    scripted["resurrection"] = interval.prefix
    wd = interval.withdraw_time
    # Root holder: AS10429 never hears the withdrawal from 12956.
    plan.add_link_fault(LinkFreeze(
        src=12956, dst=10429, start=wd - 60, end=ts(2025, 6, 1),
        prefixes=frozenset({interval.prefix})))
    # AS28598 must not hold the 10429 route during the slot, so every
    # peer fully withdraws first (paper: gone on 06-21, back on 06-29).
    plan.add_link_fault(LinkFreeze(
        src=10429, dst=28598, start=interval.announce_time - 60,
        end=ts(2024, 6, 28, 23, 0), prefixes=frozenset({interval.prefix})))
    plan.add_session_reset(SessionResetEvent(
        time=ts(2024, 6, 29), a=10429, b=28598))
    # Withdrawn by the RIS peer on 10-04 (session to it frozen+reset)...
    plan.add_link_fault(LinkFreeze(
        src=28598, dst=61573, start=ts(2024, 10, 4),
        end=ts(2024, 11, 28, 23, 0), prefixes=frozenset({interval.prefix})))
    plan.add_session_reset(SessionResetEvent(
        time=ts(2024, 10, 4), a=28598, b=61573))
    # ...resurrected again on 11-29...
    plan.add_session_reset(SessionResetEvent(
        time=ts(2024, 11, 29), a=28598, b=61573))
    # ...and finally cured on 2025-03-11 at the root.
    plan.add_session_reset(SessionResetEvent(
        time=ts(2025, 3, 11), a=12956, b=10429))


def _script_35day_cluster(plan: FaultPlan, intervals: list[BeaconInterval],
                          scripted: dict[str, Prefix],
                          config: CampaignConfig) -> None:
    """Prefixes stuck at AS211509, resurrected to AS207301's single peer
    router a month after the campaign: the 35-37-day Fig. 3 step."""
    slots = [ts(2024, 6, 16, 12, 0), ts(2024, 6, 16, 18, 15),
             ts(2024, 6, 17, 9, 30), ts(2024, 6, 17, 21, 45),
             ts(2024, 6, 17, 23, 30)]
    cluster = [iv for slot in slots
               if (iv := _slot_interval(intervals, slot)) is not None]
    if not cluster:
        return
    scripted["cluster"] = cluster[0].prefix
    for interval in cluster:
        plan.add_link_fault(LinkFreeze(
            src=1299, dst=211509, start=interval.withdraw_time - 60,
            end=ts(2025, 6, 1), prefixes=frozenset({interval.prefix})))
    # AS207301 never hears about the cluster prefixes until the
    # resurrection reset on 07-22 (it feeds everything else normally).
    plan.add_link_fault(LinkFreeze(
        src=211509, dst=207301, start=config.start - HOUR,
        end=ts(2024, 7, 21, 23, 0),
        prefixes=frozenset(iv.prefix for iv in cluster)))
    plan.add_session_reset(SessionResetEvent(
        time=ts(2024, 7, 22), a=211509, b=207301))
    # Cure everything at 1299 on 07-23 12:00 → durations 35.5-37 days.
    plan.add_session_reset(SessionResetEvent(
        time=ts(2024, 7, 23, 12, 0), a=1299, b=211509))


def _script_telstra_uptick(plan: FaultPlan, intervals: list[BeaconInterval],
                           scripted: dict[str, Prefix],
                           config: CampaignConfig,
                           rng: random.Random) -> None:
    """A few slots resurrect at withdrawal+170 minutes via AS4637 session
    resets (the Fig. 2 uptick, §5.1)."""
    candidates = [iv for iv in intervals
                  if not iv.discarded
                  and iv.announce_time >= config.start + DAY // 2]
    if not candidates:
        return
    count = max(2, min(5, len(candidates) // 80))
    chosen = rng.sample(candidates, k=min(count, len(candidates)))
    scripted["telstra"] = chosen[0].prefix
    server = TELSTRA_ROUTE_SERVER
    for interval in chosen:
        wd = interval.withdraw_time
        # The route server's session to Telstra wedges just before the
        # withdrawal: it keeps 4637's converged route.
        plan.add_link_fault(LinkFreeze(
            src=4637, dst=server, start=wd - 60, end=wd + 12 * HOUR,
            prefixes=frozenset({interval.prefix})))
        for stub in _telstra_stubs():
            # The stubs hold no route-server alternative during the slot
            # (their sessions to it are down), so they withdraw cleanly...
            plan.add_link_fault(LinkFreeze(
                src=server, dst=stub, start=interval.announce_time - 60,
                end=wd + 169 * MINUTE,
                prefixes=frozenset({interval.prefix})))
            # ...until the session re-establishes at +170 minutes and the
            # stale Telstra route is re-announced (§5.1).
            plan.add_session_reset(SessionResetEvent(
                time=wd + 170 * MINUTE, a=server, b=stub, downtime=2.0))
        # Cure a day later so the uptick stays a Fig. 2 phenomenon.
        plan.add_session_reset(SessionResetEvent(
            time=wd + DAY, a=4637, b=server))
