"""The simulated Internet: topology + routers + collectors + faults.

:class:`BGPWorld` wires everything together and exposes the two
operations experiments need:

* drive a beacon schedule (:meth:`run_beacon_schedule` /
  :meth:`schedule_beacon_events`), and
* collect the RIS artefacts (update/state records via :attr:`records`,
  RIB dumps via :mod:`repro.simulator.ribgen`).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from repro.beacons.aggregator import AggregatorClock
from repro.beacons.schedule import BeaconEvent, BeaconSchedule
from repro.bgp.attributes import Aggregator, ASPath, PathAttributes
from repro.bgp.messages import Message, Record
from repro.net.prefix import Prefix
from repro.ris.collectors import PeerRegistry, RISPeer
from repro.simulator.collector import CollectorTap
from repro.simulator.engine import Engine
from repro.simulator.faults import FaultPlan, SessionResetEvent
from repro.simulator.router import ASRouter
from repro.simulator.rpki import ROARegistry
from repro.topology.graph import ASTopology

__all__ = ["BGPWorld"]


class BGPWorld:
    """A runnable BGP universe."""

    def __init__(self, topology: ASTopology,
                 seed: int = 0,
                 fault_plan: Optional[FaultPlan] = None,
                 roa_registry: Optional[ROARegistry] = None,
                 rov_asns: Iterable[int] = (),
                 transparent_asns: Iterable[int] = (),
                 start_time: float = 0.0,
                 base_delay_range: tuple[float, float] = (0.05, 0.8),
                 jitter: float = 0.1):
        self.topology = topology
        self.engine = Engine(start_time)
        self.fault_plan = fault_plan or FaultPlan()
        self.roa_registry = roa_registry
        self._rng = random.Random(seed)
        self._jitter = jitter
        self.records: list[Record] = []
        self.taps: dict[tuple[str, str], CollectorTap] = {}
        self._seed = seed

        self.routers: dict[int, ASRouter] = {
            asn: ASRouter(asn, self) for asn in topology.asns()}
        for asn, router in self.routers.items():
            for neighbor in topology.neighbors(asn):
                router.add_neighbor(neighbor, topology.relationship(asn, neighbor))
        for asn in rov_asns:
            self.routers[asn].rov_enabled = True
        for asn in transparent_asns:
            self.routers[asn].transparent = True

        # Deterministic per-directed-link propagation delay.
        self._link_delay: dict[tuple[int, int], float] = {}
        lo, hi = base_delay_range
        for a, b in sorted(topology.graph.edges):
            self._link_delay[(a, b)] = self._rng.uniform(lo, hi)
            self._link_delay[(b, a)] = self._rng.uniform(lo, hi)
        #: last scheduled delivery per directed link — BGP sessions run
        #: over TCP, so messages must never overtake each other.
        self._link_clock: dict[tuple[int, int], float] = {}

        self._schedule_session_resets()
        self._schedule_revalidations()

    # -- messaging ---------------------------------------------------------

    def send(self, src: int, dst: int, message: Message) -> None:
        """Send a BGP message, subject to link faults and delays."""
        now = self.engine.now
        disposition = self.fault_plan.disposition(src, dst, message, now)
        if disposition.drop:
            return
        delay = (self._link_delay[(src, dst)]
                 + self._rng.uniform(0.0, self._jitter)
                 + disposition.extra_delay)
        # FIFO per directed link: a message never overtakes an earlier one.
        link = (src, dst)
        deliver_at = max(now + delay, self._link_clock.get(link, 0.0) + 1e-6)
        self._link_clock[link] = deliver_at
        router = self.routers[dst]
        self.engine.schedule(deliver_at, lambda: router.receive(src, message))

    def record(self, record: Record) -> None:
        self.records.append(record)

    # -- collectors ----------------------------------------------------------

    def attach_tap(self, peer: RISPeer, drop_withdrawal_prob: float = 0.0,
                   report_delay: float = 1.0) -> CollectorTap:
        """Attach one RIS peer-router feed."""
        if peer.asn not in self.routers:
            raise KeyError(f"peer AS{peer.asn} is not in the topology")
        tap = CollectorTap(peer, self, drop_withdrawal_prob=drop_withdrawal_prob,
                           report_delay=report_delay, seed=self._seed)
        self.taps[peer.key] = tap
        return tap

    def attach_taps(self, registry: PeerRegistry,
                    noisy: Optional[dict[tuple[str, str], float]] = None) -> None:
        """Attach every peer in ``registry``; ``noisy`` maps peer keys to
        withdrawal-drop probabilities."""
        noisy = noisy or {}
        for peer in registry:
            self.attach_tap(peer, drop_withdrawal_prob=noisy.get(peer.key, 0.0))

    # -- faults ----------------------------------------------------------------

    def _schedule_session_resets(self) -> None:
        for reset in self.fault_plan.session_resets:
            self.engine.schedule(reset.time, self._reset_closure(reset))

    def _reset_closure(self, reset: SessionResetEvent):
        def fire():
            self.apply_session_reset(reset)
        return fire

    def apply_session_reset(self, reset: SessionResetEvent) -> None:
        """Execute one reset: tap reset if ``tap_address`` set, else an
        AS↔AS session bounce."""
        now = self.engine.now
        if reset.is_tap_reset:
            tap = self.taps.get((self._tap_collector(reset), reset.tap_address))
            if tap is None:
                raise KeyError(f"no tap at address {reset.tap_address}")
            tap.session_down(now)
            self.engine.schedule(now + reset.downtime,
                                 lambda: tap.session_up(self.engine.now))
            return
        router_a = self.routers[reset.a]
        router_b = self.routers[reset.b]
        router_a.session_down(reset.b)
        router_b.session_down(reset.a)

        def re_establish():
            router_a.session_up(reset.b)
            router_b.session_up(reset.a)

        self.engine.schedule(now + reset.downtime, re_establish)

    def _tap_collector(self, reset: SessionResetEvent) -> str:
        for (collector, address) in self.taps:
            if address == reset.tap_address:
                return collector
        raise KeyError(f"no tap with address {reset.tap_address}")

    def _schedule_revalidations(self) -> None:
        if self.roa_registry is None:
            return
        rov_routers = [r for r in self.routers.values() if r.rov_enabled]
        if not rov_routers:
            return
        for change_time in self.roa_registry.change_times():
            if change_time <= self.engine.now:
                continue
            for router in rov_routers:
                # Spread revalidation over the RPKI propagation delay
                # (RPKI time-of-flight is minutes to ~1 hour).
                delay = self._rng.uniform(60.0, 1800.0)
                self.engine.schedule(change_time + delay, router.revalidate)

    # -- beacons -----------------------------------------------------------------

    def beacon_attributes(self, origin_asn: int, origin_time: int,
                          use_aggregator_clock: bool = True) -> PathAttributes:
        """Origination attributes for a beacon announcement."""
        aggregator = None
        if use_aggregator_clock:
            aggregator = Aggregator(origin_asn, AggregatorClock.encode(origin_time))
        router = self.routers[origin_asn]
        return PathAttributes(as_path=ASPath.of(origin_asn),
                              next_hop=router.next_hop,
                              aggregator=aggregator)

    def schedule_beacon_events(self, events: Iterable[BeaconEvent],
                               use_aggregator_clock: bool = True) -> int:
        """Schedule announce/withdraw events onto origin routers."""
        count = 0
        for event in events:
            router = self.routers[event.origin_asn]
            if event.is_announce:
                attrs = self.beacon_attributes(
                    event.origin_asn, event.origin_time or event.time,
                    use_aggregator_clock)
                self.engine.schedule(
                    event.time,
                    self._originate_closure(router, event.prefix, attrs))
            else:
                self.engine.schedule(
                    event.time,
                    self._withdraw_closure(router, event.prefix))
            count += 1
        return count

    @staticmethod
    def _originate_closure(router: ASRouter, prefix: Prefix,
                           attrs: PathAttributes):
        def fire():
            router.originate(prefix, attrs)
        return fire

    @staticmethod
    def _withdraw_closure(router: ASRouter, prefix: Prefix):
        def fire():
            router.withdraw_origin(prefix)
        return fire

    def run_beacon_schedule(self, schedule: BeaconSchedule, start: int, end: int,
                            settle: float = 3600.0,
                            use_aggregator_clock: bool = True) -> list[Record]:
        """Convenience: schedule, run until ``end + settle``, return the
        recorded RIS stream sorted in archive order."""
        self.schedule_beacon_events(schedule.events(start, end),
                                    use_aggregator_clock)
        self.run_until(end + settle)
        return self.sorted_records()

    # -- running --------------------------------------------------------------

    def run_until(self, time: float) -> int:
        return self.engine.run(until=time)

    def run_until_idle(self) -> int:
        return self.engine.run_until_idle()

    def sorted_records(self) -> list[Record]:
        from repro.bgp.messages import record_sort_key

        return sorted(self.records, key=record_sort_key)
