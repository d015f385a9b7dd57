"""Advanced simulator behaviours: FIFO links, transparent route servers,
per-family tap drops, ROV revalidation, and export-policy corner cases."""

import pytest

from repro.bgp import Announcement, Relationship, UpdateRecord, Withdrawal
from repro.net import Prefix
from repro.ris import RISPeer
from repro.simulator import (
    BGPWorld,
    FaultPlan,
    ROA,
    ROARegistry,
    SessionResetEvent,
    WithdrawalDelay,
)
from repro.topology import ASTopology

PREFIX6 = Prefix("2a0d:3dc1:1145::/48")
PREFIX4 = Prefix("84.205.64.0/24")


def line_topology(*asns):
    """provider chain: asns[0] is the top provider."""
    topo = ASTopology()
    for asn in asns:
        topo.add_as(asn)
    for provider, customer in zip(asns, asns[1:]):
        topo.add_provider_customer(provider, customer)
    return topo


class TestLinkFIFO:
    def test_messages_never_reorder_on_a_link(self):
        """Even with jitter, a withdrawal sent after an announcement must
        arrive after it (BGP runs over TCP)."""
        topo = line_topology(20, 10)
        world = BGPWorld(topo, seed=11, jitter=5.0,
                         base_delay_range=(0.01, 0.02))
        seen = []
        world.routers[20].add_observer(
            lambda t, p, a: seen.append("A" if a is not None else "W"))
        origin = world.routers[10]
        attrs = world.beacon_attributes(10, 0)
        # Announce and withdraw nearly simultaneously, many times.
        for i in range(50):
            world.engine.schedule(float(i), lambda a=attrs: origin.originate(PREFIX6, a))
            world.engine.schedule(i + 0.001, lambda: origin.withdraw_origin(PREFIX6))
        world.run_until_idle()
        # Final state must be withdrawn: the last message wins only if
        # ordering is preserved.
        assert seen[-1] == "W"
        assert PREFIX6 not in world.routers[20].best


class TestTransparentAS:
    def test_route_server_does_not_prepend(self):
        topo = line_topology(30, 20, 10)
        world = BGPWorld(topo, seed=1, transparent_asns=(20,))
        origin = world.routers[10]
        origin_attrs = world.beacon_attributes(10, 0)
        world.engine.schedule(1.0, lambda: origin.originate(PREFIX6, origin_attrs))
        world.run_until_idle()
        path = world.routers[30].best.get(PREFIX6)[1].as_path
        assert path.asns == (10,)  # AS20 is invisible
        exported = world.routers[30].export_attributes(PREFIX6)
        assert exported.as_path.asns == (30, 10)

    def test_opaque_by_default(self):
        topo = line_topology(30, 20, 10)
        world = BGPWorld(topo, seed=1)
        origin = world.routers[10]
        origin_attrs = world.beacon_attributes(10, 0)
        world.engine.schedule(1.0, lambda: origin.originate(PREFIX6, origin_attrs))
        world.run_until_idle()
        path = world.routers[30].best.get(PREFIX6)[1].as_path
        assert path.asns == (20, 10)


class TestPerFamilyTapDrops:
    def _run(self, drop):
        topo = line_topology(20, 10)
        world = BGPWorld(topo, seed=5)
        world.attach_tap(RISPeer("rrc21", "2001:db8::99", 20),
                         drop_withdrawal_prob=drop)
        origin = world.routers[10]
        for prefix, nh in ((PREFIX6, "2001:db8::1"), (PREFIX4, "192.0.2.1")):
            attrs = world.beacon_attributes(10, 0)
            world.engine.schedule(1.0, lambda p=prefix, a=attrs: origin.originate(p, a))
            world.engine.schedule(600.0, lambda p=prefix: origin.withdraw_origin(p))
        world.run_until_idle()
        withdrawals = [r.prefix for r in world.records
                       if isinstance(r, UpdateRecord) and r.is_withdrawal]
        return withdrawals

    def test_v6_only_drops(self):
        withdrawals = self._run({6: 1.0})
        assert PREFIX4 in withdrawals
        assert PREFIX6 not in withdrawals

    def test_v4_only_drops(self):
        withdrawals = self._run({4: 1.0})
        assert PREFIX6 in withdrawals
        assert PREFIX4 not in withdrawals

    def test_scalar_applies_to_both(self):
        withdrawals = self._run(1.0)
        assert withdrawals == []


class TestROVRevalidation:
    def test_rov_as_evicts_route_after_roa_revocation(self):
        topo = line_topology(30, 20, 10)
        # Mirror the paper's RPKI setup: a permanent /32 ROA plus the
        # maxLength-48 beacon ROA that gets revoked — after which the
        # /48 routes are INVALID (not merely NOT_FOUND).
        parent = ROA(Prefix("2a0d:3dc1::/32"), 10, max_length=32)
        roa = ROA(Prefix("2a0d:3dc1::/32"), 10, max_length=48)
        registry = ROARegistry([parent, roa])
        revoked = registry.revoke(roa, at_time=5000)
        assert revoked.valid_until == 5000
        world = BGPWorld(topo, seed=2, roa_registry=registry, rov_asns=(30,))
        origin = world.routers[10]
        attrs = world.beacon_attributes(10, 0)
        world.engine.schedule(1.0, lambda: origin.originate(PREFIX6, attrs))
        world.run_until(4000)
        assert PREFIX6 in world.routers[30].best
        # After revocation (+ propagation delay <= 1800s) AS30 drops it;
        # the non-validating AS20 keeps it.
        world.run_until(5000 + 3600)
        assert PREFIX6 not in world.routers[30].best
        assert PREFIX6 in world.routers[20].best

    def test_rov_as_rejects_invalid_at_receive_time(self):
        topo = line_topology(30, 20, 10)
        registry = ROARegistry([ROA(Prefix("2a0d:3dc1::/32"), 99999, 48)])
        world = BGPWorld(topo, seed=2, roa_registry=registry, rov_asns=(20,))
        origin = world.routers[10]
        attrs = world.beacon_attributes(10, 0)
        world.engine.schedule(1.0, lambda: origin.originate(PREFIX6, attrs))
        world.run_until_idle()
        assert PREFIX6 not in world.routers[20].best
        assert PREFIX6 not in world.routers[30].best  # never exported


class TestExportPolicy:
    def test_peer_learned_not_exported_to_provider(self):
        topo = ASTopology()
        for asn in (1, 2, 3):
            topo.add_as(asn)
        topo.add_peering(1, 2)
        topo.add_provider_customer(3, 1)  # 3 is 1's provider
        world = BGPWorld(topo, seed=3)
        origin = world.routers[2]
        attrs = world.beacon_attributes(2, 0)
        world.engine.schedule(1.0, lambda: origin.originate(PREFIX6, attrs))
        world.run_until_idle()
        assert PREFIX6 in world.routers[1].best
        assert PREFIX6 not in world.routers[3].best

    def test_withdrawal_delay_applies_only_in_window(self):
        topo = line_topology(20, 10)
        plan = FaultPlan([WithdrawalDelay(src=10, dst=20, start=0, end=100,
                                          delay=10_000)])
        world = BGPWorld(topo, seed=4, fault_plan=plan, start_time=0)
        origin = world.routers[10]
        attrs = world.beacon_attributes(10, 0)
        # Outside the fault window: normal withdrawal.
        world.engine.schedule(200.0, lambda: origin.originate(PREFIX6, attrs))
        world.engine.schedule(300.0, lambda: origin.withdraw_origin(PREFIX6))
        world.run_until(1000)
        assert PREFIX6 not in world.routers[20].best


class TestSessionResetBookkeeping:
    def test_tap_reset_via_fault_plan(self):
        topo = line_topology(20, 10)
        plan = FaultPlan(session_resets=[
            SessionResetEvent(time=500.0, a=20, b=0, downtime=10.0,
                              tap_address="2001:db8::99")])
        world = BGPWorld(topo, seed=6, fault_plan=plan)
        world.attach_tap(RISPeer("rrc00", "2001:db8::99", 20))
        origin = world.routers[10]
        attrs = world.beacon_attributes(10, 0)
        world.engine.schedule(1.0, lambda: origin.originate(PREFIX6, attrs))
        world.run_until(1000)
        from repro.bgp import StateRecord

        states = [r for r in world.records if isinstance(r, StateRecord)]
        assert [s.is_session_down for s in states] == [True, False]
        # Table re-announced after the reset.
        announcements = [r for r in world.records
                         if isinstance(r, UpdateRecord) and r.is_announcement]
        assert len(announcements) == 2

    def test_unknown_tap_reset_raises(self):
        topo = line_topology(20, 10)
        plan = FaultPlan(session_resets=[
            SessionResetEvent(time=5.0, a=20, b=0, tap_address="::dead")])
        world = BGPWorld(topo, seed=6, fault_plan=plan)
        with pytest.raises(KeyError):
            world.run_until(10)
