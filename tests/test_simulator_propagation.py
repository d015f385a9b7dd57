"""End-to-end propagation tests on small hand-built worlds.

These validate the mechanisms the paper's phenomena rest on:
announcement flooding, valley-free export, withdrawal propagation,
path hunting, zombie creation via withdrawal suppression, resurrection
via session reset, and noisy collector peers.
"""

import pytest

from repro.bgp import Announcement, UpdateRecord, Withdrawal
from repro.net import Prefix
from repro.ris import RISPeer
from repro.simulator import (
    BGPWorld,
    FaultPlan,
    LinkFreeze,
    SessionResetEvent,
    WithdrawalDelay,
    WithdrawalSuppression,
)
from repro.topology import ASTopology

PREFIX = Prefix("2a0d:3dc1:1145::/48")


def chain_topology():
    """origin 10 <- 20 <- 30 <- 40 (chain of providers), plus an
    alternative longer path 10 <- 21 <- 22 <- 30."""
    topo = ASTopology()
    for asn in (10, 20, 21, 22, 30, 40):
        topo.add_as(asn)
    topo.add_provider_customer(20, 10)
    topo.add_provider_customer(30, 20)
    topo.add_provider_customer(40, 30)
    topo.add_provider_customer(21, 10)
    topo.add_provider_customer(22, 21)
    topo.add_provider_customer(30, 22)
    return topo


def build_world(fault_plan=None, seed=1):
    return BGPWorld(chain_topology(), seed=seed, fault_plan=fault_plan)


def announce_and_withdraw(world, announce_at=0.0, withdraw_at=900.0):
    origin = world.routers[10]
    attrs = world.beacon_attributes(10, int(announce_at))
    world.engine.schedule(announce_at, lambda: origin.originate(PREFIX, attrs))
    world.engine.schedule(withdraw_at, lambda: origin.withdraw_origin(PREFIX))


class TestPropagation:
    def test_announcement_reaches_everyone(self):
        world = build_world()
        announce_and_withdraw(world, withdraw_at=10**9)
        world.run_until(600)
        for asn in (20, 21, 22, 30, 40):
            assert PREFIX in world.routers[asn].best, f"AS{asn} missing route"

    def test_shortest_path_preferred(self):
        world = build_world()
        announce_and_withdraw(world, withdraw_at=10**9)
        world.run_until(600)
        path = world.routers[30].export_attributes(PREFIX).as_path
        assert path.asns == (30, 20, 10)  # not the 30-22-21-10 detour

    def test_withdrawal_clears_everyone(self):
        world = build_world()
        announce_and_withdraw(world)
        world.run_until(3600)
        for asn in (20, 21, 22, 30, 40):
            assert PREFIX not in world.routers[asn].best

    def test_origin_validation(self):
        world = build_world()
        with pytest.raises(ValueError):
            world.routers[20].originate(
                PREFIX, world.beacon_attributes(10, 0))

    def test_no_route_leaks_between_providers(self):
        """AS30 learns from customers 20 and 22; providers of 30 (AS40)
        may get it, but 20 must never see the route via 22."""
        world = build_world()
        announce_and_withdraw(world, withdraw_at=10**9)
        world.run_until(600)
        rib_in_20 = world.routers[20].adj_rib_in.get(PREFIX, {})
        assert 30 not in rib_in_20  # 30 must not export a customer route
        # downward to its customer 20?  It may: customer routes go to
        # everyone.  But 20 must not pick a looped path.
        best = world.routers[20].export_attributes(PREFIX)
        assert best.as_path.asns == (20, 10)

    def test_path_hunting_promotes_alternative(self):
        """When 20→30 withdrawals are suppressed... rather: when the
        short route dies, AS30 hunts to the longer 22-21-10 path before
        fully withdrawing."""
        explored = []
        world = build_world()
        tap_router = world.routers[40]

        def observer(time, prefix, attrs):
            explored.append(None if attrs is None else attrs.as_path.asns)

        tap_router.add_observer(observer)
        announce_and_withdraw(world)
        world.run_until(3600)
        # AS40's view: first the short path, possibly an exploration of
        # the long path, finally None (withdrawn).
        assert explored[0] == (40, 30, 20, 10)
        assert explored[-1] is None
        # The simulation converged with no leftover state.
        assert PREFIX not in world.routers[40].best


class TestZombieCreation:
    def test_withdrawal_suppression_creates_zombie(self):
        plan = FaultPlan([WithdrawalSuppression(src=30, dst=40, start=0,
                                                end=10**9)])
        world = build_world(fault_plan=plan)
        announce_and_withdraw(world)
        world.run_until(7200)
        assert PREFIX not in world.routers[30].best
        assert PREFIX in world.routers[40].best  # the zombie

    def test_zombie_keeps_original_aggregator(self):
        plan = FaultPlan([WithdrawalSuppression(src=30, dst=40, start=0,
                                                end=10**9)])
        world = build_world(fault_plan=plan)
        announce_and_withdraw(world, announce_at=0.0)
        world.run_until(7200)
        stuck = world.routers[40].export_attributes(PREFIX)
        assert stuck.aggregator is not None

    def test_prefix_scoped_suppression(self):
        other = Prefix("2a0d:3dc1:1200::/48")
        plan = FaultPlan([WithdrawalSuppression(
            src=30, dst=40, start=0, end=10**9,
            prefixes=frozenset({PREFIX}))])
        world = build_world(fault_plan=plan)
        origin = world.routers[10]
        for prefix in (PREFIX, other):
            attrs = world.beacon_attributes(10, 0)
            world.engine.schedule(0.0, lambda p=prefix, a=attrs: origin.originate(p, a))
            world.engine.schedule(900.0, lambda p=prefix: origin.withdraw_origin(p))
        world.run_until(7200)
        assert PREFIX in world.routers[40].best
        assert other not in world.routers[40].best

    def test_link_freeze_blocks_everything(self):
        plan = FaultPlan([LinkFreeze(src=30, dst=40, start=0, end=10**9)])
        world = build_world(fault_plan=plan)
        announce_and_withdraw(world)
        world.run_until(7200)
        assert PREFIX not in world.routers[40].best  # never even learned it

    def test_freeze_after_announce_creates_stale_view(self):
        plan = FaultPlan([LinkFreeze(src=30, dst=40, start=600, end=10**9)])
        world = build_world(fault_plan=plan)
        announce_and_withdraw(world, announce_at=0.0, withdraw_at=900.0)
        world.run_until(7200)
        assert PREFIX in world.routers[40].best

    def test_withdrawal_delay_creates_transient_zombie(self):
        delay = 3600.0
        plan = FaultPlan([WithdrawalDelay(src=30, dst=40, start=0, end=10**9,
                                          delay=delay)])
        world = build_world(fault_plan=plan)
        announce_and_withdraw(world, withdraw_at=900.0)
        world.run_until(2000)
        assert PREFIX in world.routers[40].best  # still stuck at +18min
        world.run_until(900 + delay + 600)
        assert PREFIX not in world.routers[40].best  # cured


class TestResurrection:
    def test_session_reset_reannounces_stale_route(self):
        """AS40 holds a zombie; its session to AS30 resets — nothing new
        (30 has no route).  But a reset between the zombie holder and a
        *downstream* neighbour re-announces the stale route."""
        topo = chain_topology()
        topo.add_as(50)
        topo.add_provider_customer(40, 50)  # 50 is a customer of 40
        plan = FaultPlan(
            [WithdrawalSuppression(src=30, dst=40, start=0, end=10**9)],
            [SessionResetEvent(time=5000.0, a=40, b=50, downtime=5.0)],
        )
        world = BGPWorld(topo, seed=3, fault_plan=plan)
        seen = []
        world.routers[50].add_observer(
            lambda t, p, a: seen.append((t, None if a is None else a.as_path.asns)))
        announce_and_withdraw(world)
        world.run_until(10000)
        # 50 learned the route, lost it on session reset, then got the
        # stale (zombie) route re-announced: a resurrection.
        states = [entry[1] for entry in seen]
        assert (50, 40, 30, 20, 10) in states  # converged pre-withdrawal path
        assert None in states
        assert states[-1] == (50, 40, 30, 20, 10)
        resurrect_time = seen[-1][0]
        assert resurrect_time >= 5000.0


class TestCollectorTaps:
    def _world_with_tap(self, drop_prob=0.0, plan=None):
        world = build_world(fault_plan=plan)
        peer = RISPeer("rrc00", "2001:db8:28::1", 40)
        world.attach_tap(peer, drop_withdrawal_prob=drop_prob)
        return world

    def test_tap_records_announce_and_withdraw(self):
        world = self._world_with_tap()
        announce_and_withdraw(world)
        world.run_until(7200)
        kinds = [type(r.message).__name__ for r in world.sorted_records()
                 if isinstance(r, UpdateRecord)]
        assert kinds[0] == "Announcement"
        assert kinds[-1] == "Withdrawal"

    def test_tap_as_path_starts_with_peer_asn(self):
        world = self._world_with_tap()
        announce_and_withdraw(world)
        world.run_until(7200)
        announcements = [r for r in world.records
                         if isinstance(r, UpdateRecord) and r.is_announcement]
        assert announcements[0].attributes.as_path.asns[0] == 40

    def test_noisy_tap_drops_all_withdrawals(self):
        world = self._world_with_tap(drop_prob=1.0)
        announce_and_withdraw(world)
        world.run_until(7200)
        updates = [r for r in world.records if isinstance(r, UpdateRecord)]
        assert all(r.is_announcement for r in updates)
        # The AS itself converged — the zombie exists only in RIS's view.
        assert PREFIX not in world.routers[40].best

    def test_tap_session_reset_emits_state_records(self):
        plan = FaultPlan(
            [],
            [SessionResetEvent(time=300.0, a=40, b=0, downtime=10.0,
                               tap_address="2001:db8:28::1")],
        )
        world = self._world_with_tap(plan=plan)
        announce_and_withdraw(world, withdraw_at=10**9)
        world.run_until(3600)
        from repro.bgp import StateRecord

        states = [r for r in world.records if isinstance(r, StateRecord)]
        assert len(states) == 2
        assert states[0].is_session_down
        assert states[1].is_session_up
        # After re-establishment the peer re-announced its table.
        announcements = [r for r in world.records
                         if isinstance(r, UpdateRecord) and r.is_announcement]
        assert len(announcements) >= 2

    def test_attach_tap_unknown_as_raises(self):
        world = build_world()
        with pytest.raises(KeyError):
            world.attach_tap(RISPeer("rrc00", "::1", 999))
