"""Resurrection edge cases (§5.1): the Aggregator clock rolling over a
month boundary, and resurrections visible only through a noisy-excluded
peer router."""

from helpers import ann, attrs, interval, wd

from repro.beacons import AggregatorClock
from repro.core import (
    LifespanTracker,
    ZombieDetector,
    find_late_announcements,
    find_resurrections,
)
from repro.core.detector import DetectorConfig
from repro.core.lifespan import LifespanSession
from repro.mrt.tabledump import RibDump
from repro.net import Prefix
from repro.utils.timeutil import DAY, HOUR, MINUTE, ts

P = "2a0d:3dc1:1851::/48"

#: The campaign's last interval of June: announced June 30, withdrawn
#: 23:30 — every post-withdrawal observation lands in July.
JUNE_ANNOUNCE = ts(2024, 6, 30, 21, 0)
JUNE_WITHDRAW = ts(2024, 6, 30, 23, 30)


class TestAggregatorMonthRollover:
    def test_decode_rolls_back_to_previous_month(self):
        """A clock encoded in June and observed in July must decode to
        the June origin, not to a (future) July instant."""
        address = AggregatorClock.encode(JUNE_ANNOUNCE)
        observed = ts(2024, 7, 2, 3, 0)
        assert AggregatorClock.decode(address, observed) == JUNE_ANNOUNCE

    def _records(self):
        """Withdraw in June; the stale route resurrects across the month
        boundary, still carrying June's origin clock."""
        reann = ts(2024, 7, 2, 3, 0)
        return reann, [
            ann(JUNE_ANNOUNCE + 2, P, 16347, 12654,
                origin_time=JUNE_ANNOUNCE, peer_asn=16347),
            wd(JUNE_WITHDRAW + 3, P, peer_asn=16347),
            ann(reann, P, 16347, 12654, origin_time=JUNE_ANNOUNCE,
                peer_asn=16347),
        ]

    def test_late_announcement_found_across_months(self):
        reann, records = self._records()
        june = interval(P, JUNE_ANNOUNCE, JUNE_WITHDRAW)
        (event,) = find_late_announcements(records, [june])
        assert event.reannounced_at == reann
        assert event.withdrawn_at == JUNE_WITHDRAW + 3
        assert event.offset_minutes > DAY / MINUTE

    def test_stale_route_not_double_counted_in_july(self):
        """In the July interval the resurrected route is PRESENT, but its
        decoded origin predates July's announcement — the dedup must
        classify it as carried state, which only works if the decode
        rolled the clock back into June."""
        _, records = self._records()
        july = interval(P, ts(2024, 7, 2, 2, 0), ts(2024, 7, 2, 6, 0))
        deduped = ZombieDetector(DetectorConfig(dedup=True)).detect(
            records, [july])
        naive = ZombieDetector(DetectorConfig(dedup=False)).detect(
            records, [july])
        assert deduped.outbreak_count == 0
        assert naive.outbreak_count == 1

    def test_dump_scale_late_first_seen_across_months(self):
        """Withdrawn end of June, first RIB sighting July 3: a late first
        sighting (> 2 days) counts as a resurrection even though the
        withdrawal and the sighting are in different months."""
        dumps = []
        for day, hold in [(1, False), (2, False), (3, True), (4, True)]:
            dump = RibDump(ts(2024, 7, day), "rrc00")
            dump.peer_index(16347, "2001:db8::2")
            if hold:
                dump.add_route(Prefix(P), 16347, "2001:db8::2",
                               attrs(16347, 12654), ts(2024, 7, day))
            dumps.append(dump)
        lifespans = LifespanTracker().track(
            dumps, {Prefix(P): JUNE_WITHDRAW})
        (event,) = find_resurrections(lifespans.values())
        assert event.resurrected_at == ts(2024, 7, 3)
        assert event.disappeared_after == JUNE_WITHDRAW
        assert event.resurrected_at - event.disappeared_after > 2 * DAY


NOISY = ("rrc25", "176.119.234.201")
CLEAN = ("rrc00", "2001:db8::2")


def dump_at(time, holders):
    """One rrc-per-holder dump set for ``time`` (registering both peers
    at their collectors so absence is meaningful)."""
    dumps = {"rrc00": RibDump(time, "rrc00"), "rrc25": RibDump(time, "rrc25")}
    dumps["rrc00"].peer_index(16347, CLEAN[1])
    dumps["rrc25"].peer_index(211509, NOISY[1])
    for collector, address, asn in holders:
        dumps[collector].add_route(Prefix(P), asn, address,
                                   attrs(asn, 12654), time)
    return [dumps["rrc00"], dumps["rrc25"]]


class TestNoisyExcludedPeerResurrection:
    WITHDRAW = ts(2024, 6, 21, 18, 45)

    def _dumps(self):
        """Segment 1 seen by the clean peer; after a gap the route comes
        back — but only the noisy peer ever sees the second segment."""
        t0 = ts(2024, 6, 22)
        both = [(CLEAN[0], CLEAN[1], 16347)]
        noisy_only = [(NOISY[0], NOISY[1], 211509)]
        series = [both, both, [], [], noisy_only, noisy_only]
        dumps = []
        for step, holders in enumerate(series):
            dumps.extend(dump_at(t0 + step * 8 * HOUR, holders))
        return dumps

    def test_resurrection_without_exclusion(self):
        lifespans = LifespanTracker().track(
            self._dumps(), {Prefix(P): self.WITHDRAW})
        (event,) = find_resurrections(lifespans.values())
        assert event.peers == frozenset({NOISY})
        assert event.resurrected_at > event.disappeared_after

    def test_exclusion_suppresses_the_resurrection(self):
        """With the noisy peer excluded the second segment never exists:
        no resurrection, and the lifespan ends at the clean peer's last
        sighting."""
        lifespans = LifespanTracker().track(
            self._dumps(), {Prefix(P): self.WITHDRAW},
            excluded_peers=frozenset({NOISY}))
        assert find_resurrections(lifespans.values()) == []
        lifespan = lifespans[Prefix(P)]
        assert len(lifespan.segments) == 1
        assert lifespan.last_seen == ts(2024, 6, 22) + 8 * HOUR

    def test_zombie_seen_only_by_noisy_peer_vanishes_entirely(self):
        t0 = ts(2024, 6, 22)
        noisy_only = [(NOISY[0], NOISY[1], 211509)]
        dumps = []
        for step in range(3):
            dumps.extend(dump_at(t0 + step * 8 * HOUR, noisy_only))
        excluded = LifespanTracker().track(
            dumps, {Prefix(P): self.WITHDRAW},
            excluded_peers=frozenset({NOISY}))
        assert not excluded[Prefix(P)].is_zombie
        included = LifespanTracker().track(dumps, {Prefix(P): self.WITHDRAW})
        assert included[Prefix(P)].is_zombie

    def test_session_deltas_respect_exclusion(self):
        """The incremental session (the observatory ingest path) agrees
        with the batch tracker: an excluded peer's reappearance commits
        no resurrection delta."""
        for excluded, expect_resurrection in [(frozenset(), True),
                                              (frozenset({NOISY}), False)]:
            session = LifespanSession({Prefix(P): self.WITHDRAW},
                                      excluded_peers=excluded)
            deltas = []
            for dump in self._dumps():
                deltas.extend(session.observe(dump))
            deltas.extend(session.finalize())
            flagged = [d for d in deltas if d.resurrection]
            assert bool(flagged) is expect_resurrection
