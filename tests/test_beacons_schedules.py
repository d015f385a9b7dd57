"""Tests for RIS beacons and the paper's new beacon schedules."""

import pytest

from repro.beacons import (
    BEACON_ORIGIN_ASN,
    BEACON_SUPER_PREFIX,
    BeaconAction,
    PaperCampaign,
    RecycleApproach,
    RISBeaconSchedule,
    ZombieBeaconSchedule,
    ris_beacons_2018,
    slot_prefix,
)
from repro.beacons.zombie_beacons import (
    APPROACH_A_END,
    APPROACH_A_START,
    APPROACH_B_END,
    APPROACH_B_START,
    decode_slot_a,
)
from repro.net import Prefix
from repro.utils.timeutil import DAY, HOUR, from_iso, ts


class TestRISBeacons:
    def test_2018_set_sizes(self):
        beacons = ris_beacons_2018()
        v4 = [b for b in beacons if b.prefix.is_ipv4]
        v6 = [b for b in beacons if b.prefix.is_ipv6]
        assert len(v4) == 13
        assert len(v6) == 14

    def test_addressing_plan(self):
        beacons = {(b.collector, str(b.prefix)) for b in ris_beacons_2018()}
        assert ("rrc00", "84.205.64.0/24") in beacons
        assert ("rrc00", "2001:7fb:fe00::/48") in beacons
        assert ("rrc16", "2001:7fb:fe10::/48") in beacons

    def test_four_hour_cycle(self):
        schedule = RISBeaconSchedule()
        start = ts(2018, 7, 19)
        intervals = list(schedule.intervals(start, start + DAY))
        # 6 announcement slots per day x 27 beacons.
        assert len(intervals) == 6 * 27
        first = intervals[0]
        assert first.announce_time == start
        assert first.withdraw_time == start + 2 * HOUR

    def test_slots_aligned_to_period(self):
        schedule = RISBeaconSchedule()
        start = ts(2018, 7, 19, 1, 30)  # not on a slot boundary
        intervals = list(schedule.intervals(start, start + 5 * HOUR))
        assert {i.announce_time for i in intervals} == {ts(2018, 7, 19, 4)}

    def test_origin_asn(self):
        schedule = RISBeaconSchedule()
        interval = next(schedule.intervals(ts(2018, 7, 19), ts(2018, 7, 20)))
        assert interval.origin_asn == 12654

    def test_events_alternate_and_sorted(self):
        schedule = RISBeaconSchedule(ris_beacons_2018()[:1])
        events = list(schedule.events(ts(2018, 7, 19), ts(2018, 7, 19, 8)))
        assert [e.action for e in events] == [
            BeaconAction.ANNOUNCE, BeaconAction.WITHDRAW,
            BeaconAction.ANNOUNCE, BeaconAction.WITHDRAW]
        assert events[0].origin_time == events[0].time


class TestSlotPrefix:
    def test_approach_a_paper_example(self):
        """Campaign start 2024-06-04 11:45 → 2a0d:3dc1:1145::/48."""
        assert slot_prefix(ts(2024, 6, 4, 11, 45), RecycleApproach.DAILY) == \
            Prefix("2a0d:3dc1:1145::/48")

    def test_approach_a_midnight(self):
        assert slot_prefix(ts(2024, 6, 5, 0, 0), RecycleApproach.DAILY) == \
            Prefix("2a0d:3dc1:0::/48")

    def test_approach_a_daily_recycling(self):
        a = slot_prefix(ts(2024, 6, 5, 9, 30), RecycleApproach.DAILY)
        b = slot_prefix(ts(2024, 6, 6, 9, 30), RecycleApproach.DAILY)
        assert a == b == Prefix("2a0d:3dc1:930::/48")

    def test_approach_b_paper_resurrection_prefix(self):
        """2a0d:3dc1:1851::/48 = 18:45 on a day with day%15 == 6
        (e.g. 2024-06-21)."""
        assert slot_prefix(ts(2024, 6, 21, 18, 45), RecycleApproach.FIFTEEN_DAYS) == \
            Prefix("2a0d:3dc1:1851::/48")

    def test_approach_b_collision_paper_example(self):
        """On 2024-06-15 the 00:30 and 03:00 slots map to the same prefix
        2a0d:3dc1:30::/48 (paper footnote 3)."""
        p1 = slot_prefix(ts(2024, 6, 15, 0, 30), RecycleApproach.FIFTEEN_DAYS)
        p2 = slot_prefix(ts(2024, 6, 15, 3, 0), RecycleApproach.FIFTEEN_DAYS)
        assert p1 == p2 == Prefix("2a0d:3dc1:30::/48")

    def test_approach_b_15_day_recycling(self):
        a = slot_prefix(ts(2024, 6, 11, 9, 30), RecycleApproach.FIFTEEN_DAYS)
        b = slot_prefix(ts(2024, 6, 26, 9, 30), RecycleApproach.FIFTEEN_DAYS)
        c = slot_prefix(ts(2024, 6, 12, 9, 30), RecycleApproach.FIFTEEN_DAYS)
        assert a == b
        assert a != c

    def test_non_slot_time_rejected(self):
        with pytest.raises(ValueError):
            slot_prefix(ts(2024, 6, 4, 11, 44), RecycleApproach.DAILY)

    def test_all_prefixes_in_super_prefix(self):
        for hour in range(0, 24, 7):
            for minute in (0, 15, 30, 45):
                for approach in RecycleApproach:
                    p = slot_prefix(ts(2024, 6, 9, hour, minute), approach)
                    assert BEACON_SUPER_PREFIX.contains(p)

    def test_decode_slot_a_roundtrip(self):
        day = ts(2024, 6, 5)
        for hour in (0, 9, 18, 23):
            for minute in (0, 15, 30, 45):
                slot = day + hour * 3600 + minute * 60
                prefix = slot_prefix(slot, RecycleApproach.DAILY)
                assert decode_slot_a(prefix, day) == slot

    def test_decode_slot_a_rejects_non_beacon(self):
        with pytest.raises(ValueError):
            decode_slot_a(Prefix("2a0d:3dc1:9999::/48"), ts(2024, 6, 5))


class TestZombieSchedule:
    def test_96_slots_per_day(self):
        schedule = ZombieBeaconSchedule(RecycleApproach.DAILY)
        start = ts(2024, 6, 5)
        intervals = list(schedule.intervals(start, start + DAY))
        assert len(intervals) == 96
        assert len({i.prefix for i in intervals}) == 96

    def test_hold_time_is_15_minutes(self):
        schedule = ZombieBeaconSchedule(RecycleApproach.DAILY)
        interval = next(schedule.intervals(ts(2024, 6, 5), ts(2024, 6, 6)))
        assert interval.duration == 15 * 60

    def test_origin_asn_default(self):
        schedule = ZombieBeaconSchedule(RecycleApproach.DAILY)
        interval = next(schedule.intervals(ts(2024, 6, 5), ts(2024, 6, 6)))
        assert interval.origin_asn == BEACON_ORIGIN_ASN == 210312

    def test_approach_b_collision_flagged(self):
        schedule = ZombieBeaconSchedule(RecycleApproach.FIFTEEN_DAYS)
        start = ts(2024, 6, 15)
        intervals = list(schedule.intervals(start, start + DAY))
        colliding = [i for i in intervals
                     if i.prefix == Prefix("2a0d:3dc1:30::/48")]
        assert len(colliding) == 2
        earlier, later = sorted(colliding, key=lambda i: i.announce_time)
        assert earlier.discarded and not later.discarded
        assert earlier.announce_time == ts(2024, 6, 15, 0, 30)
        assert later.announce_time == ts(2024, 6, 15, 3, 0)

    def test_collisions_helper_pairs(self):
        schedule = ZombieBeaconSchedule(RecycleApproach.FIFTEEN_DAYS)
        pairs = schedule.collisions(ts(2024, 6, 15), ts(2024, 6, 16))
        assert pairs  # at least the 00:30/03:00 pair
        for discarded, kept in pairs:
            assert discarded.discarded
            assert not kept.discarded
            assert discarded.prefix == kept.prefix
            assert discarded.announce_time < kept.announce_time

    def test_approach_a_never_discards(self):
        schedule = ZombieBeaconSchedule(RecycleApproach.DAILY)
        intervals = schedule.intervals(ts(2024, 6, 5), ts(2024, 6, 7))
        assert not any(i.discarded for i in intervals)


class TestPaperCampaign:
    def test_windows(self):
        campaign = PaperCampaign()
        assert campaign.start == from_iso("2024-06-04 11:45")
        assert campaign.end == from_iso("2024-06-22 17:30")

    def test_first_interval_is_campaign_start(self):
        campaign = PaperCampaign()
        first = next(campaign.intervals())
        assert first.announce_time == APPROACH_A_START
        assert first.prefix == Prefix("2a0d:3dc1:1145::/48")

    def test_no_slots_in_gap_between_approaches(self):
        campaign = PaperCampaign()
        gap_times = [i.announce_time for i in campaign.intervals()
                     if APPROACH_A_END <= i.announce_time < APPROACH_B_START]
        assert gap_times == []

    def test_prefix_count_approach_a_window(self):
        campaign = PaperCampaign()
        prefixes = campaign.prefixes(APPROACH_A_START, APPROACH_A_END)
        # A full approach-A day cycles 96 prefixes.
        assert len(prefixes) == 96

    def test_interval_count_matches_slot_arithmetic(self):
        campaign = PaperCampaign()
        count_a = sum(1 for i in campaign.intervals() if i.announce_time < APPROACH_A_END)
        expected_a = (APPROACH_A_END - APPROACH_A_START) // (15 * 60)
        assert count_a == expected_a
