"""Tests for the revised zombie detector: thresholds, interval isolation,
Aggregator double-count elimination, and peer exclusion."""

import pytest
from helpers import ann, interval, sess_down, wd

from repro.core import DetectorConfig, ZombieDetector
from repro.net import Prefix
from repro.utils.timeutil import HOUR, MINUTE, ts

P = "2a0d:3dc1:1145::/48"
PEER = ("rrc00", "2001:db8::2")
T0 = ts(2024, 6, 5, 0, 0)


def detect(records, intervals, **config):
    detector = ZombieDetector(DetectorConfig(**config))
    return detector.detect(records, intervals)


class TestBasicDetection:
    def test_healthy_withdrawal_no_zombie(self):
        iv = interval(P, T0, T0 + 900)
        records = [ann(T0 + 2, P, 25091, 210312, origin_time=T0),
                   wd(T0 + 902, P)]
        result = detect(records, [iv])
        assert result.outbreaks == []
        assert result.visible_count == 1

    def test_stuck_route_is_zombie(self):
        iv = interval(P, T0, T0 + 900)
        records = [ann(T0 + 2, P, 25091, 210312, origin_time=T0)]
        result = detect(records, [iv])
        assert result.outbreak_count == 1
        (outbreak,) = result.outbreaks
        assert outbreak.size == 1
        assert outbreak.routes[0].peer == PEER
        assert not outbreak.routes[0].stale

    def test_withdrawal_after_threshold_still_zombie(self):
        iv = interval(P, T0, T0 + 900)
        records = [ann(T0 + 2, P, 25091, 210312, origin_time=T0),
                   wd(T0 + 900 + 2 * HOUR, P)]  # cured 2h later
        result = detect(records, [iv], threshold=90 * MINUTE)
        assert result.outbreak_count == 1

    def test_withdrawal_before_threshold_not_zombie(self):
        iv = interval(P, T0, T0 + 900)
        records = [ann(T0 + 2, P, 25091, 210312, origin_time=T0),
                   wd(T0 + 900 + 80 * MINUTE, P)]  # cured at +80min
        result = detect(records, [iv], threshold=90 * MINUTE)
        assert result.outbreak_count == 0

    def test_threshold_sweep_monotonicity(self):
        """A zombie cured at +2h counts at 90min but not at 180min."""
        iv = interval(P, T0, T0 + 900)
        records = [ann(T0 + 2, P, 25091, 210312, origin_time=T0),
                   wd(T0 + 900 + 2 * HOUR, P)]
        assert detect(records, [iv], threshold=90 * MINUTE).outbreak_count == 1
        assert detect(records, [iv], threshold=180 * MINUTE).outbreak_count == 0

    def test_invisible_beacon_not_counted(self):
        iv = interval(P, T0, T0 + 900)
        result = detect([], [iv])
        assert result.visible_count == 0
        assert result.outbreak_fraction() == 0.0

    def test_session_down_before_eval_not_zombie(self):
        iv = interval(P, T0, T0 + 900)
        records = [ann(T0 + 2, P, 25091, 210312, origin_time=T0),
                   sess_down(T0 + 1000)]
        result = detect(records, [iv])
        assert result.outbreak_count == 0

    def test_discarded_intervals_skipped(self):
        iv = interval(P, T0, T0 + 900, discarded=True)
        records = [ann(T0 + 2, P, 25091, 210312, origin_time=T0)]
        result = detect(records, [iv])
        assert result.outbreak_count == 0
        assert result.visible_count == 0

    def test_multiple_peers_one_outbreak(self):
        iv = interval(P, T0, T0 + 900)
        records = [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            ann(T0 + 3, P, 33891, 25091, 210312, origin_time=T0,
                addr="2001:db8::9", peer_asn=33891),
            wd(T0 + 903, P),  # only the first peer withdraws
        ]
        result = detect(records, [iv])
        assert result.outbreak_count == 1
        assert result.outbreaks[0].size == 1
        assert result.outbreaks[0].peer_asns == {33891}


class TestIntervalIsolation:
    def test_stale_presence_not_seen_across_intervals(self):
        """A route stuck since interval 1 with no messages in interval 2
        is invisible to interval 2 (strict isolation)."""
        iv1 = interval(P, T0, T0 + 900)
        iv2 = interval(P, T0 + 4 * HOUR, T0 + 4 * HOUR + 900)
        records = [ann(T0 + 2, P, 25091, 210312, origin_time=T0)]  # never withdrawn
        result = detect(records, [iv1, iv2])
        assert result.outbreak_count == 1
        assert result.outbreaks[0].interval == iv1

    def test_next_interval_announcement_does_not_leak(self):
        """With a threshold reaching past the next announcement, the next
        interval's fresh announcement must not resurrect this one."""
        iv1 = interval(P, T0, T0 + 900)
        iv2 = interval(P, T0 + 4 * HOUR, T0 + 4 * HOUR + 900)
        records = [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            wd(T0 + 903, P),
            ann(T0 + 4 * HOUR + 2, P, 25091, 210312, origin_time=T0 + 4 * HOUR),
            wd(T0 + 4 * HOUR + 903, P),
        ]
        result = detect(records, [iv1, iv2],
                        threshold=5 * HOUR)  # eval beyond next announce
        assert result.outbreak_count == 0


class TestDoubleCounting:
    def _records_with_old_reannouncement(self):
        """Interval 2 sees a path-hunting re-announcement whose Aggregator
        clock dates from interval 1 — the §3.1 scenario."""
        iv1 = interval(P, T0, T0 + 900)
        iv2 = interval(P, T0 + 4 * HOUR, T0 + 4 * HOUR + 900)
        records = [
            # interval 1: proper zombie (never withdrawn at this peer).
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            # interval 2: fresh announce+withdraw handled fine...
            ann(T0 + 4 * HOUR + 2, P, 25091, 210312,
                origin_time=T0 + 4 * HOUR),
            # ...but right after the withdrawal, path hunting re-exposes
            # the OLD route (old origin_time in the clock).
            wd(T0 + 4 * HOUR + 903, P),
            ann(T0 + 4 * HOUR + 905, P, 25091, 4637, 210312, origin_time=T0),
        ]
        return records, [iv1, iv2]

    def test_without_dedup_counts_twice(self):
        records, intervals = self._records_with_old_reannouncement()
        result = detect(records, intervals, dedup=False)
        assert result.outbreak_count == 2

    def test_with_dedup_counts_once(self):
        records, intervals = self._records_with_old_reannouncement()
        result = detect(records, intervals, dedup=True)
        assert result.outbreak_count == 1
        assert result.outbreaks[0].interval.announce_time == T0

    def test_stale_flag_set_even_without_dedup(self):
        records, intervals = self._records_with_old_reannouncement()
        result = detect(records, intervals, dedup=False)
        second = result.outbreaks[1]
        assert second.routes[0].stale

    def test_fresh_zombie_not_marked_stale(self):
        iv = interval(P, T0, T0 + 900)
        records = [ann(T0 + 2, P, 25091, 210312, origin_time=T0)]
        result = detect(records, [iv], dedup=True)
        assert result.outbreak_count == 1
        assert not result.outbreaks[0].routes[0].stale

    def test_no_aggregator_means_not_stale(self):
        """Routes without the clock (our beacons) are never dropped."""
        iv = interval(P, T0, T0 + 900)
        records = [ann(T0 + 2, P, 25091, 210312)]  # no origin_time
        result = detect(records, [iv], dedup=True)
        assert result.outbreak_count == 1


class TestExclusions:
    def _two_peer_records(self):
        iv = interval(P, T0, T0 + 900)
        records = [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            ann(T0 + 3, P, 211509, 210312, origin_time=T0,
                addr="176.119.234.201", peer_asn=211509),
        ]
        return records, [iv]

    def test_exclude_by_router(self):
        records, intervals = self._two_peer_records()
        result = detect(records, intervals,
                        excluded_peers=frozenset({("rrc00", "176.119.234.201")}))
        assert result.outbreaks[0].peer_asns == {25091}

    def test_exclude_by_asn(self):
        records, intervals = self._two_peer_records()
        result = detect(records, intervals,
                        excluded_peer_asns=frozenset({211509}))
        assert result.outbreaks[0].peer_asns == {25091}

    def test_excluded_peer_not_in_visibility(self):
        records, intervals = self._two_peer_records()
        result = detect(records, intervals,
                        excluded_peer_asns=frozenset({211509}))
        assert ("rrc00", "176.119.234.201") not in result.router_visible


class TestStatistics:
    def test_visible_pairs_and_zombie_pairs(self):
        iv1 = interval(P, T0, T0 + 900)
        iv2 = interval(P, T0 + 4 * HOUR, T0 + 4 * HOUR + 900)
        records = [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            wd(T0 + 903, P),
            ann(T0 + 4 * HOUR + 2, P, 25091, 210312, origin_time=T0 + 4 * HOUR),
            # second interval: stuck.
        ]
        result = detect(records, [iv1, iv2])
        assert result.visible_pairs[(Prefix(P), 25091)] == 2
        assert result.zombie_pairs[(Prefix(P), 25091)] == 1
        assert result.outbreak_fraction() == 0.5

    def test_split_by_family(self):
        iv6 = interval(P, T0, T0 + 900)
        iv4 = interval("84.205.64.0/24", T0, T0 + 900)
        records = [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            ann(T0 + 2, "84.205.64.0/24", 25091, 12654, origin_time=T0,
                peer_asn=25091),
        ]
        result = detect(records, [iv6, iv4])
        v4, v6 = result.split_by_family()
        assert len(v4) == 1 and v4[0].prefix.is_ipv4
        assert len(v6) == 1 and v6[0].prefix.is_ipv6

    def test_zombie_route_count(self):
        records, intervals = TestExclusions()._two_peer_records()
        result = detect(records, intervals)
        assert result.outbreak_count == 1
        assert result.outbreaks[0].size == 2
