"""Tests for live detection: the zombie evaluation core fed one record
at a time, including agreement with the offline detector, and the
resurrection monitor fed the same way."""

from helpers import ann, interval, sess_down, wd

from repro.core import DetectorConfig, IntervalEvaluator, ResurrectionMonitor
from repro.utils.timeutil import HOUR, MINUTE, ts

P = "2a0d:3dc1:1145::/48"
T0 = ts(2024, 6, 5)


def feed(detector, records):
    """The zombie routes of every verdict, in emission order."""
    verdicts = []
    for record in sorted(records, key=lambda r: r.timestamp):
        verdicts.extend(detector.observe(record))
    verdicts.extend(detector.flush())
    return [route for _, _, routes in verdicts for route in routes]


class TestStreamingDetector:
    """The evaluation core as a live detector: records one at a time,
    zombie routes out as the stream passes each window."""

    def test_zombie_alert_emitted(self):
        detector = IntervalEvaluator(DetectorConfig(threshold=90 * MINUTE))
        detector.add_interval(interval(P, T0, T0 + 900))
        records = [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            # a later unrelated record advances the clock past eval time
            ann(T0 + 3 * HOUR, "2a0d:3dc1:9999::/48", 25091, 210312),
        ]
        detector.add_interval(interval("2a0d:3dc1:9999::/48", T0 + 3 * HOUR))
        alerts = feed(detector, records)
        zombie = [a for a in alerts if str(a.prefix) == P]
        assert len(zombie) == 1
        assert zombie[0].detected_at == T0 + 900 + 90 * MINUTE
        assert zombie[0].zombie_path.asns == (25091, 210312)

    def test_clean_withdrawal_no_alert(self):
        detector = IntervalEvaluator(DetectorConfig())
        detector.add_interval(interval(P, T0, T0 + 900))
        alerts = feed(detector, [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            wd(T0 + 905, P),
        ])
        assert alerts == []

    def test_session_down_clears_state(self):
        detector = IntervalEvaluator(DetectorConfig())
        detector.add_interval(interval(P, T0, T0 + 900))
        alerts = feed(detector, [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            sess_down(T0 + 1000),
        ])
        assert alerts == []

    def test_dedup_filters_stale_announcements(self):
        detector = IntervalEvaluator(DetectorConfig(dedup=True))
        iv2 = interval(P, T0 + 4 * HOUR, T0 + 4 * HOUR + 900)
        detector.add_interval(interval(P, T0, T0 + 900))
        detector.add_interval(iv2)
        records = [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            ann(T0 + 4 * HOUR + 2, P, 25091, 210312, origin_time=T0 + 4 * HOUR),
            wd(T0 + 4 * HOUR + 903, P),
            # path-hunting re-exposure of the old route:
            ann(T0 + 4 * HOUR + 905, P, 25091, 4637, 210312, origin_time=T0),
        ]
        alerts = feed(detector, records)
        assert len(alerts) == 1  # only the first interval's fresh zombie
        assert alerts[0].interval.announce_time == T0

    def test_excluded_peers_silent(self):
        detector = IntervalEvaluator(DetectorConfig(
            excluded_peers=frozenset({("rrc00", "2001:db8::2")})))
        detector.add_interval(interval(P, T0, T0 + 900))
        alerts = feed(detector, [ann(T0 + 2, P, 25091, 210312,
                                     origin_time=T0)])
        assert alerts == []

    def test_discarded_interval_ignored(self):
        detector = IntervalEvaluator(DetectorConfig())
        detector.add_interval(interval(P, T0, T0 + 900, discarded=True))
        assert detector.pending_evaluations == 0

    def test_untracked_prefix_ignored(self):
        detector = IntervalEvaluator(DetectorConfig())
        detector.add_interval(interval(P, T0, T0 + 900))
        alerts = feed(detector, [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            ann(T0 + 3, "2001:db8::/32", 25091, 210312),
        ])
        assert all(str(a.prefix) == P for a in alerts)


class TestWindowBoundaries:
    """The three cases where the streaming detector used to disagree
    with the batch one; the window is the batch one's in all three."""

    def test_next_announcement_ends_the_window(self):
        """RIS-shaped beacon (4 h cycle, 2 h up) judged at 3 h: the
        evaluation instant lies past the next announcement, which must
        not be read as a stuck route of this interval."""
        detector = IntervalEvaluator(DetectorConfig(threshold=3 * HOUR))
        records = []
        for cycle in range(3):
            announce = T0 + cycle * 4 * HOUR
            detector.add_interval(interval(P, announce, announce + 2 * HOUR))
            for index, addr in enumerate(["2001:db8::2", "2001:db8::9"]):
                records += [
                    ann(announce + 2 + index, P, 25091, 12654, addr=addr,
                        origin_time=announce),
                    wd(announce + 2 * HOUR + 3 + index, P, addr=addr)]
        assert feed(detector, records) == []

    def test_withdrawal_at_the_evaluation_instant_is_healthy(self):
        detector = IntervalEvaluator(DetectorConfig(threshold=90 * MINUTE))
        detector.add_interval(interval(P, T0, T0 + 900))
        alerts = feed(detector, [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            wd(T0 + 900 + 90 * MINUTE, P),
        ])
        assert alerts == []

    def test_reannouncement_at_the_evaluation_instant_is_a_zombie(self):
        detector = IntervalEvaluator(DetectorConfig(threshold=90 * MINUTE))
        detector.add_interval(interval(P, T0, T0 + 900))
        (alert,) = feed(detector, [
            ann(T0 + 2, P, 25091, 210312, origin_time=T0),
            wd(T0 + 903, P),
            ann(T0 + 900 + 90 * MINUTE, P, 25091, 4637, 210312,
                origin_time=T0),
        ])
        assert alert.detected_at == T0 + 900 + 90 * MINUTE
        assert alert.zombie_path.asns == (25091, 4637, 210312)


class TestStreamingAgreesWithOffline:
    def test_same_zombies(self):
        """One input of the three-path property, which replaced this
        class's own comparison."""
        from test_core_properties import FIVE_RECORDS, assert_one_verdict

        assert_one_verdict(*FIVE_RECORDS)


def monitor_for(*intervals, min_offset=2 * HOUR):
    monitor = ResurrectionMonitor(min_offset)
    for iv in intervals:
        monitor.add_interval(iv)
    return monitor


class TestResurrectionMonitor:
    def test_alert_after_quiet_period(self):
        iv = interval(P, T0, T0 + 900)
        monitor = monitor_for(iv)
        assert monitor.observe(ann(T0 + 2, P, 25091, 210312)) is None
        assert monitor.observe(wd(T0 + 1000, P)) is None
        alert = monitor.observe(ann(T0 + 3 * HOUR, P, 25091, 4637, 210312))
        assert alert is not None
        assert alert.quiet_seconds == 3 * HOUR - 1000
        assert alert.offset_minutes == (3 * HOUR - 900) / MINUTE
        assert alert.path.contains(4637)

    def test_quick_reannounce_not_flagged(self):
        monitor = monitor_for(interval(P, T0, T0 + 900))
        monitor.observe(wd(T0 + 900, P))
        assert monitor.observe(ann(T0 + 1500, P, 25091, 210312)) is None

    def test_untracked_ignored(self):
        """Records of a prefix without a registered interval, or before
        its first window opens, arm nothing."""
        monitor = monitor_for(interval(P, T0 + HOUR, T0 + HOUR + 900))
        assert monitor.observe(wd(T0, P)) is None
        assert monitor.observe(wd(T0, "2001:db8::/32")) is None
        assert monitor.observe(ann(T0 + 4 * HOUR, P, 25091, 210312)) is None
        assert monitor.observe(ann(T0 + 4 * HOUR, "2001:db8::/32", 25091,
                                   210312)) is None

    def test_reannounce_resets_tracking(self):
        monitor = monitor_for(interval(P, T0, T0 + 900), min_offset=HOUR)
        monitor.observe(wd(T0 + 900, P))
        # A prompt re-announcement disarms the peer ...
        assert monitor.observe(ann(T0 + 960, P, 25091, 210312)) is None
        # ... and the next withdrawal starts a fresh quiet period.
        monitor.observe(wd(T0 + 3 * HOUR, P))
        alert = monitor.observe(ann(T0 + 5 * HOUR, P, 25091, 210312))
        assert alert is not None
        assert alert.withdrawn_at == T0 + 3 * HOUR


class TestScheduleAwareMonitor:
    """The beacon's own schedule bounds the window: its next
    announcement is never a late one."""

    def test_scheduled_reannouncement_suppressed(self):
        monitor = monitor_for(interval(P, T0, T0 + 900),
                              interval(P, T0 + 3 * HOUR), min_offset=HOUR)
        monitor.observe(wd(T0 + 903, P))
        # Re-announcement right at the scheduled slot: the beacon spoke.
        assert monitor.observe(ann(T0 + 3 * HOUR + 60, P, 25091,
                                   210312)) is None

    def test_unscheduled_reannouncement_still_alerts(self):
        monitor = monitor_for(interval(P, T0, T0 + 900),
                              interval(P, T0 + 10 * HOUR), min_offset=HOUR)
        monitor.observe(wd(T0 + 903, P))
        alert = monitor.observe(ann(T0 + 3 * HOUR, P, 25091, 210312))
        assert alert is not None
