"""Integration tests for the 2024 campaign experiment.

One quick-config campaign is simulated per session (module fixture) and
every paper §5 phenomenon is asserted against it: Fig. 2 shape incl. the
resurrection uptick, Table 5 noisy peers, the §5.2 case studies, Fig. 3
durations, and resurrection events.
"""

import ipaddress

import pytest

from repro.core import (
    LifespanTracker,
    NoisyPeerDetector,
    find_late_announcements,
    find_resurrections,
)
from repro.experiments import (
    CampaignConfig,
    build_case_study,
    build_figure2,
    build_table5,
    campaign_run,
)
from repro.net import Prefix
from repro.ris import Archive, ArchiveWriter
from repro.utils.timeutil import DAY, HOUR, MINUTE


@pytest.fixture(scope="module")
def run():
    return campaign_run(quick=True)


@pytest.fixture(scope="module")
def dumps(run):
    return list(run.rib_dumps())


class TestCampaignBasics:
    def test_deterministic_record_count(self, run):
        other = campaign_run(CampaignConfig.quick())
        assert other is run  # cached

    def test_announcements_match_slot_arithmetic(self, run):
        config = run.config
        expected = (config.end - config.start) // (15 * 60)
        # Approach-B collisions may discard a few slots.
        assert expected - 5 <= run.announcement_count <= expected

    def test_most_announcements_visible(self, run):
        result = run.detect()
        assert result.visible_count >= 0.95 * run.announcement_count

    def test_detection_is_memoised_per_config(self, run):
        """Report builders ask the same run the same question many
        times: one result per detector configuration, equal to a fresh
        detection."""
        from repro.core import DetectorConfig, ZombieDetector

        result = run.detect(threshold=180 * MINUTE, exclude_noisy=True)
        assert run.detect(threshold=180 * MINUTE, exclude_noisy=True) is result
        assert run.detect(threshold=180 * MINUTE) is not result
        fresh = ZombieDetector(DetectorConfig(
            threshold=180 * MINUTE, excluded_peers=run.noisy_truth)
        ).detect(run.records, run.intervals)
        assert result == fresh

    def test_noisy_truth_attached(self, run):
        assert len(run.noisy_truth) == 3

    def test_every_peer_address_parses(self, run):
        for peer in run.peers:
            ipaddress.ip_address(peer.address)

    def test_first_hours_round_trip_through_the_archive(self, run, tmp_path):
        start = run.config.start
        window = [r for r in run.records if r.timestamp < start + 2 * HOUR]
        assert any(r.peer_asn == 142271 for r in window)  # a 32-bit ASN peer
        writer = ArchiveWriter(tmp_path)
        for collector in sorted({r.collector for r in window}):
            writer.write_updates(
                collector, [r for r in window if r.collector == collector])
        read = Archive(tmp_path).iter_updates(start, start + 2 * HOUR)

        def identity(record):
            # Peer address canonicalised: the simulator spells some with
            # an explicit zero group, which sixteen bytes on disk do not
            # remember (and which can reorder peers within one second).
            return str(record).replace(
                record.peer_address,
                str(ipaddress.ip_address(record.peer_address)))

        assert sorted(map(identity, read)) == sorted(map(identity, window))

    def test_scripted_prefixes_in_window(self, run):
        assert str(run.scripted_prefixes["impactful"]) == "2a0d:3dc1:2233::/48"
        assert str(run.scripted_prefixes["long_lived"]) == "2a0d:3dc1:163::/48"


class TestFigure2Shape:
    def test_fraction_decreases_with_threshold(self, run):
        points = build_figure2(run, thresholds_minutes=(90, 120, 150))
        fractions = [p.fraction_excluded for p in points]
        assert fractions[0] > fractions[-1]

    def test_noisy_exclusion_collapses_counts(self, run):
        points = build_figure2(run, thresholds_minutes=(180,))
        (p,) = points
        assert p.outbreaks_all > 3 * p.outbreaks_excluded

    def test_resurrection_uptick_after_170(self, run):
        points = {p.threshold_minutes: p
                  for p in build_figure2(run, thresholds_minutes=(170, 175))}
        assert points[175].outbreaks_excluded > points[170].outbreaks_excluded

    def test_survival_fraction_plausible(self, run):
        """A sizeable minority of 90-minute zombies survive to 3 hours
        (the paper's 31.4 %)."""
        at_90 = run.detect(threshold=90 * MINUTE, exclude_noisy=True)
        at_180 = run.detect(threshold=180 * MINUTE, exclude_noisy=True)
        assert 0 < at_180.outbreak_count < at_90.outbreak_count

    def test_r1_late_announcements_carry_the_telstra_subpath(self, run):
        """R1 (§5.1): the update-scale rule finds the +170-minute
        re-announcements of the scripted Telstra resurrection, over the
        subpath the paper names."""
        late = [event for event in find_late_announcements(
                    run.records, run.intervals)
                if event.path.has_subpath((4637, 1299, 25091, 8298, 210312))]
        assert late
        assert all(170 <= event.offset_minutes < 175 for event in late)


class TestNoisyPeers:
    def test_table5_routers_have_elevated_probability(self, run):
        rows = build_table5(run)
        assert len(rows) == 3
        for row in rows:
            assert row.percent_90min > 0.04
            assert row.zombies_180min > 0

    def test_211509_routers_identical(self, run):
        """The two AS211509 routers misbehave in lockstep (Table 5 shows
        identical counts for them)."""
        rows = {r.peer_address: r for r in build_table5(run)}
        a = rows["176.119.234.201"]
        b = rows["2001:678:3f4:5::1"]
        assert a.zombies_90min == b.zombies_90min
        assert a.zombies_180min == b.zombies_180min

    def test_noisy_detector_flags_ground_truth(self, run):
        result = run.detect(threshold=90 * MINUTE)
        report = NoisyPeerDetector(ratio=4.0, floor=0.04).analyze(result)
        assert run.noisy_truth <= report.noisy_keys


class TestCaseStudies:
    def test_impactful_zombie(self, run):
        case = build_case_study(run, run.scripted_prefixes["impactful"])
        assert case is not None
        # Paper: 24 peer routers / 21 peer ASes, subpath 33891 25091 8298
        # 210312, Core-Backbone suspected, gone 4 days later.
        assert case.peer_router_count >= 10
        assert case.common_subpath[-4:] == (33891, 25091, 8298, 210312)
        assert case.suspected_root_cause == 33891
        assert 2.0 <= case.duration_days <= 6.0
        assert case.root_cause_cone_size > 1

    def test_long_lived_zombie(self, run):
        case = build_case_study(run, run.scripted_prefixes["long_lived"])
        assert case is not None
        # Paper: peers AS9304/AS17639 ~4.5 months, AS142271 ~4 months,
        # subpath 9304 6939 43100 25091 8298 210312.
        assert case.common_subpath[-6:] == (9304, 6939, 43100, 25091, 8298,
                                            210312)
        assert case.suspected_root_cause == 9304
        assert case.duration_days > 100
        assert {9304, 17639} <= set(case.peer_durations_days)


class TestLifespans:
    def test_cluster_durations_35_37_days(self, run, dumps):
        tracker = LifespanTracker()
        lifespans = tracker.track(dumps, run.final_withdrawals,
                                  excluded_peers=run.noisy_truth)
        cluster = [ls for ls in lifespans.values()
                   if ls.is_zombie and 30 <= ls.duration_days <= 40]
        assert cluster
        for lifespan in cluster:
            peers = set()
            for segment in lifespan.segments:
                peers |= segment.peers
            assert peers == {("rrc07", "2a0c:b641:780:7::feca")}

    def test_cluster_is_resurrection(self, run, dumps):
        tracker = LifespanTracker()
        lifespans = tracker.track(dumps, run.final_withdrawals,
                                  excluded_peers=run.noisy_truth)
        events = find_resurrections([ls for ls in lifespans.values()
                                     if ls.is_zombie])
        assert events
        assert any(e.resurrected_at - e.disappeared_after > 20 * DAY
                   for e in events)

    def test_all_peers_line_dominates_excluded(self, run, dumps):
        tracker = LifespanTracker()
        all_ls = tracker.track(dumps, run.final_withdrawals)
        excl_ls = tracker.track(dumps, run.final_withdrawals,
                                excluded_peers=run.noisy_truth)
        count_all = sum(1 for ls in all_ls.values() if ls.is_zombie)
        count_excl = sum(1 for ls in excl_ls.values() if ls.is_zombie)
        assert count_all > count_excl


class TestRPKI:
    def test_beacon_roa_revoked(self, run):
        from repro.simulator import ValidationState

        registry = run.world.roa_registry
        prefix = Prefix("2a0d:3dc1:163::/48")
        before = registry.validate(prefix, 210312, run.config.start)
        after = registry.validate(prefix, 210312, run.config.start + 30 * 86400)
        assert before is ValidationState.VALID
        assert after is ValidationState.INVALID

    def test_zombies_survive_roa_revocation(self, run, dumps):
        """The §5 observation: stuck routes outlive the ROA removal
        because their holders do not enforce ROV."""
        from repro.experiments.campaign import ROA_REVOCATION_TIME

        tracker = LifespanTracker()
        lifespans = tracker.track(dumps, run.final_withdrawals,
                                  excluded_peers=run.noisy_truth)
        survivors = [ls for ls in lifespans.values()
                     if ls.is_zombie and ls.last_seen > ROA_REVOCATION_TIME
                     + 86400]
        assert survivors
