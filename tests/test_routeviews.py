"""Tests for the RouteViews substrate and combined-platform streaming."""

import pytest

from repro.bgp import Announcement, ASPath, PathAttributes, UpdateRecord, Withdrawal
from repro.bgp.messages import merge_records
from repro.core import DetectorConfig, ZombieDetector
from repro.net import Prefix
from repro.ris import Archive, ArchiveWriter
from repro.routeviews import RouteViewsArchive, RouteViewsWriter
from repro.utils.timeutil import ts

BASE = ts(2024, 6, 4, 12, 0)
P = Prefix("2a0d:3dc1:1200::/48")


def attrs(*asns):
    return PathAttributes(as_path=ASPath.of(*asns), next_hop="2001:db8::1")


def rv_ann(time, collector="route-views2", peer_asn=3356,
           addr="2001:db8:rv::1".replace("rv", "aa")):
    return UpdateRecord(time, collector, addr, peer_asn,
                        Announcement(P, attrs(peer_asn, 210312)))


def rv_wd(time, collector="route-views2", peer_asn=3356,
          addr="2001:db8:aa::1"):
    return UpdateRecord(time, collector, addr, peer_asn, Withdrawal(P))


class TestLayout:
    def test_update_path_convention(self, tmp_path):
        writer = RouteViewsWriter(tmp_path)
        path = writer.update_path("route-views2", ts(2024, 6, 4, 11, 45))
        assert path == (tmp_path / "route-views2" / "bgpdata" / "2024.06"
                        / "UPDATES" / "updates.20240604.1145.bz2")

    def test_fifteen_minute_bins(self, tmp_path):
        writer = RouteViewsWriter(tmp_path)
        paths = writer.write_updates("route-views2", [
            rv_ann(BASE + 60), rv_wd(BASE + 16 * 60)])
        assert len(paths) == 2  # two 15-minute bins

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RouteViewsArchive(tmp_path / "nope")

    def test_wrong_collector_rejected(self, tmp_path):
        writer = RouteViewsWriter(tmp_path)
        with pytest.raises(ValueError):
            writer.write_updates("route-views2", [rv_ann(BASE, collector="rrc00")])


class TestRoundtrip:
    def test_write_read(self, tmp_path):
        writer = RouteViewsWriter(tmp_path)
        writer.write_updates("route-views2", [rv_ann(BASE + 5),
                                              rv_wd(BASE + 700)])
        archive = RouteViewsArchive(tmp_path)
        assert archive.collectors() == ["route-views2"]
        records = list(archive.iter_updates(BASE, BASE + 3600))
        assert [r.timestamp for r in records] == [BASE + 5, BASE + 700]
        assert records[0].is_announcement
        assert records[1].is_withdrawal

    def test_window_filtering(self, tmp_path):
        writer = RouteViewsWriter(tmp_path)
        writer.write_updates("route-views2", [rv_ann(BASE + 5),
                                              rv_ann(BASE + 500)])
        archive = RouteViewsArchive(tmp_path)
        records = list(archive.iter_updates(BASE + 100, BASE + 3600))
        assert [r.timestamp for r in records] == [BASE + 500]

    def test_multi_collector_merge(self, tmp_path):
        writer = RouteViewsWriter(tmp_path)
        writer.write_updates("route-views2", [rv_ann(BASE + 50)])
        writer.write_updates("route-views3",
                             [rv_ann(BASE + 20, collector="route-views3")])
        archive = RouteViewsArchive(tmp_path)
        records = list(archive.iter_updates(BASE, BASE + 3600))
        assert [r.collector for r in records] == ["route-views3",
                                                  "route-views2"]


class TestCombinedPlatforms:
    @pytest.fixture()
    def both_archives(self, tmp_path):
        ris_root = tmp_path / "ris"
        rv_root = tmp_path / "rv"
        ris_writer = ArchiveWriter(ris_root)
        ris_writer.write_updates("rrc00", [
            UpdateRecord(BASE + 10, "rrc00", "2001:db8::2", 25091,
                         Announcement(P, attrs(25091, 210312)))])
        rv_writer = RouteViewsWriter(rv_root)
        rv_writer.write_updates("route-views2", [rv_ann(BASE + 30)])
        return Archive(ris_root), RouteViewsArchive(rv_root)

    def test_merged_stream_time_order(self, both_archives):
        ris, rv = both_archives
        records = list(merge_records(
            archive.iter_updates(BASE, BASE + 3600) for archive in (ris, rv)))
        assert [r.timestamp for r in records] == [BASE + 10, BASE + 30]
        assert {r.collector for r in records} == {"rrc00", "route-views2"}

    def test_detector_over_combined_stream(self, both_archives):
        """The §6 combination: a zombie visible only from a RouteViews
        peer is missed by RIS-only detection and caught by the union."""
        from helpers import interval

        ris, rv = both_archives
        iv = interval(str(P), BASE, BASE + 900)
        detector = ZombieDetector(DetectorConfig())
        ris_only = detector.detect(list(ris.iter_updates(BASE, BASE + 7200)),
                                   [iv])
        combined = detector.detect(list(merge_records(
            archive.iter_updates(BASE, BASE + 7200) for archive in (ris, rv))),
            [iv])
        # Both peers are stuck (no withdrawals recorded at all).
        assert ris_only.outbreaks[0].size == 1
        assert combined.outbreaks[0].size == 2
        assert {p for p in combined.outbreaks[0].peer_asns} == {25091, 3356}
