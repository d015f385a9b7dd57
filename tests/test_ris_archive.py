"""Tests for the RIS archive layout, writer and reader."""

import pytest

from repro.bgp import (
    Announcement,
    ASPath,
    PathAttributes,
    PeerState,
    StateRecord,
    UpdateRecord,
    Withdrawal,
)
from repro.mrt import RibDump
from repro.mrt.files import write_updates_file
from repro.net import Prefix
from repro.ris import Archive, ArchiveWriter, PeerRegistry, RISPeer
from repro.simulator.ribgen import generate_rib_dumps
from repro.utils.timeutil import ts

from helpers import ann, wd


def attrs(*asns):
    return PathAttributes(as_path=ASPath.of(*asns), next_hop="2001:db8::1")


def announce(time, collector, peer_addr, peer_asn, prefix, *asns):
    return UpdateRecord(time, collector, peer_addr, peer_asn,
                        Announcement(Prefix(prefix), attrs(*asns)))


def withdraw(time, collector, peer_addr, peer_asn, prefix):
    return UpdateRecord(time, collector, peer_addr, peer_asn,
                        Withdrawal(Prefix(prefix)))


BASE = ts(2024, 6, 4, 12, 0)


class TestLayout:
    def test_update_path_follows_ris_convention(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        path = writer.update_path("rrc00", ts(2024, 6, 4, 11, 45))
        assert path == tmp_path / "rrc00" / "2024.06" / "updates.20240604.1145.gz"

    def test_rib_path_follows_ris_convention(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        path = writer.rib_path("rrc25", ts(2024, 6, 5, 8, 0))
        assert path == tmp_path / "rrc25" / "2024.06" / "bview.20240605.0800.gz"

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Archive(tmp_path / "nope")


class TestWriteRead:
    def test_updates_roundtrip_across_bins(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        records = [
            announce(BASE + 10, "rrc00", "2001:db8::2", 25091,
                     "2a0d:3dc1:1145::/48", 25091, 8298, 210312),
            withdraw(BASE + 7 * 60, "rrc00", "2001:db8::2", 25091,
                     "2a0d:3dc1:1145::/48"),
            announce(BASE + 16 * 60, "rrc00", "2001:db8::2", 25091,
                     "2a0d:3dc1:1215::/48", 25091, 8298, 210312),
        ]
        paths = writer.write_updates("rrc00", records)
        assert len(paths) == 3  # three distinct 5-minute bins
        archive = Archive(tmp_path)
        decoded = list(archive.iter_updates(BASE, BASE + 3600))
        assert len(decoded) == 3
        assert [r.timestamp for r in decoded] == [BASE + 10, BASE + 7 * 60,
                                                  BASE + 16 * 60]

    def test_incremental_writes_merge(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        writer.write_updates("rrc00", [withdraw(BASE + 10, "rrc00", "::1", 1, "2001:db8::/32")])
        writer.write_updates("rrc00", [withdraw(BASE + 20, "rrc00", "::1", 1, "2001:db8::/32")])
        archive = Archive(tmp_path)
        assert len(list(archive.iter_updates(BASE, BASE + 300))) == 2

    def test_wrong_collector_rejected(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        with pytest.raises(ValueError):
            writer.write_updates("rrc00", [withdraw(BASE, "rrc01", "::1", 1, "::/0")])

    def test_window_filtering_excludes_outside_records(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        writer.write_updates("rrc00", [
            withdraw(BASE + 1, "rrc00", "::1", 1, "2001:db8::/32"),
            withdraw(BASE + 100, "rrc00", "::1", 1, "2001:db8::/32"),
        ])
        archive = Archive(tmp_path)
        # Window starts mid-bin: the earlier record is inside the same file
        # but must be filtered out.
        got = list(archive.iter_updates(BASE + 50, BASE + 300))
        assert [r.timestamp for r in got] == [BASE + 100]

    def test_update_files_includes_bin_containing_start(self, tmp_path):
        """A window starting mid-bin must include the file whose stamp
        precedes ``start`` — its tail records fall inside the window."""
        writer = ArchiveWriter(tmp_path)
        writer.write_updates("rrc00", [
            withdraw(BASE + 60, "rrc00", "::1", 1, "2001:db8::/32"),
            withdraw(BASE + 360, "rrc00", "::1", 1, "2001:db8::/32"),
        ])
        archive = Archive(tmp_path)
        # start = BASE+120 lies inside the [BASE, BASE+300) bin.
        files = archive.update_files("rrc00", BASE + 120, BASE + 600)
        assert [p.name.split(".")[2] for p in files] == ["1200", "1205"]
        # And the end boundary is exclusive on file stamps:
        assert archive.update_files("rrc00", BASE, BASE + 300) == files[:1]

    def test_multi_collector_merge_order(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        writer.write_updates("rrc01", [withdraw(BASE + 30, "rrc01", "::1", 1, "2001:db8::/32")])
        writer.write_updates("rrc00", [withdraw(BASE + 60, "rrc00", "::1", 1, "2001:db8::/32")])
        archive = Archive(tmp_path)
        got = list(archive.iter_updates(BASE, BASE + 300))
        assert [(r.timestamp, r.collector) for r in got] == [
            (BASE + 30, "rrc01"), (BASE + 60, "rrc00")]

    def test_collectors_listing(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        writer.write_updates("rrc10", [withdraw(BASE, "rrc10", "::1", 1, "::/0")])
        writer.write_updates("rrc03", [withdraw(BASE, "rrc03", "::1", 1, "::/0")])
        assert Archive(tmp_path).collectors() == ["rrc03", "rrc10"]

    def test_state_records_roundtrip(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        writer.write_updates("rrc00", [
            StateRecord(BASE + 5, "rrc00", "::1", 25091,
                        PeerState.ESTABLISHED, PeerState.IDLE)])
        archive = Archive(tmp_path)
        (rec,) = archive.iter_updates(BASE, BASE + 300)
        assert isinstance(rec, StateRecord)
        assert rec.is_session_down


class TestRibs:
    def test_rib_roundtrip(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        dump = RibDump(ts(2024, 6, 5, 0, 0), "rrc00")
        dump.add_route(Prefix("2a0d:3dc1:163::/48"), 9304, "2001:db8::9",
                       attrs(9304, 6939, 210312), ts(2024, 6, 4))
        writer.write_rib(dump)
        archive = Archive(tmp_path)
        dumps = list(archive.iter_ribs(ts(2024, 6, 4), ts(2024, 6, 6)))
        assert len(dumps) == 1
        assert dumps[0].peers_holding(Prefix("2a0d:3dc1:163::/48")) == {
            (9304, "2001:db8::9")}

    def test_rib_window_excludes_outside(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        for day in (4, 5, 6):
            writer.write_rib(RibDump(ts(2024, 6, day), "rrc00"))
        archive = Archive(tmp_path)
        got = list(archive.iter_ribs(ts(2024, 6, 5), ts(2024, 6, 6)))
        assert [d.timestamp for d in got] == [ts(2024, 6, 5)]

    def test_ribs_sorted_across_collectors(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        writer.write_rib(RibDump(ts(2024, 6, 5, 8), "rrc01"))
        writer.write_rib(RibDump(ts(2024, 6, 5, 0), "rrc25"))
        archive = Archive(tmp_path)
        got = list(archive.iter_ribs(ts(2024, 6, 5), ts(2024, 6, 6)))
        assert [d.timestamp for d in got] == [ts(2024, 6, 5, 0), ts(2024, 6, 5, 8)]


class TestDeterministicBytes:
    """Re-written gzip files are byte-identical, so archive bytes (and
    the benchmark's ``workload_hash`` over them) are stable across runs."""

    @staticmethod
    def records():
        start = ts(2024, 6, 1)
        records = []
        for i in range(8):
            records.append(ann(start + 60 * i, "2001:db8:100::/48", 25091, 3333))
            records.append(wd(start + 60 * i + 30, "2001:db8:100::/48"))
        return records

    def test_update_file_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.gz", tmp_path / "b.gz"
        write_updates_file(a, self.records())
        write_updates_file(b, self.records())
        assert a.read_bytes() == b.read_bytes()

    def test_rib_rewrite_is_byte_identical(self, tmp_path):
        start = ts(2024, 6, 1)
        dumps = list(generate_rib_dumps(self.records(), start,
                                        start + 9 * 3600))
        assert dumps
        path_a = ArchiveWriter(tmp_path / "a").write_rib(dumps[0])
        path_b = ArchiveWriter(tmp_path / "b").write_rib(dumps[0])
        assert path_a.read_bytes() == path_b.read_bytes()


class TestPeerRegistry:
    def test_add_and_lookup(self):
        registry = PeerRegistry([RISPeer("rrc25", "2001:db8::1", 211509)])
        assert registry.get("rrc25", "2001:db8::1").asn == 211509
        assert ("rrc25", "2001:db8::1") in registry

    def test_conflicting_registration_rejected(self):
        registry = PeerRegistry([RISPeer("rrc25", "::1", 1)])
        with pytest.raises(ValueError):
            registry.add(RISPeer("rrc25", "::1", 2))

    def test_idempotent_registration_ok(self):
        peer = RISPeer("rrc25", "::1", 1)
        registry = PeerRegistry([peer])
        registry.add(peer)
        assert len(registry) == 1

    def test_by_collector(self):
        registry = PeerRegistry([
            RISPeer("rrc00", "::1", 1), RISPeer("rrc01", "::2", 2)])
        assert [p.asn for p in registry.by_collector("rrc00")] == [1]
        assert registry.collectors() == {"rrc00", "rrc01"}
        assert registry.asns() == {1, 2}
