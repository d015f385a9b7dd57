"""Tests for the high-throughput archive read path: filter push-down,
parallel decode equivalence and the decoded-file cache — held to the
same oracle in both on-disk layouts (the
``*RouteViews`` classes at the bottom rerun the RIS cases unchanged)."""

import json
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from mrt_reference import split_mrt
from repro.bgp import (
    Aggregator,
    Announcement,
    ASPath,
    PathAttributes,
    PeerState,
    StateRecord,
    UpdateRecord,
    Withdrawal,
)
from repro.bgp.messages import merge_records
from repro.bgpstream import BGPStream, compile_filter
from repro.bgpstream.stream import _match_elem
from repro.mrt import RecordDecoder, RibDump, attr_codec
from repro.mrt.files import create_mrt, read_rib_file, read_updates_file
from repro.net import Prefix
from repro.ris import (
    Archive,
    ArchiveWriter,
    RecordFilter,
)
from repro.routeviews import RouteViewsArchive, RouteViewsWriter
from repro.utils.timeutil import ts

BASE = ts(2024, 6, 4, 12, 0)


def attrs6(*asns):
    return PathAttributes(as_path=ASPath.of(*asns), next_hop="2001:db8::1")


def attrs4(*asns):
    return PathAttributes(as_path=ASPath.of(*asns), next_hop="192.0.2.1")


def populate(writer):
    """Three collectors, mixed v4/v6 announcements, withdrawals and
    state changes spread over several update bins."""
    for c_index, collector in enumerate(("rrc00", "rrc01", "rrc02")):
        records = []
        for i in range(40):
            t = BASE + c_index * 3 + i * 45
            records.append(UpdateRecord(
                t, collector, "2001:db8::2", 25091,
                Announcement(Prefix(f"2a0d:3dc1:{0x1100 + i:x}::/48"),
                             attrs6(25091, 8298, 210312))))
            records.append(UpdateRecord(
                t + 1, collector, "192.0.2.9", 16347,
                Announcement(Prefix(f"84.205.{i}.0/24"), attrs4(16347, 12654))))
            if i % 5 == 0:
                records.append(UpdateRecord(
                    t + 2, collector, "2001:db8::2", 25091,
                    Withdrawal(Prefix(f"2a0d:3dc1:{0x1100 + i:x}::/48"))))
            if i % 11 == 0:
                records.append(StateRecord(
                    t + 3, collector, "2001:db8::2", 25091,
                    PeerState.ESTABLISHED, PeerState.IDLE))
        writer.write_updates(collector, records)
    return writer.root


@pytest.fixture(scope="module")
def populated_roots(tmp_path_factory):
    """The same record set written once per layout, keyed by the
    archive class that reads it back."""
    return {
        Archive: populate(ArchiveWriter(tmp_path_factory.mktemp("ris"))),
        RouteViewsArchive: populate(
            RouteViewsWriter(tmp_path_factory.mktemp("routeviews"))),
    }


@pytest.fixture()
def populated_root(populated_roots):
    return populated_roots[Archive]


class RisLayout:
    """The layout a test class runs against; its ``*RouteViews``
    subclass swaps the two classes and inherits every case."""

    writer_cls, archive_cls = ArchiveWriter, Archive

    @pytest.fixture()
    def populated_root(self, populated_roots):
        return populated_roots[self.archive_cls]


WINDOW = (BASE, BASE + 3600)

FILTERS = [
    None,
    "prefix more 2a0d:3dc1::/32",
    "prefix exact 84.205.7.0/24",
    "ipversion 4",
    "ipversion 6 and type announcements",
    "peer 16347",
    "peer 25091 and type withdrawals",
    "collector rrc01",
    "peer 64999",  # matches nothing
    # Repeated clauses of one type are ORed.
    "prefix exact 84.205.7.0/24 and prefix exact 2a0d:3dc1:1105::/48",
    "prefix more 2a0d:3dc1:1100::/44 and prefix more 84.205.8.0/21",
]


class TestParallelEquivalence(RisLayout):
    def test_parallel_sequence_identical(self, populated_root):
        sequential = self.archive_cls(populated_root, workers=1, cache_size=0)
        parallel = self.archive_cls(populated_root, workers=3, cache_size=0)
        expected = list(sequential.iter_updates(*WINDOW))
        assert expected  # the fixture produced a non-trivial window
        assert list(parallel.iter_updates(*WINDOW)) == expected

    @pytest.mark.parametrize("filter_text", FILTERS)
    def test_pushdown_equals_post_filtering(self, populated_root, filter_text):
        archive = self.archive_cls(populated_root, workers=1, cache_size=0)
        full = list(archive.iter_updates(*WINDOW))
        record_filter = compile_filter(filter_text)
        expected = [r for r in full if record_filter.matches_record(r)]
        pushed = list(archive.iter_updates(*WINDOW, record_filter=record_filter))
        assert pushed == expected
        parallel = self.archive_cls(populated_root, workers=3, cache_size=0)
        assert list(parallel.iter_updates(
            *WINDOW, record_filter=record_filter)) == expected

    def test_facade_pushdown_matches_element_filtering(self, populated_root):
        for filter_text in FILTERS[1:]:
            archive = self.archive_cls(populated_root, cache_size=0)
            elems = list(BGPStream(archive, *WINDOW, filter=filter_text))
            record_filter = compile_filter(filter_text)
            baseline = [e for e in BGPStream(archive, *WINDOW)
                        if _match_elem(record_filter, e)]
            assert elems == baseline


class TestFileIndex(RisLayout):
    """Archive-wide tools walk each layout's update files; an ``.idx``
    sidecar left by an older version of this library is never trusted."""

    def test_stale_sidecar_is_ignored(self, tmp_path):
        writer = self.writer_cls(tmp_path)
        record = one_withdrawal(0)
        (path,) = writer.write_updates("rrc00", [record])
        legacy_sidecar(path, [record])
        # A foreign writer rewrites the data file without the sidecar.
        with create_mrt(path) as handle:
            handle.write(b"")
        # The read path decodes the file (no crash, no stale data).
        archive = self.archive_cls(tmp_path)
        assert list(archive.iter_updates(BASE, BASE + 300)) == []

    def test_corrupt_sidecar_is_ignored(self, tmp_path):
        writer = self.writer_cls(tmp_path)
        (path,) = writer.write_updates("rrc00", [one_withdrawal(0)])
        path.with_name(path.name + ".idx").write_text("{not json")
        archive = self.archive_cls(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert len(list(archive.iter_updates(BASE, BASE + 300))) == 1

    def test_corrupt_archive_walks_the_layout(self, tmp_path):
        from repro.ris import corrupt_archive

        writer = self.writer_cls(tmp_path)
        (path,) = writer.write_updates("rrc00", [UpdateRecord(
            BASE + i, "rrc00", "::1", 1, Withdrawal(Prefix("2001:db8::/32")))
            for i in range(4)])
        before = path.read_bytes()
        report = corrupt_archive(tmp_path, rate=1.0, seed=0,
                                 layout=self.archive_cls.layout)
        assert report.files_seen == report.files_corrupted == 1
        assert report.destroyed == {
            str(path.relative_to(tmp_path)): [0, 1, 2, 3]}
        assert path.read_bytes() != before
        assert list(self.archive_cls(tmp_path, error_policy="skip")
                    .iter_updates(BASE, BASE + 60)) == []


class TestDecodedFileCache(RisLayout):
    def test_rescan_hits_cache(self, populated_root, monkeypatch):
        import repro.ris.archive as archive_mod

        calls = []
        real = archive_mod.read_updates_file

        def counting(path, collector, **kwargs):
            calls.append(path)
            return real(path, collector, **kwargs)

        monkeypatch.setattr(archive_mod, "read_updates_file", counting)
        archive = self.archive_cls(populated_root, cache_size=64)
        first = list(archive.iter_updates(*WINDOW))
        decode_count = len(calls)
        assert decode_count > 0
        second = list(archive.iter_updates(*WINDOW))
        assert second == first
        assert len(calls) == decode_count  # no re-decode
        assert archive.cache.hits >= decode_count

    def test_filtered_scan_served_from_cached_decode(self, populated_root,
                                                     monkeypatch):
        import repro.ris.archive as archive_mod

        calls = []
        real = archive_mod.read_updates_file

        def counting(path, collector, **kwargs):
            calls.append(path)
            return real(path, collector, **kwargs)

        monkeypatch.setattr(archive_mod, "read_updates_file", counting)
        archive = self.archive_cls(populated_root, cache_size=64)
        full = list(archive.iter_updates(*WINDOW))
        decode_count = len(calls)
        record_filter = compile_filter("ipversion 4")
        filtered = list(archive.iter_updates(*WINDOW,
                                             record_filter=record_filter))
        assert len(calls) == decode_count  # cache served the filtered scan
        assert filtered == [r for r in full if record_filter.matches_record(r)]

    def test_rewrite_invalidates_cache(self, tmp_path):
        writer = self.writer_cls(tmp_path)
        archive = self.archive_cls(tmp_path, cache_size=8)
        writer.write_updates("rrc00", [
            UpdateRecord(BASE, "rrc00", "::1", 1,
                         Withdrawal(Prefix("2001:db8::/32")))])
        assert len(list(archive.iter_updates(BASE, BASE + 300))) == 1
        writer.write_updates("rrc00", [
            UpdateRecord(BASE + 10, "rrc00", "::1", 1,
                         Withdrawal(Prefix("2001:db8::/32")))])
        assert len(list(archive.iter_updates(BASE, BASE + 300))) == 2


#: Prefixes the populated archive holds (v6 ones with withdrawals) and
#: one it does not.
TABLE_PREFIXES = ([Prefix(f"2a0d:3dc1:{0x1100 + i:x}::/48") for i in (0, 5, 7, 39)]
                  + [Prefix(f"84.205.{i}.0/24") for i in (0, 7, 21)]
                  + [Prefix("2001:db8::/32")])

prefix_filters = st.builds(
    RecordFilter,
    prefix_exact=st.frozensets(st.sampled_from(TABLE_PREFIXES),
                               min_size=1, max_size=3),
    collectors=st.frozensets(st.sampled_from(["rrc00", "rrc01", "rrc02"]),
                             max_size=2),
    peers=st.frozensets(st.sampled_from([25091, 16347, 64999]), max_size=2),
    elem_types=st.frozensets(st.sampled_from(["A", "W"]), max_size=1))


def one_withdrawal(offset, peer_asn=1):
    return UpdateRecord(BASE + offset, "rrc00", "::1", peer_asn,
                        Withdrawal(Prefix("2001:db8::/32")))


class TestPerFileTable(RisLayout):
    """The archive's per-file state: one stat per file and scan checked
    against the decode cache, cached decodes grouped by prefix, listings
    never kept."""

    def test_prefix_scans_equal_brute_force(self, populated_root):
        full = list(self.archive_cls(populated_root, cache_size=0)
                    .iter_updates(*WINDOW))
        warm = self.archive_cls(populated_root, cache_size=64)
        assert list(warm.iter_updates(*WINDOW)) == full

        @settings(max_examples=40, derandomize=True, deadline=None)
        @given(record_filter=prefix_filters)
        def check(record_filter):
            expected = [r for r in full if record_filter.matches_record(r)]
            assert list(warm.iter_updates(
                *WINDOW, record_filter=record_filter)) == expected
            cold = self.archive_cls(populated_root, cache_size=0)
            assert list(cold.iter_updates(
                *WINDOW, record_filter=record_filter)) == expected

        check()

    def test_pooled_rescan_with_one_file_cache(self, tmp_path):
        """A cache hit queued behind a pooled decode survives the put
        of that decode, which evicts it from a one-file cache."""
        writer = self.writer_cls(tmp_path)
        for offset in (0, 3600):
            writer.write_updates("rrc00", [one_withdrawal(offset)])
        window = (BASE, BASE + 7200)
        sequential = self.archive_cls(tmp_path, cache_size=0)
        pooled = self.archive_cls(tmp_path, workers=2, cache_size=1)
        for text in (None, "prefix exact 2001:db8::/32"):
            record_filter = compile_filter(text) if text else None
            expected = list(sequential.iter_updates(
                *window, record_filter=record_filter))
            assert len(expected) == 2
            for _ in range(2):
                assert list(pooled.iter_updates(
                    *window, record_filter=record_filter)) == expected
        assert pooled.cache.hits > 0 and pooled.cache.evictions > 0

    def test_file_written_after_a_scan_is_seen(self, tmp_path):
        writer = self.writer_cls(tmp_path)
        writer.write_updates("rrc00", [one_withdrawal(0)])
        archive = self.archive_cls(tmp_path)
        assert len(list(archive.iter_updates(BASE, BASE + 7200))) == 1
        writer.write_updates("rrc00", [one_withdrawal(3600)])
        assert [r.timestamp for r in archive.iter_updates(
            BASE, BASE + 7200)] == [BASE, BASE + 3600]

    def test_listing_is_the_sorted_glob(self, tmp_path):
        """The scandir walk lists what ``sorted(Path.glob)`` lists, in
        its order: foreign and hidden names, several months and
        collectors, ``.idx`` files excluded."""
        layout = self.archive_cls.layout
        writer = self.writer_cls(tmp_path)
        for collector in ("rrc01", "rrc00", "rrc10", ".rrc09"):
            for month_offset in (0, 40 * 86400):
                writer.write_updates(collector, [UpdateRecord(
                    BASE + month_offset + offset, collector, "::1", 1,
                    Withdrawal(Prefix("2001:db8::/32")))
                    for offset in (0, 700, 5000)])
        (path,) = writer.write_updates("rrc00", [one_withdrawal(0)])
        path.with_name(path.name + ".idx").write_text("{}")
        foreign = path.with_name(f"updates.tmp{path.suffix}")
        foreign.write_bytes(b"")
        (tmp_path / "stray").write_bytes(b"")
        for template in (layout.updates, layout.ribs):
            pattern = template.format(collector="*", month="*", stamp="*")
            assert layout.files(tmp_path, template) == sorted(
                tmp_path.glob(pattern))
        listed = layout.files(tmp_path, layout.updates)
        assert foreign in listed and len(listed) > 12


class TestForeignFiles(RisLayout):
    def test_foreign_files_skipped_with_warning(self, tmp_path):
        writer = self.writer_cls(tmp_path)
        (path,) = writer.write_updates("rrc00", [
            UpdateRecord(BASE, "rrc00", "::1", 1,
                         Withdrawal(Prefix("2001:db8::/32")))])
        path.with_name(f"updates.tmp{path.suffix}").write_bytes(b"junk")
        path.with_name(
            f"updates.not-a-date.0000.extra{path.suffix}").write_bytes(b"junk")
        archive = self.archive_cls(tmp_path, cache_size=0)
        with pytest.warns(RuntimeWarning, match="non-archive file"):
            records = list(archive.iter_updates(BASE, BASE + 300))
        assert len(records) == 1

    def test_foreign_file_hook_override(self, tmp_path):
        writer = self.writer_cls(tmp_path)
        (path,) = writer.write_updates("rrc00", [
            UpdateRecord(BASE, "rrc00", "::1", 1,
                         Withdrawal(Prefix("2001:db8::/32")))])
        path.with_name(f"updates.tmp{path.suffix}").write_bytes(b"junk")
        seen = []
        archive = self.archive_cls(tmp_path, cache_size=0,
                          on_foreign_file=seen.append)
        assert len(list(archive.iter_updates(BASE, BASE + 300))) == 1
        assert [p.name for p in seen] == [f"updates.tmp{path.suffix}"]

    def test_sidecars_never_parsed_as_archive_files(self, tmp_path):
        """Archives written by older versions of this library carry a
        JSON ``.idx`` sidecar next to every data file.  Fresh, stale or
        corrupt, they are neither listed, warned about nor read: the
        archive reads back what one without them reads."""
        records = [one_withdrawal(offset, peer_asn)
                   for offset in (0, 10, 1000, 2000) for peer_asn in (1, 2)]
        dump = RibDump(BASE, "rrc00")
        dump.add_route(Prefix("84.205.64.0/24"), 16347, "192.0.2.9",
                       attrs4(16347, 12654), BASE - 3600)
        roots = tmp_path / "plain", tmp_path / "legacy"
        for root in roots:  # ``written`` and ``bview`` end on the legacy copy
            writer = self.writer_cls(root)
            written = writer.write_updates("rrc00", records)
            bview = writer.write_rib(dump)
        assert len(written) == 3
        fresh, stale, corrupt = written
        legacy_sidecar(fresh, records[:4])
        # A sidecar of an older version of the file, holding peer 1 only.
        legacy_sidecar(stale, records[4:5], file_size=1)
        corrupt.with_name(corrupt.name + ".idx").write_text("{not json")
        legacy_sidecar(bview, [UpdateRecord(
            BASE, "rrc00", "192.0.2.9", 16347,
            Announcement(Prefix("84.205.64.0/24"), attrs4(16347, 12654)))])
        window = (BASE, BASE + 2700)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plain, legacy = (self.archive_cls(root) for root in roots)
            assert legacy.update_files("rrc00", *window) == written
            for record_filter in (None, RecordFilter(peers=frozenset({2})),
                                  compile_filter("ipversion 4")):
                expected = list(plain.iter_updates(
                    *window, record_filter=record_filter))
                assert list(legacy.iter_updates(
                    *window, record_filter=record_filter)) == expected
            assert len(list(legacy.iter_updates(*window))) == len(records)
            assert list(legacy.iter_ribs(*window)) == list(
                plain.iter_ribs(*window))


def legacy_sidecar(path, records, **overrides):
    """The JSON ``.idx`` sidecar older versions of this library wrote
    next to ``path``: a summary of its update ``records``, with
    ``file_size`` and ``file_mtime_ns`` naming the file version it
    described."""
    stat = path.stat()
    announced = sum(1 for record in records if record.is_announcement)
    stamps = [record.timestamp for record in records]
    payload = {"version": 1, "file_size": stat.st_size,
               "file_mtime_ns": stat.st_mtime_ns,
               "record_count": len(records), "announce_count": announced,
               "withdraw_count": len(records) - announced, "state_count": 0,
               "min_timestamp": min(stamps), "max_timestamp": max(stamps),
               "peer_asns": sorted({record.peer_asn for record in records}),
               "afis": sorted({record.prefix.afi for record in records}),
               **overrides}
    path.with_name(path.name + ".idx").write_text(json.dumps(payload))


class TestPrematchWalker:
    def test_walker_yields_all_prefixes(self, populated_root):
        archive = Archive(populated_root, cache_size=0)
        for path in archive.update_files("rrc00", *WINDOW)[:3]:
            decoded_prefixes = set()
            for record in read_updates_file(path, "rrc00"):
                if isinstance(record, UpdateRecord):
                    decoded_prefixes.add(record.prefix)
            walked = set()
            for header, body in split_mrt(path):
                walked.update(RecordDecoder().update_prefixes(header, body))
            # The walker is a (cheap) superset of the decoded prefixes.
            assert decoded_prefixes <= walked


def write_ribs(writer, peers=24, dumps=3):
    """``dumps`` 8-hourly bviews per collector, each of one collector
    holding the same peer index table."""
    for collector in ("rrc00", "rrc01"):
        for index in range(dumps):
            dump = RibDump(BASE + index * 8 * 3600, collector)
            for peer in range(peers):
                dump.add_route(Prefix(f"84.205.{peer}.0/24"), 64500 + peer,
                               f"2001:db8::{peer + 1:x}",
                               attrs4(64500 + peer, 12654), BASE)
            writer.write_rib(dump)


def per_file_reads(root, archive_cls, window, record_filter=None):
    """The window as per-file reads, each on a fresh decoder, merged."""
    listing = archive_cls(root, cache_size=0)
    streams = [[record for path in listing.update_files(collector, *window)
                for record in read_updates_file(path, collector,
                                                record_filter=record_filter)]
               for collector in listing.collectors()]
    return [record for record in merge_records(streams)
            if window[0] <= record.timestamp < window[1]]


def per_file_ribs(root, archive_cls, window):
    listing = archive_cls(root, cache_size=0)
    paths = [path for collector in listing.collectors()
             for path in listing._files(listing.layout.ribs, collector, *window)]
    return [read_rib_file(path) for _, path in sorted(paths)]


def intern_tables(decoder):
    """Every intern table of ``decoder``."""
    tables = []
    for value in vars(decoder).values():
        tables += value if isinstance(value, tuple) else [value]
    return tables


class TestArchiveDecodeScope(RisLayout):
    """One decoder per archive: its files share intern tables, and what
    it returns is what per-file reads on fresh decoders return."""

    RIB_WINDOW = (BASE, BASE + 3 * 8 * 3600)

    def test_archive_equals_per_file_reads(self, tmp_path):
        root = populate(self.writer_cls(tmp_path))
        write_ribs(self.writer_cls(tmp_path))
        archive = self.archive_cls(root, cache_size=0)
        for text in (None, "prefix exact 84.205.7.0/24", "peer 16347"):
            record_filter = compile_filter(text) if text else None
            expected = per_file_reads(root, self.archive_cls, WINDOW,
                                      record_filter)
            assert expected
            assert list(archive.iter_updates(
                *WINDOW, record_filter=record_filter)) == expected
        expected = per_file_ribs(root, self.archive_cls, self.RIB_WINDOW)
        assert len(expected) == 6
        assert list(archive.iter_ribs(*self.RIB_WINDOW)) == expected

    def test_each_dump_owns_its_peer_list(self, tmp_path):
        write_ribs(self.writer_cls(tmp_path))
        archive = self.archive_cls(tmp_path)
        first, *others = archive.iter_ribs(*self.RIB_WINDOW)
        before = [list(dump.peers) for dump in others]
        assert first.peer_index(65535, "2001:db8::ffff") == 24
        assert [dump.peers for dump in others] == before
        again = list(archive.iter_ribs(*self.RIB_WINDOW))
        assert len(again[0].peers) == 24
        assert again == per_file_ribs(tmp_path, self.archive_cls,
                                      self.RIB_WINDOW)

    def test_a_new_archive_starts_cold(self, populated_root):
        warm = self.archive_cls(populated_root)
        list(warm.iter_updates(*WINDOW))
        assert any(intern_tables(warm.decoder))
        cold = self.archive_cls(populated_root)
        assert cold.decoder is not warm.decoder
        assert not any(intern_tables(cold.decoder))

    def test_tables_stay_under_the_cap(self, tmp_path, monkeypatch):
        cap = 4
        monkeypatch.setattr(attr_codec, "INTERN_LIMIT", cap)
        records = [UpdateRecord(
            BASE + i * 150, "rrc00", f"192.0.2.{i + 1}", 64500 + i,
            Announcement(Prefix(f"84.205.{i}.0/24"), PathAttributes(
                as_path=ASPath.of(64500 + i, 12654), next_hop=f"10.1.{i}.1",
                aggregator=Aggregator(12654, f"10.0.{i}.1"))))
            for i in range(12)]  # 12 distinct values in every table
        writer = self.writer_cls(tmp_path)
        writer.write_updates("rrc00", records)
        write_ribs(writer, peers=1, dumps=2 * cap)  # as many peer tables
        archive = self.archive_cls(tmp_path, cache_size=0)
        window = (BASE, BASE + 3600)
        expected = per_file_reads(tmp_path, self.archive_cls, window)
        assert expected == records
        ribs = per_file_ribs(tmp_path, self.archive_cls, (BASE, BASE + 4 * 86400))
        for _ in range(2):  # decodes stay identical after the tables reset
            got = []
            for record in archive.iter_updates(*window):
                got.append(record)
                assert max(map(len, intern_tables(archive.decoder))) <= cap
            assert got == expected
            got = []
            for dump in archive.iter_ribs(BASE, BASE + 4 * 86400):
                got.append(dump)
                assert max(map(len, intern_tables(archive.decoder))) <= cap
            assert got == ribs

    def test_threads_share_one_archive(self, populated_root, monkeypatch):
        """Threads scanning one ``Archive`` while its tables keep
        resetting each get what per-file reads give."""
        monkeypatch.setattr(attr_codec, "INTERN_LIMIT", 4)
        expected = per_file_reads(populated_root, self.archive_cls, WINDOW)
        archive = self.archive_cls(populated_root, cache_size=0)
        results = [None] * 4

        def scan(index):
            results[index] = list(archive.iter_updates(*WINDOW))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scan, args=(index,))
                       for index in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * len(results)


class TestArchiveStats:
    def test_cache_stats_track_hits_misses_evictions(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        for offset in range(3):
            writer.write_updates("rrc00", [
                UpdateRecord(BASE + offset * 3600, "rrc00", "::1", 1,
                             Withdrawal(Prefix("2001:db8::/32")))])
        archive = Archive(tmp_path, cache_size=2)
        list(archive.iter_updates(BASE, BASE + 3 * 3600))
        stats = archive.cache.stats()
        assert stats["misses"] == 3
        assert stats["hits"] == 0
        assert stats["evictions"] == 1  # 3 files through a 2-slot cache
        assert stats["entries"] == 2
        assert stats["max_files"] == 2
        assert stats["hit_rate"] == 0.0
        # Rescan only the two most-recent files: both are still cached.
        list(archive.iter_updates(BASE + 3600, BASE + 3 * 3600))
        stats = archive.cache.stats()
        assert stats["hits"] == 2
        assert 0.0 < stats["hit_rate"] < 1.0

    def test_clear_resets_counters(self, tmp_path):
        writer = ArchiveWriter(tmp_path)
        writer.write_updates("rrc00", [
            UpdateRecord(BASE, "rrc00", "::1", 1,
                         Withdrawal(Prefix("2001:db8::/32")))])
        archive = Archive(tmp_path, cache_size=4)
        list(archive.iter_updates(BASE, BASE + 300))
        archive.cache.clear()
        stats = archive.cache.stats()
        assert stats == {"entries": 0, "max_files": 4, "hits": 0,
                         "misses": 0, "evictions": 0, "hit_rate": 0.0}

    def test_archive_stats_shape_and_scan_counters(self, populated_root):
        archive = Archive(populated_root, cache_size=16)
        list(archive.iter_updates(
            *WINDOW, record_filter=compile_filter("ipversion 6")))
        stats = archive.stats()
        assert stats["root"] == str(populated_root)
        assert stats["scan"]["files_considered"] > 0
        assert stats["scan"]["files_considered"] == (
            stats["scan"]["files_skipped"] + stats["scan"]["files_decoded"])
        assert stats["cache"]["misses"] >= stats["scan"]["files_decoded"] > 0

    def test_archive_stats_without_cache(self, tmp_path):
        archive = Archive(tmp_path, cache_size=0)
        assert archive.stats()["cache"] is None


class TestParallelEquivalenceRouteViews(TestParallelEquivalence):
    writer_cls, archive_cls = RouteViewsWriter, RouteViewsArchive


class TestFileIndexRouteViews(TestFileIndex):
    writer_cls, archive_cls = RouteViewsWriter, RouteViewsArchive


class TestDecodedFileCacheRouteViews(TestDecodedFileCache):
    writer_cls, archive_cls = RouteViewsWriter, RouteViewsArchive


class TestPerFileTableRouteViews(TestPerFileTable):
    writer_cls, archive_cls = RouteViewsWriter, RouteViewsArchive


class TestForeignFilesRouteViews(TestForeignFiles):
    writer_cls, archive_cls = RouteViewsWriter, RouteViewsArchive


class TestArchiveDecodeScopeRouteViews(TestArchiveDecodeScope):
    writer_cls, archive_cls = RouteViewsWriter, RouteViewsArchive


class TestLayoutsAgree:
    @pytest.mark.parametrize("filter_text", FILTERS)
    def test_both_layouts_read_back_the_same_sequence(self, populated_roots,
                                                      filter_text):
        record_filter = compile_filter(filter_text)
        ris, routeviews = (
            list(archive_cls(root, cache_size=0).iter_updates(
                *WINDOW, record_filter=record_filter))
            for archive_cls, root in populated_roots.items())
        assert ris == routeviews
        assert bool(ris) == (filter_text != "peer 64999")

    def test_second_batch_into_an_existing_bin_is_merged(self, tmp_path):
        """A RouteViews bin written twice keeps both batches in one
        file, exactly like a RIS bin."""
        writer = RouteViewsWriter(tmp_path)
        first, second = (
            UpdateRecord(BASE + offset, "route-views2", "::1", 1,
                         Withdrawal(Prefix("2001:db8::/32")))
            for offset in (10, 700))
        (path,) = writer.write_updates("route-views2", [second])
        assert writer.write_updates("route-views2", [first]) == [path]
        archive = RouteViewsArchive(tmp_path)
        assert list(archive.iter_updates(BASE, BASE + 900)) == [first, second]
        assert len(list(read_updates_file(path, "route-views2"))) == 2
