"""Tests for the poison-record containment layer (repro.mrt.resilient)
and its threading through the archive read path, in both on-disk
layouts (the ``*RouteViews`` classes rerun the RIS cases on bzip2)."""

import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import ann, attrs, sess_down, wd
from mrt_reference import split_mrt
from repro.mrt import (
    DecodeStats,
    RibDump,
    ErrorPolicy,
    MRTDecodeError,
    QuarantineWriter,
    decode_bgp4mp,
    decode_mrt_header,
    plausible_header,
    quarantine_path,
    read_quarantine,
    read_rib_file,
    read_updates_file,
    write_updates_file,
)
from repro.mrt.bgp4mp import MRTRecordHeader
from repro.mrt.constants import (
    BGP4MP_MESSAGE_AS4,
    MRT_BGP4MP,
    MRT_TABLE_DUMP_V2,
    TDV2_RIB_IPV6_UNICAST,
)
from repro.mrt.resilient import _CHUNK, MAX_RECORD_LENGTH
from repro.net import Prefix
from repro.mrt.files import create_mrt, open_mrt
from repro.ris import Archive, ArchiveWriter, RecordFilter
from repro.ris.chaos import _poison_record
from repro.ris.parallel import decode_file
from repro.routeviews import RouteViewsArchive, RouteViewsWriter

_MRT_HDR = struct.Struct("!IHHI")

T0 = 1717500000


def records_for_file(n=8):
    out = []
    for i in range(n):
        out.append(ann(T0 + 60 * i, f"2a0d:3dc1:{0x1000 + i:x}::/48",
                       25091, 8298, 210312))
    out.append(wd(T0 + 60 * n, "2a0d:3dc1:1000::/48"))
    out.append(sess_down(T0 + 60 * (n + 1)))
    return out


def raw_stream(path):
    with open_mrt(path) as handle:
        return handle.read()


def rewrite(path, payload):
    with create_mrt(path) as handle:
        handle.write(payload)


def raw_records(path):
    return split_mrt(path)


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "updates.20240604.0800.gz"
    write_updates_file(path, records_for_file())
    return path


class RisLayout:
    """The layout a test class runs against; its ``*RouteViews``
    subclass swaps the two classes and inherits every case."""

    writer_cls, archive_cls = ArchiveWriter, Archive

    @pytest.fixture()
    def clean_file(self, tmp_path):
        """One updates file where the layout puts it under ``tmp_path``."""
        path = self.writer_cls(tmp_path).update_path("rrc00", T0)
        write_updates_file(path, records_for_file())
        return path


class TestPlausibleHeader:
    def test_real_headers_are_plausible(self, clean_file):
        for header, body in raw_records(clean_file):
            packed = _MRT_HDR.pack(header.timestamp, header.mrt_type,
                                   header.subtype, header.length) + body
            assert plausible_header(packed)

    def test_unknown_type_rejected(self):
        assert not plausible_header(_MRT_HDR.pack(T0, 99, 4, 100))

    def test_unknown_subtype_rejected(self):
        assert not plausible_header(_MRT_HDR.pack(T0, MRT_BGP4MP, 77, 100))

    def test_absurd_length_rejected(self):
        assert not plausible_header(_MRT_HDR.pack(T0, MRT_BGP4MP, 4, 1 << 24))

    def test_timestamp_outside_sane_window_rejected(self):
        assert not plausible_header(_MRT_HDR.pack(1000, MRT_BGP4MP, 4, 100))

    def test_short_buffer_rejected(self):
        assert not plausible_header(b"\x00" * 11)

    def test_garbage_filler_never_plausible(self):
        junk = b"\xde\xad" * 32
        assert not any(plausible_header(junk, i) for i in range(len(junk)))


class TestErrorPolicy:
    def test_known_policies_validate(self):
        for policy in ErrorPolicy.ALL:
            assert ErrorPolicy.validate(policy) == policy

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown error policy"):
            ErrorPolicy.validate("yolo")


class TestDecodeStats:
    def test_merge_accepts_stats_and_dicts(self):
        a = DecodeStats(records_decoded=3, records_skipped=1, resyncs=2)
        a.merge(DecodeStats(records_decoded=2, bytes_skipped=10))
        a.merge({"records_decoded": 1, "records_skipped": 4,
                 "bytes_skipped": 0, "bytes_quarantined": 7, "resyncs": 0,
                 "stream_errors": 1, "files_with_errors": 1})
        assert a.records_decoded == 6
        assert a.records_skipped == 5
        assert a.bytes_skipped == 10
        assert a.bytes_quarantined == 7
        assert a.stream_errors == 1

    def test_clean_reflects_containment(self):
        assert DecodeStats(records_decoded=100).clean
        assert not DecodeStats(records_skipped=1).clean
        assert not DecodeStats(stream_errors=1).clean


class TestQuarantineSidecar:
    def test_writer_is_lazy(self, tmp_path):
        side = tmp_path / "x.quarantine"
        with QuarantineWriter(side):
            pass
        assert not side.exists()

    def test_round_trip(self, tmp_path):
        side = tmp_path / "x.quarantine"
        with QuarantineWriter(side) as writer:
            writer.add(0, b"alpha")
            writer.add(131, b"beta!")
        assert read_quarantine(side) == [(0, b"alpha"), (131, b"beta!")]

    def test_torn_final_chunk_dropped(self, tmp_path):
        side = tmp_path / "x.quarantine"
        with QuarantineWriter(side) as writer:
            writer.add(0, b"alpha")
            writer.add(131, b"beta!")
        data = side.read_bytes()
        side.write_bytes(data[:-3])
        assert read_quarantine(side) == [(0, b"alpha")]

    def test_rejects_foreign_file(self, tmp_path):
        other = tmp_path / "notes.txt"
        other.write_bytes(b"hello world")
        with pytest.raises(ValueError, match="not a quarantine sidecar"):
            read_quarantine(other)


class TestTolerantDecode(RisLayout):
    def test_clean_file_identical_across_policies(self, clean_file):
        base = list(read_updates_file(clean_file, "rrc00"))
        for policy in ("strict", "skip", "quarantine"):
            assert list(read_updates_file(clean_file, "rrc00",
                                          error_policy=policy)) == base
        assert not quarantine_path(clean_file).exists()

    def test_marker_flip_costs_exactly_one_record(self, clean_file, tmp_path):
        raws = raw_records(clean_file)
        pieces = []
        for position, (header, body) in enumerate(raws):
            if position == 3:
                body = _poison_record(header, body)
            pieces.append(_MRT_HDR.pack(header.timestamp, header.mrt_type,
                                        header.subtype, header.length) + body)
        rewrite(clean_file, b"".join(pieces))
        stats = DecodeStats()
        survivors = list(read_updates_file(clean_file, "rrc00",
                                           error_policy="skip", stats=stats))
        clean = []
        for position, (header, body) in enumerate(raws):
            if position != 3:
                clean.extend(decode_bgp4mp(header, body, "rrc00"))
        assert survivors == clean
        assert stats.records_skipped == 1
        assert stats.resyncs == 0  # structurally intact, no scan needed
        # The archive class threads the policy through unchanged.
        archive = self.archive_cls(tmp_path, error_policy="skip")
        assert list(archive.iter_updates(T0, T0 + 3600)) == clean
        assert archive.decode_stats.records_skipped == 1

    def test_resync_after_garbage_recovers_everything(self, clean_file):
        raws = raw_records(clean_file)
        garbage = b"\xde\xad" * 17
        pieces = []
        for position, (header, body) in enumerate(raws):
            if position == 2:
                pieces.append(garbage)
            pieces.append(_MRT_HDR.pack(header.timestamp, header.mrt_type,
                                        header.subtype, header.length) + body)
        rewrite(clean_file, b"".join(pieces))
        stats = DecodeStats()
        survivors = list(read_updates_file(clean_file, "rrc00",
                                           error_policy="skip", stats=stats))
        clean = [r for header, body in raws
                 for r in decode_bgp4mp(header, body, "rrc00")]
        assert survivors == clean  # nothing lost, only garbage dropped
        assert stats.resyncs == 1
        assert stats.bytes_skipped == len(garbage)
        assert stats.records_skipped == 0

    def test_torn_mid_record_truncation(self, clean_file):
        payload = raw_stream(clean_file)
        raws = raw_records(clean_file)
        last_len = 12 + raws[-1][0].length
        # Cut mid-way through the final record's body.
        rewrite(clean_file, payload[:len(payload) - last_len + 20])
        stats = DecodeStats()
        survivors = list(read_updates_file(clean_file, "rrc00",
                                           error_policy="skip", stats=stats))
        clean = [r for header, body in raws[:-1]
                 for r in decode_bgp4mp(header, body, "rrc00")]
        assert survivors == clean
        assert stats.resyncs == 1  # the torn tail triggered one scan
        assert stats.bytes_skipped == 20
        assert stats.files_with_errors == 1

    def test_strict_policy_still_fails_fast(self, clean_file):
        payload = raw_stream(clean_file)
        rewrite(clean_file, payload[:len(payload) - 30])
        with pytest.raises(MRTDecodeError, match=str(clean_file)):
            list(read_updates_file(clean_file, "rrc00",
                                   error_policy="strict"))

    def test_torn_compressed_stream(self, clean_file):
        blob = clean_file.read_bytes()
        clean_file.write_bytes(blob[:len(blob) * 2 // 3])
        with pytest.raises(MRTDecodeError, match="compressed stream"):
            list(read_updates_file(clean_file, "rrc00",
                                   error_policy="strict"))
        stats = DecodeStats()
        list(read_updates_file(clean_file, "rrc00", stats=stats))
        assert stats.stream_errors == 1
        assert stats.files_with_errors == 1

    def test_unknown_policy_rejected(self, clean_file):
        with pytest.raises(ValueError, match="unknown error policy"):
            list(read_updates_file(clean_file, "rrc00", error_policy="maybe"))


class TestDefaultPolicy(RisLayout):
    def test_default_read_counts_a_poisoned_record(self, clean_file):
        # A plausible header over a flipped BGP marker: the default
        # policy drops the record *and says so*.
        raws = raw_records(clean_file)
        rewrite(clean_file, b"".join(
            _MRT_HDR.pack(h.timestamp, h.mrt_type, h.subtype, h.length)
            + (_poison_record(h, b) if position == 3 else b)
            for position, (h, b) in enumerate(raws)))
        stats = DecodeStats()
        survivors = list(read_updates_file(clean_file, "rrc00", stats=stats))
        assert stats.records_skipped == 1
        assert len(survivors) == sum(
            len(decode_bgp4mp(h, b, "rrc00"))
            for position, (h, b) in enumerate(raws) if position != 3)


class TestBoundaryTimestamp(RisLayout):
    """A boundary header frames its record whatever its timestamp: only
    the resync scan demands the 1990-2100 window, so a record stamped
    outside it is yielded as it is, not contained."""

    def test_updates_record_out_of_window_is_yielded(self, clean_file,
                                                     tmp_path):
        raws = raw_records(clean_file)
        rewrite(clean_file, b"".join(
            _MRT_HDR.pack(1000 if position == 3 else h.timestamp,
                          h.mrt_type, h.subtype, h.length) + b
            for position, (h, b) in enumerate(raws)))
        expected = [record for position, (h, b) in enumerate(raws)
                    for record in decode_bgp4mp(MRTRecordHeader(
                        1000 if position == 3 else h.timestamp,
                        h.mrt_type, h.subtype, h.length), b, "rrc00")]
        stats = DecodeStats()
        assert list(read_updates_file(clean_file, "rrc00",
                                      stats=stats)) == expected
        assert stats.clean and stats.records_decoded == len(raws)
        # ... and the archive's [start, end) window, not the reader,
        # is what leaves it out of a scan.
        archive = self.archive_cls(tmp_path)
        assert 1000 not in [r.timestamp for r in archive.iter_updates(
            T0, T0 + 3600)]
        assert archive.decode_stats.clean

    def test_bview_stamped_out_of_window_decodes(self, tmp_path):
        path = self.writer_cls(tmp_path).write_rib(rib_dump(100))
        stats = DecodeStats()
        dump = read_rib_file(path, stats=stats)
        assert (dump.timestamp, len(dump.entries)) == (100, 4)
        assert stats.clean and stats.records_decoded == 5


def rib_dump(timestamp, n=4):
    dump = RibDump(timestamp, "rrc00")
    for i in range(n):
        dump.add_route(Prefix(f"2a0d:3dc1:{0x2000 + i:x}::/48"), 25091,
                       "2001:db8::2", attrs(25091, 8298, 210312),
                       timestamp - 60)
    return dump


def tear(path):
    """Cut 10 bytes off the decompressed stream: the last record tears."""
    rewrite(path, raw_stream(path)[:-10])


def poison_rib_entry(path):
    """Set the route count of the first RIB record to 0xffff: the header
    stays plausible and true, the body no longer decodes."""
    raws = raw_records(path)
    header, body = raws[1]
    count_at = 4 + 1 + (body[4] + 7) // 8  # sequence, prefix length, prefix
    body = body[:count_at] + b"\xff\xff" + body[count_at + 2:]
    raws[1] = (header, body)
    rewrite(path, b"".join(
        _MRT_HDR.pack(h.timestamp, h.mrt_type, h.subtype, h.length) + b
        for h, b in raws))
    return _MRT_HDR.pack(header.timestamp, header.mrt_type, header.subtype,
                         header.length) + body


class TestBviewContainment(RisLayout):
    """A bview is read through the same reader as updates files, under
    the archive's policy, and contained as a whole file."""

    HOURS = 8 * 3600

    @pytest.fixture()
    def bviews(self, tmp_path):
        writer = self.writer_cls(tmp_path)
        return [writer.write_rib(rib_dump(T0 + k * self.HOURS))
                for k in range(3)]

    def ribs(self, root, policy):
        archive = self.archive_cls(root, error_policy=policy)
        return list(archive.iter_ribs(T0, T0 + 3 * self.HOURS)), archive

    @pytest.mark.parametrize("damage", [tear, poison_rib_entry])
    def test_strict_raises_naming_the_file(self, tmp_path, bviews, damage):
        damage(bviews[1])
        with pytest.raises(MRTDecodeError, match=str(bviews[1])):
            self.ribs(tmp_path, "strict")

    @pytest.mark.parametrize("damage", [tear, poison_rib_entry])
    def test_skip_drops_and_counts_the_file(self, tmp_path, bviews, damage):
        expected = [dump for k, dump in enumerate(
            self.ribs(tmp_path, "strict")[0]) if k != 1]
        damage(bviews[1])
        dumps, archive = self.ribs(tmp_path, "skip")
        assert dumps == expected
        stats = archive.decode_stats
        assert stats.files_with_errors == 1
        assert stats.records_skipped >= 1
        assert not quarantine_path(bviews[1]).exists()

    def test_quarantine_keeps_the_bad_record(self, tmp_path, bviews):
        bad = poison_rib_entry(bviews[1])
        dumps, archive = self.ribs(tmp_path, "quarantine")
        assert len(dumps) == 2
        assert read_quarantine(quarantine_path(bviews[1])) == [
            (len(raw_records(bviews[1])[0][1]) + 12, bad)]
        assert archive.decode_stats.bytes_quarantined == len(bad)
        # Every record of the dropped bview counts as skipped.
        assert archive.decode_stats.records_skipped == \
            len(raw_records(bviews[1]))

    def test_quarantine_keeps_the_torn_tail(self, tmp_path, bviews):
        tail = raw_records(bviews[1])[-1]
        torn_length = 12 + tail[0].length - 10
        tear(bviews[1])
        dumps, archive = self.ribs(tmp_path, "quarantine")
        assert len(dumps) == 2
        (offset, blob), = read_quarantine(quarantine_path(bviews[1]))
        assert len(blob) == torn_length
        assert archive.decode_stats.resyncs == 1

    @pytest.mark.parametrize("damage", [tear, poison_rib_entry])
    def test_damaged_bview_equals_missing_bview(self, tmp_path, bviews,
                                                damage):
        twin = tmp_path.parent / (tmp_path.name + "-twin")
        writer = self.writer_cls(twin)
        for k in (0, 2):
            writer.write_rib(rib_dump(T0 + k * self.HOURS))
        damage(bviews[1])
        for policy in ("skip", "quarantine"):
            assert self.ribs(tmp_path, policy)[0] == \
                self.ribs(twin, policy)[0]


class TestQuarantineRoundTrip(RisLayout):
    def test_quarantined_bytes_redecodable_after_repair(self, clean_file):
        raws = raw_records(clean_file)
        packed = [_MRT_HDR.pack(h.timestamp, h.mrt_type, h.subtype,
                                h.length) + b for h, b in raws]
        target = 3
        poisoned = packed[:]
        poisoned[target] = packed[target][:12] + _poison_record(*raws[target])
        rewrite(clean_file, b"".join(poisoned))

        stats = DecodeStats()
        survivors = list(read_updates_file(clean_file, "rrc00",
                                           error_policy="quarantine",
                                           stats=stats))
        clean = [r for position, (header, body) in enumerate(raws)
                 if position != target
                 for r in decode_bgp4mp(header, body, "rrc00")]
        assert survivors == clean
        assert stats.records_skipped == 1
        assert stats.bytes_quarantined == len(packed[target])

        sidecar = quarantine_path(clean_file)
        assert sidecar.exists()
        chunks = read_quarantine(sidecar)
        assert len(chunks) == 1
        offset, blob = chunks[0]
        assert offset == sum(len(p) for p in packed[:target])
        assert blob == poisoned[target]

        # The sidecar preserves the poison verbatim: exactly one byte
        # differs from the original, and flipping it back yields a
        # record that decodes to what was originally written.
        diffs = [i for i, (a, b) in enumerate(zip(blob, packed[target]))
                 if a != b]
        assert len(diffs) == 1
        repaired = bytearray(blob)
        repaired[diffs[0]] ^= 0xFF
        assert bytes(repaired) == packed[target]
        header = decode_mrt_header(bytes(repaired))
        restored = decode_bgp4mp(header, bytes(repaired[12:]), "rrc00")
        assert restored == decode_bgp4mp(*raws[target], "rrc00")

    def test_clean_read_removes_stale_sidecar(self, clean_file):
        side = quarantine_path(clean_file)
        side.write_bytes(b"stale")
        list(read_updates_file(clean_file, "rrc00",
                               error_policy="quarantine"))
        # A clean pass must not leave a stale sidecar claiming poison.
        assert not side.exists()


class TestWorkerErrorContext:
    def test_decode_file_wraps_bare_exceptions_with_path(self, clean_file):
        class ExplodingFilter:
            def matches_record(self, record):
                raise RuntimeError("boom")

        # prematch passes peer clauses through; force the failure at
        # the match stage with a filter object that detonates.
        with pytest.raises(MRTDecodeError) as excinfo:
            decode_file(str(clean_file), "rrc00",
                        record_filter=ExplodingFilter())
        assert str(clean_file) in str(excinfo.value)

    def test_decode_file_returns_stats_dict(self, clean_file):
        records, stats = decode_file(str(clean_file), "rrc00",
                                     error_policy="skip")
        assert stats["records_decoded"] == len(records)
        assert stats["records_skipped"] == 0


class TestTolerantDecodeRouteViews(TestTolerantDecode):
    writer_cls, archive_cls = RouteViewsWriter, RouteViewsArchive


class TestQuarantineRoundTripRouteViews(TestQuarantineRoundTrip):
    writer_cls, archive_cls = RouteViewsWriter, RouteViewsArchive


class TestDefaultPolicyRouteViews(TestDefaultPolicy):
    writer_cls, archive_cls = RouteViewsWriter, RouteViewsArchive


class TestBoundaryTimestampRouteViews(TestBoundaryTimestamp):
    writer_cls, archive_cls = RouteViewsWriter, RouteViewsArchive


class TestBviewContainmentRouteViews(TestBviewContainment):
    writer_cls, archive_cls = RouteViewsWriter, RouteViewsArchive


#: One byte mutation: flip (xor a byte), insert a run, or truncate.
#: Positions are taken modulo the length of the bytes they apply to.
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16),
              st.integers(1, 255)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16),
              st.binary(min_size=1, max_size=24)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16), st.none()))


def mutate(data, mutations):
    for kind, where, argument in mutations:
        if kind == "flip" and data:
            where %= len(data)
            data = data[:where] + bytes([data[where] ^ argument]) \
                + data[where + 1:]
        elif kind == "insert":
            where %= len(data) + 1
            data = data[:where] + argument + data[where:]
        elif kind == "truncate":
            data = data[:where % (len(data) + 1)]
    return data


class TestByteMutation:
    """Flipped, inserted and truncated bytes — in the MRT stream or in
    its gzip container — never escape ``read_updates_file`` as anything
    but :class:`MRTDecodeError`, and nothing at all under the tolerant
    policies."""

    FILTER = RecordFilter(prefix_more=frozenset({Prefix("2a0d:3dc1::/32")}))

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mutation")
        path = root / "updates.20240604.0800.gz"
        write_updates_file(path, records_for_file())
        with open(path, "rb") as handle:
            container = handle.read()
        return path, raw_stream(path), container

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(in_container=st.booleans(), filtered=st.booleans(),
           mutations=st.lists(_MUTATION, min_size=1, max_size=4))
    def test_only_typed_errors_escape(self, valid, in_container, filtered,
                                      mutations):
        path, stream, container = valid
        if in_container:
            with open(path, "wb") as handle:
                handle.write(mutate(container, mutations))
        else:
            rewrite(path, mutate(stream, mutations))
        record_filter = self.FILTER if filtered else None
        for policy in (ErrorPolicy.SKIP, ErrorPolicy.QUARANTINE):
            list(read_updates_file(path, "rrc00", record_filter,
                                   error_policy=policy))
        try:
            list(read_updates_file(path, "rrc00", record_filter,
                                   error_policy=ErrorPolicy.STRICT))
        except MRTDecodeError:
            pass


def record_boundaries(stream):
    """Offsets in a decompressed MRT stream where a record starts, plus
    its end."""
    offsets, position = [], 0
    while position < len(stream):
        offsets.append(position)
        position += 12 + _MRT_HDR.unpack_from(stream, position)[3]
    return offsets + [position]


class TestHostileLength:
    """A record header whose length field claims anything up to
    2**32 - 1 bytes costs at most ``MAX_RECORD_LENGTH`` plus one read
    chunk of traced memory: no allocation is sized by the field, in an
    updates file or a bview, under ``skip`` or ``strict``."""

    BOUND = MAX_RECORD_LENGTH + _CHUNK

    @pytest.fixture(scope="class")
    def streams(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("hostile")
        updates = root / "updates.20240604.0800.gz"
        # A few read chunks each, so a claim is read against more data.
        write_updates_file(updates, records_for_file(100))
        bview = ArchiveWriter(root / "ris").write_rib(rib_dump(T0, 200))
        return {"updates": (updates, raw_stream(updates), MRT_BGP4MP,
                            BGP4MP_MESSAGE_AS4),
                "bview": (bview, raw_stream(bview), MRT_TABLE_DUMP_V2,
                          TDV2_RIB_IPV6_UNICAST)}

    @staticmethod
    def read(kind, path, policy):
        try:
            if kind == "updates":
                list(read_updates_file(path, "rrc00", error_policy=policy))
            else:
                read_rib_file(path, error_policy=policy)
        except MRTDecodeError:
            assert policy == ErrorPolicy.STRICT

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["updates", "bview"]),
           length=st.integers(0, (1 << 32) - 1),
           at=st.integers(0, 1 << 16),
           filler=st.binary(max_size=64))
    def test_peak_memory_is_bounded(self, streams, kind, length, at, filler):
        path, stream, mrt_type, subtype = streams[kind]
        boundaries = record_boundaries(stream)
        cut = boundaries[at % len(boundaries)]
        rewrite(path, stream[:cut] + _MRT_HDR.pack(T0, mrt_type, subtype,
                                                   length)
                + filler + stream[cut:])
        for policy in (ErrorPolicy.SKIP, ErrorPolicy.STRICT):
            tracemalloc.start()
            try:
                baseline, _ = tracemalloc.get_traced_memory()
                self.read(kind, path, policy)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - baseline <= self.BOUND, (length, policy)
