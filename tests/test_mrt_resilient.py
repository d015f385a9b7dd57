"""Tests for the poison-record containment layer (repro.mrt.resilient)
and its threading through the archive read path, in both on-disk
layouts (the ``*RouteViews`` classes rerun the RIS cases on bzip2)."""

import struct

import pytest

from helpers import ann, sess_down, wd
from repro.mrt import (
    DecodeStats,
    ErrorPolicy,
    MRTDecodeError,
    QuarantineWriter,
    decode_bgp4mp,
    decode_mrt_header,
    iter_raw_records,
    plausible_header,
    quarantine_path,
    read_quarantine,
    read_updates_file,
    write_updates_file,
)
from repro.mrt.constants import MRT_BGP4MP
from repro.mrt.files import create_mrt, open_mrt
from repro.ris import Archive, ArchiveWriter
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
    return list(iter_raw_records(path))


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
        for policy in (None, "strict", "skip", "quarantine"):
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

    def test_default_behaviour_unchanged(self, clean_file):
        # No policy given: structural damage still raises, exactly as
        # the pre-resilience read path did.
        payload = raw_stream(clean_file)
        rewrite(clean_file, payload[:len(payload) - 30])
        with pytest.raises(MRTDecodeError):
            list(read_updates_file(clean_file, "rrc00"))

    def test_unknown_policy_rejected(self, clean_file):
        with pytest.raises(ValueError, match="unknown error policy"):
            list(read_updates_file(clean_file, "rrc00", error_policy="maybe"))


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
