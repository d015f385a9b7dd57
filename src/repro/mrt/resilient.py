"""Poison-record containment for the MRT decode path.

Real RIS collectors emit truncated, torn and garbage records (the paper
had to discard whole corrupt intervals, §3); a production read path must
contain a bad record to that record instead of aborting an eleven-month
scan.  This module provides the containment layer:

* :class:`ErrorPolicy` — what to do with undecodable input:

  ``strict``      raise :class:`~repro.mrt.files.MRTDecodeError`
                  (file + offset context) — the batch replication
                  pipeline's fail-fast mode;
  ``skip``        drop the bad bytes, count them, keep going;
  ``quarantine``  like ``skip``, but also preserve the raw bad bytes in
                  a sidecar file (``<name>.quarantine``) so they can be
                  inspected — or re-decoded once repaired — later.

* :class:`DecodeStats` — per-scan counters (records decoded/skipped,
  bytes skipped/quarantined, resyncs, compressed-stream errors) that
  travel across process-pool workers and surface in ``/metrics``.

* :class:`ResilientReader` — the raw-record source that
  :func:`repro.mrt.files.read_updates_file` (the one decode loop) runs
  on under ``skip``/``quarantine``, in place of the strict
  :func:`~repro.mrt.files.iter_raw_records`.  It has **header resync**:
  after garbage or a torn record it scans forward for the next
  plausible MRT common header (known type/subtype pair, sane timestamp,
  bounded length) and resumes there, so one flipped byte costs one
  record, not the rest of the file.

* :class:`QuarantineWriter` / :func:`read_quarantine` — the sidecar
  format: a small framed binary file of ``(stream_offset, raw bytes)``
  chunks, where offsets address the *decompressed* MRT stream.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

from repro.mrt.bgp4mp import MRTRecordHeader, decode_mrt_header
from repro.mrt.constants import (
    BGP4MP_MESSAGE,
    BGP4MP_MESSAGE_AS4,
    BGP4MP_STATE_CHANGE,
    BGP4MP_STATE_CHANGE_AS4,
    MRT_BGP4MP,
    MRT_TABLE_DUMP_V2,
    TDV2_PEER_INDEX_TABLE,
    TDV2_RIB_IPV4_UNICAST,
    TDV2_RIB_IPV6_UNICAST,
)

__all__ = [
    "ErrorPolicy",
    "DecodeStats",
    "ResilientReader",
    "QuarantineWriter",
    "read_quarantine",
    "quarantine_path",
    "plausible_header",
    "MAX_RECORD_LENGTH",
]

#: Read granularity from the decompressor.  Deliberately small: gzip's
#: reader raises on a truncated stream *without returning* the data it
#: already decompressed for the failing call, so the salvageable prefix
#: of a torn file grows as this shrinks.
_CHUNK = 8 * 1024

#: No real MRT record in an updates archive approaches this; anything
#: larger is treated as a corrupted length field.
MAX_RECORD_LENGTH = 1 << 20

#: Sanity window for the MRT header timestamp (1990..2100).
_TIMESTAMP_MIN = 631_152_000
_TIMESTAMP_MAX = 4_102_444_800

_VALID_SUBTYPES = {
    MRT_BGP4MP: frozenset({BGP4MP_STATE_CHANGE, BGP4MP_MESSAGE,
                           BGP4MP_MESSAGE_AS4, BGP4MP_STATE_CHANGE_AS4}),
    MRT_TABLE_DUMP_V2: frozenset({TDV2_PEER_INDEX_TABLE,
                                  TDV2_RIB_IPV4_UNICAST,
                                  TDV2_RIB_IPV6_UNICAST}),
}

_MRT_HDR = struct.Struct("!IHHI")

#: Quarantine sidecar framing: 5-byte magic+version, then per chunk a
#: ``!QI`` (decompressed stream offset, byte length) frame header.
_QUARANTINE_MAGIC = b"MRTQ\x01"
_CHUNK_HDR = struct.Struct("!QI")

#: Errors the gzip/zlib layer raises on a corrupted compressed stream.
_STREAM_ERRORS = (EOFError, OSError, zlib.error)


class ErrorPolicy:
    """The three containment policies, as validated string constants."""

    STRICT = "strict"
    SKIP = "skip"
    QUARANTINE = "quarantine"

    ALL = (STRICT, SKIP, QUARANTINE)

    @classmethod
    def validate(cls, policy: str) -> str:
        if policy not in cls.ALL:
            raise ValueError(
                f"unknown error policy {policy!r} (expected one of "
                f"{', '.join(cls.ALL)})")
        return policy


@dataclass
class DecodeStats:
    """Counters for one (or many, merged) tolerant decode passes."""

    records_decoded: int = 0
    records_skipped: int = 0
    bytes_skipped: int = 0
    bytes_quarantined: int = 0
    resyncs: int = 0
    stream_errors: int = 0
    files_with_errors: int = 0

    @property
    def clean(self) -> bool:
        """True when no containment action was ever taken."""
        return (self.records_skipped == 0 and self.bytes_skipped == 0
                and self.stream_errors == 0)

    def as_dict(self) -> dict:
        return {
            "records_decoded": self.records_decoded,
            "records_skipped": self.records_skipped,
            "bytes_skipped": self.bytes_skipped,
            "bytes_quarantined": self.bytes_quarantined,
            "resyncs": self.resyncs,
            "stream_errors": self.stream_errors,
            "files_with_errors": self.files_with_errors,
        }

    def merge(self, other: Union["DecodeStats", dict]) -> None:
        """Fold another pass's counters in (accepts the dict form, which
        is how worker processes report back)."""
        payload = other.as_dict() if isinstance(other, DecodeStats) else other
        for key, value in payload.items():
            setattr(self, key, getattr(self, key) + value)


def quarantine_path(data_path: Union[str, Path]) -> Path:
    """Sidecar path for a data file: ``updates.<stamp>.gz.quarantine``."""
    data_path = Path(data_path)
    return data_path.with_name(data_path.name + ".quarantine")


class QuarantineWriter:
    """Append raw bad-byte chunks to a quarantine sidecar.

    The file is created lazily on the first chunk (clean decodes leave
    no sidecar) and truncated when first opened, so re-decoding the same
    file keeps the sidecar idempotent rather than growing it.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle = None
        self.chunks_written = 0
        self.bytes_written = 0

    def add(self, offset: int, raw: bytes) -> None:
        if not raw:
            return
        if self._handle is None:
            self._handle = open(self.path, "wb")
            self._handle.write(_QUARANTINE_MAGIC)
        self._handle.write(_CHUNK_HDR.pack(offset, len(raw)))
        self._handle.write(raw)
        self.chunks_written += 1
        self.bytes_written += len(raw)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "QuarantineWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_quarantine(path: Union[str, Path]) -> List[Tuple[int, bytes]]:
    """Chunks of a quarantine sidecar as ``(stream_offset, raw bytes)``.

    Raises :class:`ValueError` for files that are not quarantine
    sidecars; tolerates a torn final chunk (crash mid-write) by dropping
    it, in the same spirit as every other reader in this codebase.
    """
    data = Path(path).read_bytes()
    if not data.startswith(_QUARANTINE_MAGIC):
        raise ValueError(f"not a quarantine sidecar: {path}")
    chunks: List[Tuple[int, bytes]] = []
    position = len(_QUARANTINE_MAGIC)
    while position + _CHUNK_HDR.size <= len(data):
        offset, length = _CHUNK_HDR.unpack_from(data, position)
        position += _CHUNK_HDR.size
        if position + length > len(data):
            break  # torn final chunk
        chunks.append((offset, data[position:position + length]))
        position += length
    return chunks


def plausible_header(buffer, offset: int = 0) -> bool:
    """Could ``buffer[offset:offset+12]`` be an MRT common header?

    Used by resync to find the next record boundary after garbage: the
    type/subtype pair must be one we archive, the length bounded, and
    the timestamp inside a sane window.  False positives only cost a
    failed decode (which is itself contained); false negatives only
    cost extra skipped bytes.
    """
    if len(buffer) - offset < 12:
        return False
    timestamp, mrt_type, subtype, length = _MRT_HDR.unpack_from(buffer, offset)
    subtypes = _VALID_SUBTYPES.get(mrt_type)
    if subtypes is None or subtype not in subtypes:
        return False
    if length > MAX_RECORD_LENGTH:
        return False
    return _TIMESTAMP_MIN <= timestamp < _TIMESTAMP_MAX


class ResilientReader:
    """Streaming raw-record reader with per-record error containment.

    Yields ``(header, body)`` like the strict iterator
    (:func:`repro.mrt.files.iter_raw_records`), but never raises for
    corrupt input: implausible headers and torn records trigger a
    forward scan for the next plausible header, the skipped run is
    counted (and quarantined under ``quarantine``), and a corrupted
    *compressed* stream simply ends the file at the last decodable byte.

    The caller reports its own decode failures back through
    :meth:`quarantine_record`, so record-level poison (bad BGP marker,
    truncated attributes) lands in the same sidecar as structural
    garbage — everything needed to replay the file later is in one
    place.
    """

    def __init__(self, path: Union[str, Path],
                 policy: str = ErrorPolicy.SKIP,
                 stats: Optional[DecodeStats] = None):
        self.path = Path(path)
        self.policy = ErrorPolicy.validate(policy)
        if self.policy == ErrorPolicy.STRICT:
            raise ValueError(
                "ResilientReader is the tolerant raw-record source; "
                "read_updates_file pairs the strict policy with "
                "iter_raw_records")
        self.stats = stats if stats is not None else DecodeStats()
        self._writer: Optional[QuarantineWriter] = None
        if self.policy == ErrorPolicy.QUARANTINE:
            self._writer = QuarantineWriter(quarantine_path(self.path))
        self._had_errors = False
        self._offset = 0  # decompressed-stream offset of the last record

    # -- sidecar -----------------------------------------------------------

    def _quarantine_bytes(self, offset: int, raw: bytes) -> None:
        self._had_errors = True
        if self._writer is not None:
            self._writer.add(offset, raw)
            self.stats.bytes_quarantined += len(raw)

    def quarantine_record(self, header: MRTRecordHeader, body: bytes,
                          exc: Optional[Exception] = None) -> None:
        """The caller failed to decode the record :meth:`iter_raw` just
        yielded (``exc`` is what its decoder raised, if anything): count
        it and (under ``quarantine``) preserve its raw bytes."""
        self.stats.records_skipped += 1
        raw = _MRT_HDR.pack(header.timestamp, header.mrt_type,
                            header.subtype, header.length) + body
        self._quarantine_bytes(self._offset, raw)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            if self._writer.chunks_written == 0:
                # A clean pass invalidates any sidecar left over from an
                # earlier decode of a since-repaired file.
                self._writer.path.unlink(missing_ok=True)

    def __enter__(self) -> "ResilientReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        if self._had_errors:
            self.stats.files_with_errors += 1

    # -- iteration ---------------------------------------------------------

    def iter_raw(self, handle: BinaryIO
                 ) -> Iterator[Tuple[MRTRecordHeader, bytes]]:
        """Records of the decompressed stream ``handle`` (the container
        is opened by the caller, :func:`repro.mrt.files.open_mrt`)."""
        buffer = bytearray()
        base = 0  # decompressed-stream offset of buffer[0]
        eof = False

        def fill(target: int) -> None:
            nonlocal eof
            while not eof and len(buffer) < target:
                try:
                    chunk = handle.read(_CHUNK)
                except _STREAM_ERRORS:
                    # Corrupted compressed stream: whatever already
                    # decompressed is all this file will yield.
                    self.stats.stream_errors += 1
                    self._had_errors = True
                    eof = True
                    return
                if not chunk:
                    eof = True
                else:
                    buffer.extend(chunk)

        def discard(count: int) -> None:
            """Drop ``count`` leading bytes as a skipped run."""
            nonlocal base
            self.stats.bytes_skipped += count
            self._quarantine_bytes(base, bytes(buffer[:count]))
            del buffer[:count]
            base += count

        while True:
            fill(12)
            if not buffer:
                return
            if plausible_header(buffer):
                header = decode_mrt_header(bytes(buffer[:12]))
                fill(12 + header.length)
                if len(buffer) >= 12 + header.length:
                    body = bytes(buffer[12:12 + header.length])
                    self._offset = base
                    del buffer[:12 + header.length]
                    base += 12 + header.length
                    yield header, body
                    continue
                # Torn record (or a corrupted length field that ran
                # past EOF): fall through to resync, which scans the
                # remainder for any later record boundary.
            # Resync: scan forward for the next plausible header.
            self.stats.resyncs += 1
            position = 1
            while True:
                fill(position + 12)
                if len(buffer) < position + 12:
                    discard(len(buffer))
                    return
                if plausible_header(buffer, position):
                    discard(position)
                    break
                position += 1
