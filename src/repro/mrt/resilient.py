"""The one MRT record source, and poison-record containment.

Real RIS collectors emit truncated, torn and garbage records (the paper
had to discard whole corrupt intervals, §3); a production read path must
contain a bad record to that record instead of aborting an eleven-month
scan.  Updates files and bviews alike are read through this module:

* :class:`ErrorPolicy` — what to do with undecodable input:

  ``strict``      raise :class:`MRTDecodeError` naming the file and the
                  stream offset — fail-fast batch mode;
  ``skip``        (the default) drop the bad bytes, count them, keep
                  going;
  ``quarantine``  like ``skip``, but also preserve the raw bad bytes in
                  a sidecar file (``<name>.quarantine``) so they can be
                  inspected — or re-decoded once repaired — later.

* :class:`DecodeStats` — per-scan counters (records decoded/skipped,
  bytes skipped/quarantined, resyncs, compressed-stream errors) that
  travel across process-pool workers and surface in ``/metrics``.

* :class:`ResilientReader` — the only code that splits a decompressed
  MRT stream into ``(header, body)`` records.  It has **header
  resync**: after garbage or a torn record it scans forward for the
  next plausible MRT common header and resumes there, so one flipped
  byte costs one record, not the rest of the file.

* :class:`QuarantineWriter` / :func:`read_quarantine` — the sidecar
  format: a small framed binary file of ``(stream_offset, raw bytes)``
  chunks, where offsets address the *decompressed* MRT stream.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

from repro.mrt.bgp4mp import (MRT_HEADER, MRTRecordHeader, decode_mrt_header,
                              encode_mrt_record)
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
    "MRTDecodeError",
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

#: Quarantine sidecar framing: 5-byte magic+version, then per chunk a
#: ``!QI`` (decompressed stream offset, byte length) frame header.
_QUARANTINE_MAGIC = b"MRTQ\x01"
_CHUNK_HDR = struct.Struct("!QI")

#: Errors the gzip/zlib layer raises on a corrupted compressed stream.
_STREAM_ERRORS = (EOFError, OSError, zlib.error)


class MRTDecodeError(ValueError):
    """A record could not be decoded (corruption, unsupported feature)."""


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
        return asdict(self)

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

    def add(self, offset: int, raw: bytes) -> None:
        if not raw:
            return
        if self._handle is None:
            self._handle = open(self.path, "wb")
            self._handle.write(_QUARANTINE_MAGIC)
        self._handle.write(_CHUNK_HDR.pack(offset, len(raw)))
        self._handle.write(raw)
        self.chunks_written += 1

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
    timestamp, mrt_type, subtype, length = MRT_HEADER.unpack_from(buffer, offset)
    subtypes = _VALID_SUBTYPES.get(mrt_type)
    if subtypes is None or subtype not in subtypes:
        return False
    if length > MAX_RECORD_LENGTH:
        return False
    return _TIMESTAMP_MIN <= timestamp < _TIMESTAMP_MAX


class ResilientReader:
    """Streaming ``(header, body)`` splitter of one MRT file under one
    error policy.

    Damage is met where :meth:`iter_raw` finds a boundary header that
    frames no archived record, a record torn by the stream's end or a
    compressed-stream error, and where the caller rejects a record
    (:meth:`quarantine_record`).  ``strict`` raises
    :class:`MRTDecodeError` (path + stream offset) at each; otherwise the
    reader resyncs, counts (and quarantines) what it skips, and sets
    :attr:`had_errors`.  At a boundary the previous record's length
    vouches for the position, so only the resync scan, where any offset
    is a candidate, also demands :func:`plausible_header`'s timestamp
    window: a boundary record stamped outside it is yielded, not contained.
    """

    def __init__(self, path: Union[str, Path],
                 policy: str = ErrorPolicy.SKIP,
                 stats: Optional[DecodeStats] = None):
        self.path = path
        self.policy = ErrorPolicy.validate(policy)
        self.stats = stats if stats is not None else DecodeStats()
        self._writer: Optional[QuarantineWriter] = None
        if self.policy == ErrorPolicy.QUARANTINE:
            self._writer = QuarantineWriter(quarantine_path(self.path))
        self.had_errors = False
        self._offset = 0  # decompressed-stream offset of the last record

    # -- damage ------------------------------------------------------------

    def _contain(self, offset: int, reason: object,
                 exc: Optional[BaseException] = None) -> None:
        """Damage at stream ``offset``: raise under ``strict``, else
        note that this file was damaged."""
        if self.policy == ErrorPolicy.STRICT:
            raise MRTDecodeError(
                f"{self.path}: offset {offset}: {reason}") from exc
        self.had_errors = True

    def _quarantine_bytes(self, offset: int, raw: bytes) -> None:
        if self._writer is not None:
            self._writer.add(offset, raw)
            self.stats.bytes_quarantined += len(raw)

    def quarantine_record(self, header: MRTRecordHeader, body: bytes,
                          exc: Optional[Exception] = None) -> None:
        """Reject the record :meth:`iter_raw` just yielded (``exc``: what
        its decoder raised; None for a record of the wrong type)."""
        reason = exc if exc is not None else \
            f"unexpected MRT type {header.mrt_type}"
        self._contain(self._offset, reason, exc)
        self.stats.records_skipped += 1
        self._quarantine_bytes(self._offset, encode_mrt_record(
            header.timestamp, header.mrt_type, header.subtype, body))

    def reject_file(self, reason: str) -> None:
        """The caller rejects the file with no record to blame."""
        self._contain(self._offset, reason)

    def __enter__(self) -> "ResilientReader":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._writer is not None:
            self._writer.close()
            if self._writer.chunks_written == 0:
                # A clean pass invalidates any sidecar left over from an
                # earlier decode of a since-repaired file.
                self._writer.path.unlink(missing_ok=True)
        if self.had_errors:
            self.stats.files_with_errors += 1

    # -- iteration ---------------------------------------------------------

    def iter_raw(self, handle: BinaryIO
                 ) -> Iterator[Tuple[MRTRecordHeader, bytes]]:
        """Records of the decompressed stream ``handle`` (opened by the
        caller, :func:`repro.mrt.files.open_mrt`), read in chunks into
        one buffer with a read position, compacted once per chunk.
        ``handle`` must be buffered: a short read ends the stream."""
        buffer = b""
        size = 0  # len(buffer)
        pos = 0   # read position in buffer
        base = 0  # decompressed-stream offset of buffer[0]
        eof = False
        stats = self.stats

        def fill(need: int) -> None:
            """Compact to ``buffer[pos:]``, then read until ``need``
            bytes lie at ``pos`` or the stream ends."""
            nonlocal buffer, size, pos, base, eof
            parts = [buffer[pos:]]
            base += pos
            pos = 0
            size = len(parts[0])
            while size < need and not eof:
                try:
                    chunk = handle.read(_CHUNK)
                except _STREAM_ERRORS as exc:
                    # Corrupted compressed stream: whatever already
                    # decompressed is all this file will yield.
                    eof = True
                    self._contain(base + size, f"compressed stream: {exc}",
                                  exc)
                    stats.stream_errors += 1
                    break
                parts.append(chunk)
                size += len(chunk)
                # Buffered readers return short only at the stream end.
                eof = len(chunk) < _CHUNK
            buffer = b"".join(parts)

        def discard(count: int) -> None:
            """Drop the ``count`` bytes at ``pos`` as a skipped run."""
            nonlocal pos
            stats.bytes_skipped += count
            self._quarantine_bytes(base + pos, buffer[pos:pos + count])
            pos += count

        while True:
            if size - pos < 12:
                fill(12)
                if not size:
                    return
                if size < 12:
                    self._contain(base, f"trailing garbage ({size} bytes)")
            if size - pos >= 12:
                header = decode_mrt_header(buffer, pos)
                length = header.length
                if length > MAX_RECORD_LENGTH or header.subtype not in \
                        _VALID_SUBTYPES.get(header.mrt_type, ()):
                    self._contain(base + pos, "no MRT record header")
                else:
                    end = pos + 12 + length
                    if end > size:
                        fill(12 + length)
                        end = 12 + length
                        if end > size:
                            # Torn record, or a length field run past
                            # EOF: resync scans the rest.
                            self._contain(base, f"truncated record ({size - 12}"
                                                f" of {length} body bytes)")
                    if end <= size:
                        self._offset = base + pos
                        body = buffer[pos + 12:end]
                        pos = end
                        yield header, body
                        continue
            # Resync: scan forward for the next plausible header.
            stats.resyncs += 1
            skip = 1
            while True:
                if size - pos < skip + 12:
                    fill(skip + 12)
                    if size < skip + 12:
                        discard(size)
                        return
                if plausible_header(buffer, pos + skip):
                    discard(skip)
                    break
                skip += 1
