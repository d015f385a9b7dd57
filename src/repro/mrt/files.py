"""MRT file container: compressed record streams on disk.

RIPE RIS publishes updates as gzip-compressed concatenations of MRT
records, RouteViews as bzip2.  This module owns that container — one
read opener (:func:`open_mrt`) and one deterministic writer
(:func:`create_mrt`), codec picked from the file suffix — and the two
file readers, :func:`read_updates_file` and :func:`read_rib_file`, both
on :class:`~repro.mrt.resilient.ResilientReader` under one
:class:`~repro.mrt.resilient.ErrorPolicy`; every archive layout, error
policy and filter goes through them.
"""

from __future__ import annotations

import bz2
import gzip
import io
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.bgp.messages import Record, StateRecord, UpdateRecord, record_sort_key
from repro.mrt.bgp4mp import (
    DECODE_ERRORS,
    RecordDecoder,
    encode_state_record,
    encode_update_record,
)
from repro.mrt.constants import MRT_BGP4MP
from repro.mrt.resilient import (DecodeStats, ErrorPolicy, MRTDecodeError,
                                 ResilientReader)
from repro.mrt.tabledump import RibDump, decode_rib_stream

__all__ = ["open_mrt", "create_mrt", "write_updates_file", "read_updates_file",
           "read_rib_file", "MRTDecodeError"]


def open_mrt(path: Union[str, Path]):
    """Open an MRT container for reading.  The codec follows the suffix:
    ``.bz2`` is bzip2 (RouteViews), anything else gzip (RIS)."""
    opener = bz2.open if str(path).endswith(".bz2") else gzip.open
    return opener(path, "rb")


#: The gzip member header ``gzip.GzipFile(filename="", mtime=0)``
#: writes: deflate, no flags, mtime 0, best compression, OS unknown.
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\xff"


@contextmanager
def create_mrt(path: Union[str, Path]):
    """Open an MRT container for writing, codec by suffix as in
    :func:`open_mrt`.  Gzip members carry ``mtime=0`` and an empty
    embedded filename, so re-written files are byte-identical and the
    archive bytes (and the benchmark's ``workload_hash``) are stable.
    A gzip file is written whole when the block exits: the bytes
    ``gzip.GzipFile`` would stream, from one deflate call and one
    write."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    if str(path).endswith(".bz2"):
        with bz2.open(path, "wb") as handle:
            yield handle
        return
    buffer = io.BytesIO()
    yield buffer
    data = buffer.getvalue()
    deflate = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS,
                               zlib.DEF_MEM_LEVEL, 0)
    with open(path, "wb") as raw:
        raw.write(_GZIP_HEADER + deflate.compress(data) + deflate.flush()
                  + struct.pack("<II", zlib.crc32(data),  # CRC-32, size
                                len(data) & 0xFFFFFFFF))


def write_updates_file(path: Union[str, Path], records: Iterable[Record],
                       sort: bool = True) -> int:
    """Write update/state records to an MRT file; returns count.

    Records are sorted into archive order (time, then peer) unless the
    caller guarantees ordering.
    """
    items = list(records)
    if sort:
        items.sort(key=record_sort_key)
    with create_mrt(path) as handle:
        for record in items:
            if isinstance(record, UpdateRecord):
                handle.write(encode_update_record(record))
            elif isinstance(record, StateRecord):
                handle.write(encode_state_record(record))
            else:
                raise TypeError(f"cannot write record of type {type(record).__name__}")
    return len(items)


def read_updates_file(path: Union[str, Path], collector: str,
                      record_filter=None,
                      error_policy: str = ErrorPolicy.SKIP,
                      stats: Optional[DecodeStats] = None
                      ) -> Iterator[Record]:
    """Decode an MRT updates file into Update/State records.

    A record that is not BGP4MP or fails to decode is rejected through
    the file's :class:`~repro.mrt.resilient.ResilientReader`: under
    ``strict`` that raises :class:`MRTDecodeError`, otherwise it costs
    exactly that record and is counted into ``stats``.

    ``record_filter`` (a :class:`repro.ris.pushdown.RecordFilter`) pushes
    stream-level filtering down to decode time: peer clauses are tested
    against the raw BGP4MP header and prefix clauses against the NLRI
    fields *before* path attributes are decoded, and only records for
    which ``record_filter.matches_record`` holds are yielded.
    """
    with ResilientReader(path, error_policy, stats) as reader, \
            open_mrt(path) as handle:
        stats = reader.stats
        decoder = RecordDecoder()
        for header, body in reader.iter_raw(handle):
            if header.mrt_type != MRT_BGP4MP:
                reader.quarantine_record(header, body)
                continue
            try:
                if record_filter is not None and not decoder.prematch(
                        header, body, record_filter):
                    continue
                records = decoder.decode(header, body, collector)
            except DECODE_ERRORS as exc:
                reader.quarantine_record(header, body, exc)
                continue
            stats.records_decoded += 1
            if record_filter is None:
                yield from records
            else:
                for record in records:
                    if record_filter.matches_record(record):
                        yield record


def read_rib_file(path: Union[str, Path],
                  error_policy: str = ErrorPolicy.SKIP,
                  stats: Optional[DecodeStats] = None) -> Optional[RibDump]:
    """Decode one bview; None when the policy contained it as a whole
    (:func:`~repro.mrt.tabledump.decode_rib_stream`)."""
    with ResilientReader(path, error_policy, stats) as reader, \
            open_mrt(path) as handle:
        return decode_rib_stream(reader, handle)
