"""MRT file container: compressed record streams on disk.

RIPE RIS publishes updates as gzip-compressed concatenations of MRT
records, RouteViews as bzip2.  This module owns that container — one
read opener (:func:`open_mrt`) and one deterministic writer
(:func:`create_mrt`), codec picked from the file suffix — and the
**one** loop that decodes an updates file into records
(:func:`read_updates_file`, with one
:class:`~repro.mrt.bgp4mp.RecordDecoder` per file); every archive
layout, error policy and filter goes through it.
"""

from __future__ import annotations

import bz2
import gzip
import struct
import zlib
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.bgp.messages import Record, StateRecord, UpdateRecord, record_sort_key
from repro.mrt.bgp4mp import (
    RecordDecoder,
    decode_mrt_header,
    encode_state_record,
    encode_update_record,
)
from repro.mrt.constants import MRT_BGP4MP
from repro.mrt.resilient import DecodeStats, ErrorPolicy, ResilientReader

__all__ = ["open_mrt", "create_mrt", "write_updates_file", "read_updates_file",
           "iter_raw_records", "MRTDecodeError"]

#: What a malformed BGP4MP body raises out of the decoder.
_RECORD_ERRORS = (ValueError, struct.error)


class MRTDecodeError(ValueError):
    """A record could not be decoded (corruption, unsupported feature)."""


def open_mrt(path: Union[str, Path]):
    """Open an MRT container for reading.  The codec follows the suffix:
    ``.bz2`` is bzip2 (RouteViews), anything else gzip (RIS)."""
    opener = bz2.open if str(path).endswith(".bz2") else gzip.open
    return opener(path, "rb")


@contextmanager
def create_mrt(path: Union[str, Path]):
    """Open an MRT container for writing, codec by suffix as in
    :func:`open_mrt`.  Gzip members carry ``mtime=0`` and an empty
    embedded filename, so re-written files are byte-identical and
    transport manifest checksums are stable."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    if str(path).endswith(".bz2"):
        with bz2.open(path, "wb") as handle:
            yield handle
    else:
        with open(path, "wb") as raw, \
                gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                              mtime=0) as handle:
            yield handle


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


def iter_raw_records(path: Union[str, Path]) -> Iterator[tuple]:
    """Yield ``(header, body)`` pairs from an MRT file, strictly.

    Records are read *streaming* from the decompressor — header, then
    body — so a multi-megabyte archive file never has to be held in
    memory as one contiguous buffer.  Structural damage raises
    :class:`MRTDecodeError`; :class:`~repro.mrt.resilient.ResilientReader`
    is the source that resyncs instead.
    """
    try:
        with open_mrt(path) as handle:
            while True:
                head = handle.read(12)
                if not head:
                    return
                if len(head) < 12:
                    raise MRTDecodeError(
                        f"{path}: trailing garbage ({len(head)} bytes)")
                header = decode_mrt_header(head)
                body = handle.read(header.length)
                if len(body) != header.length:
                    raise MRTDecodeError(f"{path}: truncated record")
                yield header, body
    except (EOFError, OSError, zlib.error) as exc:
        # Corrupted/foreign compressed stream: carry the file path so
        # the serial and process-pool paths report identically.
        raise MRTDecodeError(f"{path}: {exc}") from exc


def _ignore(header, body, exc=None) -> None:
    """The default policy: an undecodable record is dropped silently."""


def _fail(path, header, body, exc=None) -> None:
    """The strict policy: an undecodable record aborts the file."""
    reason = exc if exc is not None else (
        f"unexpected MRT type {header.mrt_type} in updates file")
    raise MRTDecodeError(f"{path}: {reason}") from exc


def read_updates_file(path: Union[str, Path], collector: str,
                      record_filter=None,
                      error_policy: Optional[str] = None,
                      stats: Optional[DecodeStats] = None
                      ) -> Iterator[Record]:
    """Decode an MRT updates file into Update/State records.

    ``error_policy`` (:class:`~repro.mrt.resilient.ErrorPolicy`) picks,
    once per file, where raw records come from and what a bad one costs:

    ``None``          (default) records that fail to decode — and
                      non-BGP4MP records — are skipped silently; a
                      corrupt compressed stream or torn record raises
                      :class:`MRTDecodeError`;
    ``"strict"``      any of the above raises :class:`MRTDecodeError`
                      with file context (fail-fast batch mode);
    ``"skip"``        bad records and garbage runs are contained via
                      header resync and counted into ``stats``;
    ``"quarantine"``  like ``skip``, plus the raw bad bytes are
                      preserved in a ``<name>.quarantine`` sidecar.

    ``record_filter`` (a :class:`repro.ris.pushdown.RecordFilter`) pushes
    stream-level filtering down to decode time: peer clauses are tested
    against the raw BGP4MP header and prefix clauses against the NLRI
    fields *before* path attributes are decoded, and only records for
    which ``record_filter.matches_record`` holds are yielded.
    """
    policy = (ErrorPolicy.validate(error_policy)
              if error_policy is not None else None)
    with ExitStack() as stack:
        if policy in (ErrorPolicy.SKIP, ErrorPolicy.QUARANTINE):
            # Containment is the point: any decode failure — struct
            # underrun, bad marker, invalid enum, short body — and any
            # RIB or foreign record costs exactly that record.
            reader = stack.enter_context(
                ResilientReader(path, policy, stats=stats))
            raws = reader.iter_raw(stack.enter_context(open_mrt(path)))
            stats, caught, reject = (reader.stats, Exception,
                                     reader.quarantine_record)
        else:
            raws, caught = iter_raw_records(path), _RECORD_ERRORS
            reject = _ignore if policy is None else partial(_fail, path)
        decoder = RecordDecoder()
        for header, body in raws:
            if header.mrt_type != MRT_BGP4MP:
                reject(header, body)
                continue
            try:
                if record_filter is not None and not decoder.prematch(
                        header, body, record_filter):
                    continue
                records = decoder.decode(header, body, collector)
            except caught as exc:
                reject(header, body, exc)
                continue
            if stats is not None:
                stats.records_decoded += 1
            if record_filter is None:
                yield from records
            else:
                for record in records:
                    if record_filter.matches_record(record):
                        yield record
