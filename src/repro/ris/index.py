"""Sidecar file indexes for archive MRT files.

Each ``updates.*.gz`` file can carry a small JSON sidecar —
``<name>.idx`` — summarising its contents: record counts by kind, the
min/max record timestamp, the set of peer ASNs and the set of address
families among route prefixes.  The read path uses the sidecar to skip
whole files (window resolution and peer/ipversion/prefix-family filter
push-down) without decompressing them.

Staleness is detected via the indexed file's size and mtime: a sidecar
whose recorded ``(size, mtime_ns)`` no longer matches the data file —
e.g. after a foreign writer rewrote the file — is ignored and the
reader falls back to decoding.  :class:`~repro.ris.archive.ArchiveWriter`
rewrites the sidecar on every update-file write, so archives produced by
this library are always fully indexed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.bgp.messages import Record, StateRecord, UpdateRecord

__all__ = ["FileIndex", "INDEX_SUFFIX", "index_path", "build_index",
           "build_rib_index", "write_index", "load_index", "file_fingerprint"]

INDEX_SUFFIX = ".idx"
INDEX_VERSION = 1


@dataclass(frozen=True)
class FileIndex:
    """Summary statistics of one archive update file."""

    record_count: int
    announce_count: int
    withdraw_count: int
    state_count: int
    min_timestamp: Optional[int]
    max_timestamp: Optional[int]
    peer_asns: frozenset
    afis: frozenset

    @property
    def update_count(self) -> int:
        return self.announce_count + self.withdraw_count


def index_path(data_path: Union[str, Path]) -> Path:
    """Sidecar path for a data file: ``updates.<stamp>.gz.idx``."""
    data_path = Path(data_path)
    return data_path.with_name(data_path.name + INDEX_SUFFIX)


def build_index(records: Iterable[Record]) -> FileIndex:
    """Compute the index of a decoded record sequence."""
    announce = withdraw = state = 0
    min_ts: Optional[int] = None
    max_ts: Optional[int] = None
    peer_asns: set[int] = set()
    afis: set[int] = set()
    for record in records:
        peer_asns.add(record.peer_asn)
        if min_ts is None or record.timestamp < min_ts:
            min_ts = record.timestamp
        if max_ts is None or record.timestamp > max_ts:
            max_ts = record.timestamp
        if isinstance(record, StateRecord):
            state += 1
        else:
            assert isinstance(record, UpdateRecord)
            if record.is_announcement:
                announce += 1
            else:
                withdraw += 1
            afis.add(record.prefix.afi)
    return FileIndex(
        record_count=announce + withdraw + state,
        announce_count=announce,
        withdraw_count=withdraw,
        state_count=state,
        min_timestamp=min_ts,
        max_timestamp=max_ts,
        peer_asns=frozenset(peer_asns),
        afis=frozenset(afis),
    )


def build_rib_index(dump) -> FileIndex:
    """Index of one ``bview`` snapshot: every route entry counts as a
    reachability record at the dump instant."""
    route_count = sum(len(entries) for entries in dump.entries.values())
    afis = {prefix.afi for prefix in dump.entries}
    peer_asns = set()
    for prefix, entries in dump.entries.items():
        for entry in entries:
            peer_asns.add(dump.peers[entry.peer_index].asn)
    return FileIndex(
        record_count=route_count,
        announce_count=route_count,
        withdraw_count=0,
        state_count=0,
        min_timestamp=dump.timestamp if route_count else None,
        max_timestamp=dump.timestamp if route_count else None,
        peer_asns=frozenset(peer_asns),
        afis=frozenset(afis),
    )


def write_index(data_path: Union[str, Path], records: Iterable[Record],
                index: Optional[FileIndex] = None) -> Path:
    """Write the sidecar for ``data_path`` (which must already exist)."""
    data_path = Path(data_path)
    if index is None:
        index = build_index(records)
    stat = data_path.stat()
    payload = {
        "version": INDEX_VERSION,
        "file_size": stat.st_size,
        "file_mtime_ns": stat.st_mtime_ns,
        "record_count": index.record_count,
        "announce_count": index.announce_count,
        "withdraw_count": index.withdraw_count,
        "state_count": index.state_count,
        "min_timestamp": index.min_timestamp,
        "max_timestamp": index.max_timestamp,
        "peer_asns": sorted(index.peer_asns),
        "afis": sorted(index.afis),
    }
    path = index_path(data_path)
    path.write_text(json.dumps(payload, separators=(",", ":")))
    return path


def file_fingerprint(path: Union[str, Path]) -> Optional[tuple[int, int]]:
    """``(size, mtime_ns)`` of ``path``, or None when it cannot be stat'ed."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_size, stat.st_mtime_ns)


def load_index(data_path: Union[str, Path],
               fingerprint: Optional[tuple] = None) -> Optional[FileIndex]:
    """Load the sidecar for ``data_path``; None if missing, foreign-format
    or stale with respect to the data file's ``(size, mtime_ns)``
    ``fingerprint`` (stat'ed here when the caller has none)."""
    try:
        payload = json.loads(index_path(data_path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != INDEX_VERSION:
        return None
    try:
        if (payload["file_size"], payload["file_mtime_ns"]) != (
                fingerprint or file_fingerprint(data_path)):
            return None
        return FileIndex(
            record_count=payload["record_count"],
            announce_count=payload["announce_count"],
            withdraw_count=payload["withdraw_count"],
            state_count=payload["state_count"],
            min_timestamp=payload["min_timestamp"],
            max_timestamp=payload["max_timestamp"],
            peer_asns=frozenset(payload["peer_asns"]),
            afis=frozenset(payload["afis"]),
        )
    except (OSError, KeyError, TypeError):
        return None
