"""Decoded-file LRU cache for the archive read path.

Benchmarks and experiments habitually re-scan the same time window with
different detectors; without a cache every scan pays the full gzip +
MRT decode cost again.  :class:`DecodedFileCache` keeps the most
recently decoded update files as immutable :class:`CachedDecode`
entries, keyed by path and ``(size, mtime_ns)`` fingerprint, so any
rewrite of the underlying file — including an
:class:`~repro.ris.archive.ArchiveWriter` merge — invalidates the entry
automatically.  The caller passes the fingerprint from the one stat its
scan already made (:func:`file_fingerprint`); the cache is the only
thing that stat is checked against.

Entries always hold the *complete, unfiltered* decode of a file;
window trimming and filter push-down are applied on the way out
(:meth:`CachedDecode.select`), so one cached decode serves every
consumer regardless of its filter; a ``prefix_exact`` filter starts
from its prefixes' record positions.  Eviction only drops the cache's
reference, so an entry a caller already holds stays whole.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.bgp.messages import Record, UpdateRecord

__all__ = ["CachedDecode", "DecodedFileCache", "file_fingerprint"]


def file_fingerprint(path: Union[str, Path]) -> Optional[tuple[int, int]]:
    """``(size, mtime_ns)`` of ``path``, or None when it cannot be stat'ed."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_size, stat.st_mtime_ns)


class CachedDecode:
    """One file's complete decode at one fingerprint; its records are
    grouped by prefix on the first ``prefix_exact`` selection."""

    __slots__ = ("fingerprint", "records", "_positions")

    def __init__(self, fingerprint: tuple[int, int],
                 records: tuple[Record, ...]):
        self.fingerprint, self.records = fingerprint, records
        self._positions: Optional[dict] = None

    def select(self, record_filter) -> Sequence[Record]:
        """The cached records ``record_filter`` keeps, in file order."""
        records = self.records
        if record_filter is None:
            return records
        if not record_filter.prefix_exact:
            return [r for r in records if record_filter.matches_record(r)]
        if self._positions is None:
            self._positions = {}
            for at, record in enumerate(records):
                if isinstance(record, UpdateRecord):
                    self._positions.setdefault(record.prefix, []).append(at)
        groups = [self._positions.get(prefix, ())
                  for prefix in record_filter.prefix_exact]
        wanted = (groups[0] if len(groups) == 1
                  else sorted(chain.from_iterable(groups)))
        return [records[at] for at in wanted
                if record_filter.matches_record(records[at])]


class DecodedFileCache:
    """LRU cache of fully-decoded update files."""

    def __init__(self, max_files: int = 32):
        if max_files <= 0:
            raise ValueError("max_files must be positive")
        self.max_files = max_files
        self._entries: "OrderedDict[str, CachedDecode]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, path: Union[str, Path],
            fingerprint: Optional[tuple[int, int]]) -> Optional[CachedDecode]:
        """The decode of ``path`` at ``fingerprint``, or None (miss/stale)."""
        key = str(path)
        entry = self._entries.get(key)
        if entry is not None:
            if entry.fingerprint == fingerprint:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            del self._entries[key]  # stale: file was rewritten
        self.misses += 1
        return None

    def put(self, path: Union[str, Path], records,
            fingerprint: Optional[tuple[int, int]]) -> None:
        """Keep ``records`` as the decode of ``path`` at ``fingerprint``
        (nothing is kept for a file that could not be stat'ed)."""
        if fingerprint is None:
            return
        key = str(path)
        self._entries[key] = CachedDecode(fingerprint, tuple(records))
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_files:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict:
        """Counters for dashboards and the observatory ``/metrics``."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_files": self.max_files,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
