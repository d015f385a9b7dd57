"""On-disk raw-data archive: one implementation, two declared layouts.

A :class:`Layout` states where a collector platform keeps its files; the
RIS one (:data:`RIS_LAYOUT`, the default) is the real RIPE layout::

    <root>/<collector>/<YYYY.MM>/updates.<YYYYMMDD>.<HHMM>.gz   (5-minute bins)
    <root>/<collector>/<YYYY.MM>/bview.<YYYYMMDD>.<HHMM>.gz     (8-hourly RIBs)

and :mod:`repro.routeviews` declares the RouteViews one.
:class:`ArchiveWriter` bins a record stream into update files and writes
RIB snapshots; :class:`Archive` resolves time windows back to files and
iterates decoded records, merging collectors in time order — exactly the
access pattern the zombie pipeline (and pybgpstream) uses against the
real archives.  Neither class knows which platform it is serving.

The read path is built for throughput:

* every scan lists files afresh (one ``os.scandir`` per directory) and
  stats each once; that stat is checked against a decoded-file LRU
  cache (:mod:`repro.ris.cache`), which keeps recent decodes grouped
  by prefix, so re-scanning a window with another filter is nearly free;
* one :class:`~repro.mrt.bgp4mp.RecordDecoder` per :class:`Archive`
  decodes every updates file and bview it reads, so a peer, prefix,
  AS path or Aggregator repeated across files is decoded once (its
  intern tables are bounded; a new ``Archive`` starts cold);
* ``Archive(root, workers=N)`` decodes multi-file windows on a process
  pool (:mod:`repro.ris.parallel`) with an ordered heap-merge identical
  to the sequential path;
* :meth:`Archive.iter_updates` accepts a
  :class:`~repro.ris.pushdown.RecordFilter` so stream-level clauses are
  applied at (or before) decode time.
"""

from __future__ import annotations

import calendar
import os
import re
import warnings
from fnmatch import translate
from functools import lru_cache
from pathlib import Path
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence, Union)

from repro.bgp.messages import Record, merge_records, record_sort_key
from repro.mrt.bgp4mp import RecordDecoder
from repro.mrt.files import (create_mrt, read_rib_file, read_updates_file,
                             write_updates_file)
from repro.mrt.resilient import DecodeStats, ErrorPolicy
from repro.mrt.tabledump import RibDump, encode_rib_dump
from repro.ris.cache import DecodedFileCache, file_fingerprint
from repro.ris.parallel import iter_plan_parallel, worker_pool
from repro.ris.pushdown import RecordFilter
from repro.utils.timeutil import align_down, to_datetime

__all__ = ["Archive", "ArchiveWriter", "UPDATE_BIN_SECONDS",
           "RIB_DUMP_SECONDS", "DEFAULT_CACHE_FILES"]

UPDATE_BIN_SECONDS = 5 * 60
RIB_DUMP_SECONDS = 8 * 3600

#: Default size (in files) of the per-archive decoded-file LRU cache.
DEFAULT_CACHE_FILES = 32


class Layout(NamedTuple):
    """Where one collector platform keeps its files, relative to the
    archive root.  The templates take ``{collector}``, ``{month}``
    (``YYYY.MM``) and ``{stamp}`` (``YYYYMMDD.HHMM``); the file suffix
    selects the compression (:mod:`repro.mrt.files`)."""

    bin_seconds: int  #: time span of one updates file
    collectors: str   #: pattern whose first path component is a collector
    updates: str      #: updates-file template
    ribs: str         #: RIB-snapshot template

    def files(self, root: Path, template: str,
              collector: str = "*") -> list[Path]:
        """Every file under ``root`` that ``template`` (one of this
        layout's own) names, for one collector or all, sorted."""
        return [Path(path) for path in _walk(str(root), template.format(
            collector=collector, month="*", stamp="*"))]


def _walk(root: str, pattern: str, dirs_only: bool = False) -> list[str]:
    """Paths under ``root`` matching the ``/``-separated glob ``pattern``,
    in ``sorted(Path(root).glob(pattern))`` order (one scandir per dir)."""
    parts = pattern.split("/")
    level = [root]
    for depth, part in enumerate(parts):
        want_dir = dirs_only or depth < len(parts) - 1
        matches = re.compile(translate(part)).match
        found = []
        for parent in level:
            try:
                with os.scandir(parent) as entries:
                    names = sorted(entry.name for entry in entries
                                   if matches(entry.name)
                                   and (not want_dir or entry.is_dir()))
            except OSError:
                continue
            found += [os.path.join(parent, name) for name in names]
        level = found
    return level


RIS_LAYOUT = Layout(UPDATE_BIN_SECONDS, "rrc*",
                    "{collector}/{month}/updates.{stamp}.gz",
                    "{collector}/{month}/bview.{stamp}.gz")


@lru_cache(maxsize=1 << 16)
def _parse_file_stamp(name: str) -> int:
    """Timestamp from ``updates.YYYYMMDD.HHMM.gz`` / ``bview....`` names.

    Raises :class:`ValueError` for names that do not follow the archive
    convention (temp files, stray sidecars, foreign drops).
    """
    parts = name.split(".")
    stamp = "".join(parts[1:3])
    if (len(parts) != 4 or len(parts[1]) != 8 or len(stamp) != 12
            or not (stamp.isascii() and stamp.isdigit())):
        raise ValueError(f"not an archive file name: {name!r}")
    year, month, day = int(stamp[:4]), int(stamp[4:6]), int(stamp[6:8])
    hour, minute = int(stamp[8:10]), int(stamp[10:])
    if not (year and 1 <= month <= 12 and hour < 24 and minute < 60
            and 1 <= day <= calendar.monthrange(year, month)[1]):
        raise ValueError(f"not an archive file name: {name!r}")
    return calendar.timegm((year, month, day, hour, minute, 0))


def _warn_foreign_file(path: Path) -> None:
    """Default hook for non-conforming files found in month directories."""
    warnings.warn(f"skipping non-archive file in month directory: {path}",
                  RuntimeWarning, stacklevel=3)


class ArchiveWriter:
    """Write records and RIB dumps into an archive directory."""

    layout = RIS_LAYOUT

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def write_updates(self, collector: str, records: Iterable[Record]) -> list[Path]:
        """Bin records into update files; returns paths written.

        Records for bins that already exist on disk are merged with the
        existing content (needed when a simulation writes incrementally).
        """
        bins: dict[int, list[Record]] = {}
        for record in records:
            if record.collector != collector:
                raise ValueError(
                    f"record for {record.collector} routed to {collector} writer")
            bin_start = align_down(record.timestamp, self.layout.bin_seconds)
            bins.setdefault(bin_start, []).append(record)

        written = []
        for bin_start, items in sorted(bins.items()):
            path = self.update_path(collector, bin_start)
            if path.exists():
                existing = list(read_updates_file(path, collector))
                items = existing + items
            items.sort(key=record_sort_key)
            write_updates_file(path, items, sort=False)
            written.append(path)
        return written

    def write_rib(self, dump: RibDump) -> Path:
        """Write one RIB snapshot."""
        path = self.rib_path(dump.collector, dump.timestamp)
        with create_mrt(path) as handle:
            handle.write(encode_rib_dump(dump))
        return path

    def update_path(self, collector: str, bin_start: int) -> Path:
        return self._path(self.layout.updates, collector, bin_start)

    def rib_path(self, collector: str, timestamp: int) -> Path:
        return self._path(self.layout.ribs, collector, timestamp)

    def _path(self, template: str, collector: str, timestamp: int) -> Path:
        dt = to_datetime(timestamp)
        return self.root / template.format(
            collector=collector, month=f"{dt:%Y.%m}", stamp=f"{dt:%Y%m%d.%H%M}")


class Archive:
    """Read-side of the archive.

    ``workers`` > 1 decodes multi-file windows on a process pool;
    ``cache_size`` bounds the decoded-file LRU cache (0 disables it);
    ``on_foreign_file`` is called with each non-conforming path found in
    a month directory (default: a :class:`RuntimeWarning`).

    ``error_policy`` (:class:`~repro.mrt.resilient.ErrorPolicy`) is
    applied to every file read, serial, pooled and bview alike:
    ``"strict"`` fails fast on any corruption; ``"skip"`` (default) and
    ``"quarantine"`` contain bad bytes, counting them into
    :attr:`decode_stats` (and, under quarantine, preserving them in
    per-file sidecars); a damaged bview is left out whole.
    """

    layout = RIS_LAYOUT

    def __init__(self, root: Union[str, Path], workers: int = 1,
                 cache_size: int = DEFAULT_CACHE_FILES,
                 on_foreign_file: Optional[Callable[[Path], None]] = None,
                 error_policy: str = ErrorPolicy.SKIP):
        self.root = Path(root)
        if not self.root.exists():
            raise FileNotFoundError(f"archive root does not exist: {self.root}")
        self.workers = max(1, int(workers))
        self.cache = DecodedFileCache(cache_size) if cache_size > 0 else None
        self.on_foreign_file = on_foreign_file or _warn_foreign_file
        self.error_policy = ErrorPolicy.validate(error_policy)
        self.decode_stats = DecodeStats()
        self.decoder = RecordDecoder()  # pooled workers keep their own
        self.files_considered = 0

    def collectors(self) -> list[str]:
        """Collector directories present in the archive."""
        return sorted({os.path.relpath(p, self.root).split(os.sep)[0] for p
                       in _walk(str(self.root), self.layout.collectors, True)})

    def _files(self, template: str, collector: str, start: int,
               end: int) -> list[tuple[int, str]]:
        """``(file stamp, path)`` of the files of ``collector`` matching
        the layout ``template`` whose stamp falls in [start, end), in
        (month, stamp) order."""
        out = []
        for path in _walk(str(self.root), template.format(
                collector=collector, month="*", stamp="*")):
            try:
                stamp = _parse_file_stamp(os.path.basename(path))
            except ValueError:
                self.on_foreign_file(Path(path))
                continue
            if start <= stamp < end:
                out.append((stamp, path))
        return out

    def update_files(self, collector: str, start: int, end: int) -> list[Path]:
        """Update files covering the window [start, end).

        The file containing ``start`` is included even though its stamp
        may precede ``start`` (records are filtered at iteration time).
        """
        return [Path(path) for _, path in self._files(
            self.layout.updates, collector,
            align_down(start, self.layout.bin_seconds), end)]

    def _scan_plan(self, start: int, end: int,
                   collectors: Optional[Sequence[str]],
                   record_filter: Optional[RecordFilter]
                   ) -> list[tuple[str, list[tuple[str, Optional[tuple]]]]]:
        """Per-collector ``(path, fingerprint)`` lists of the update
        files covering the window, each stat'ed once."""
        if collectors is not None:
            collectors = list(collectors)
        elif record_filter is not None and record_filter.collectors:
            collectors = sorted(record_filter.collectors)
        else:
            collectors = self.collectors()
        window_start = align_down(start, self.layout.bin_seconds)
        plan = []
        for collector in collectors:
            if (record_filter is not None and record_filter.collectors
                    and collector not in record_filter.collectors):
                continue
            files = [(path, file_fingerprint(path)) for _, path in self._files(
                self.layout.updates, collector, window_start, end)]
            self.files_considered += len(files)
            plan.append((collector, files))
        return plan

    def stats(self) -> dict:
        """Read-path counters (cache + scan) for ``/metrics``."""
        return {
            "root": str(self.root),
            "workers": self.workers,
            "error_policy": self.error_policy,
            "cache": self.cache.stats() if self.cache is not None else None,
            "scan": {
                "files_considered": self.files_considered,
                # Stays until ROADMAP item 1 drops ris.index_skipped_files.
                "files_skipped": 0,
                "files_decoded": self.files_considered,
            },
            "decode": self.decode_stats.as_dict(),
        }

    def _decoded(self, path: str, fingerprint: Optional[tuple],
                 collector: str,
                 record_filter: Optional[RecordFilter]) -> Iterable[Record]:
        """Decode one file, via the LRU cache when possible.

        The cache only ever stores complete unfiltered decodes, so a
        filtered scan populates nothing but can still be served from a
        prior unfiltered decode of the same file.
        """
        if self.cache is not None:
            cached = self.cache.get(path, fingerprint)
            if cached is not None:
                return cached.select(record_filter)
            if record_filter is None:
                records = tuple(read_updates_file(
                    path, collector, error_policy=self.error_policy,
                    stats=self.decode_stats, decoder=self.decoder))
                self.cache.put(path, records, fingerprint)
                return records
        return read_updates_file(path, collector, record_filter=record_filter,
                                 error_policy=self.error_policy,
                                 stats=self.decode_stats, decoder=self.decoder)

    def iter_updates(self, start: int, end: int,
                     collectors: Optional[Sequence[str]] = None,
                     record_filter: Optional[RecordFilter] = None
                     ) -> Iterator[Record]:
        """Iterate decoded records in [start, end) over all collectors,
        merged in global (time, collector, peer) order.

        ``record_filter`` pushes stream-level clauses down to (or below)
        decode time; the yielded sequence is exactly the unfiltered
        sequence with non-matching records removed.
        """
        plan = self._scan_plan(start, end, collectors, record_filter)
        total_files = sum(len(files) for _, files in plan)
        if self.workers > 1 and total_files > 1:
            merged = self._iter_parallel(plan, record_filter)
        else:
            merged = self._iter_sequential(plan, record_filter)
        for record in merged:
            if start <= record.timestamp < end:
                yield record

    def _iter_sequential(self, plan: Sequence[tuple[str, Sequence[tuple]]],
                         record_filter: Optional[RecordFilter]
                         ) -> Iterator[Record]:
        def stream(collector: str, files: Sequence[tuple]) -> Iterator[Record]:
            for path, fingerprint in files:
                yield from self._decoded(path, fingerprint, collector,
                                         record_filter)

        return merge_records(stream(c, files) for c, files in plan)

    def _iter_parallel(self, plan: Sequence[tuple[str, Sequence[tuple]]],
                       record_filter: Optional[RecordFilter]
                       ) -> Iterator[Record]:
        with worker_pool(self.workers) as pool:
            if pool is None:  # pools unavailable on this platform
                yield from self._iter_sequential(plan, record_filter)
                return
            yield from iter_plan_parallel(pool, plan, record_filter, self.cache,
                                          error_policy=self.error_policy,
                                          stats=self.decode_stats)

    def iter_ribs(self, start: int, end: int,
                  collectors: Optional[Sequence[str]] = None) -> Iterator[RibDump]:
        """Iterate RIB snapshots in [start, end), in time order."""
        collectors = list(collectors) if collectors is not None else self.collectors()
        stamped = [item for collector in collectors
                   for item in self._files(self.layout.ribs, collector, start, end)]
        for _, path in sorted(stamped):
            dump = read_rib_file(path, self.error_policy, self.decode_stats,
                                 self.decoder)
            if dump is not None:
                yield dump
