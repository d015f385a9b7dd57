"""Process-pool decode of multi-file archive windows.

MRT decode is pure-python CPU work, so multi-file windows are decoded
with a :class:`~concurrent.futures.ProcessPoolExecutor`: each worker
decompresses and decodes one file (with filter push-down applied
in the worker, so non-matching records never cross the process
boundary), and the parent merges the per-collector streams with the
same ``(time, collector, peer)`` heap-merge as the sequential path —
the output sequence is byte-for-byte identical.

Per-collector file order is preserved by consuming futures in
submission order; a small prefetch window per collector keeps the pool
busy without buffering a whole window's records in memory.

Worker failures carry context: every exception escaping a worker is
wrapped in :class:`~repro.mrt.files.MRTDecodeError` tagged with the
source file path, so the parallel and serial paths report identically
and a crashed pool never hides *which* archive file was poisoned.
Each worker reads its file under the archive's
:class:`~repro.mrt.resilient.ErrorPolicy` and ships its per-file
:class:`~repro.mrt.resilient.DecodeStats` back to the parent for
aggregation.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from repro.bgp.messages import Record, merge_records
from repro.mrt.files import MRTDecodeError, read_updates_file
from repro.mrt.resilient import DecodeStats, ErrorPolicy
from repro.ris.cache import DecodedFileCache
from repro.ris.pushdown import RecordFilter

__all__ = ["decode_file", "iter_plan_parallel", "worker_pool"]

#: Files scheduled ahead of consumption, per collector stream.
PREFETCH_PER_COLLECTOR = 2


def decode_file(path: str, collector: str,
                record_filter: Optional[RecordFilter] = None,
                error_policy: str = ErrorPolicy.SKIP
                ) -> tuple[list[Record], dict]:
    """Worker entry point: fully decode one update file.

    Module-level so it pickles; returns ``(records, stats_dict)`` —
    records cross the process boundary in one batch per file, and the
    stats dict carries the decode counters (containment counters all
    zero when the file was clean).
    """
    stats = DecodeStats()
    try:
        records = list(read_updates_file(path, collector,
                                         record_filter=record_filter,
                                         error_policy=error_policy,
                                         stats=stats))
    except MRTDecodeError:
        raise  # already carries the file path
    except Exception as exc:
        # Never let a bare worker exception cross the pool boundary
        # without saying which file it came from.
        raise MRTDecodeError(f"{path}: {exc}") from exc
    return records, stats.as_dict()


@contextmanager
def worker_pool(workers: int):
    """A process pool, or None when pools are unavailable (the caller
    falls back to sequential decode)."""
    pool = None
    try:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, ImportError):
            yield None
            return
        yield pool
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _collector_stream(pool: Executor, collector: str,
                      files: Sequence[tuple[str, Optional[tuple]]],
                      record_filter: Optional[RecordFilter],
                      cache: Optional[DecodedFileCache],
                      error_policy: str,
                      stats: Optional[DecodeStats]) -> Iterator[Record]:
    """Records of one collector, files decoded ahead out-of-process but
    yielded strictly in file order."""
    pending: deque = deque()  # (path, fingerprint, records, future)
    remaining = iter(files)

    def schedule_next() -> None:
        for path, fingerprint in remaining:
            if cache is not None:
                cached = cache.get(path, fingerprint)
                if cached is not None:  # the records, taken at the hit
                    pending.append((path, fingerprint,
                                    cached.select(record_filter), None))
                    return
            pending.append((path, fingerprint, None, pool.submit(
                decode_file, path, collector, record_filter,
                error_policy)))
            return

    for _ in range(PREFETCH_PER_COLLECTOR):
        schedule_next()
    while pending:
        path, fingerprint, records, future = pending.popleft()
        schedule_next()
        if records is None:
            records, worker_stats = future.result()
            if stats is not None:
                stats.merge(worker_stats)
            if cache is not None and record_filter is None:
                cache.put(path, records, fingerprint)
        yield from records


def iter_plan_parallel(pool: Executor,
                       plan: Sequence[tuple[str, Sequence[tuple[str, Optional[tuple]]]]],
                       record_filter: Optional[RecordFilter] = None,
                       cache: Optional[DecodedFileCache] = None,
                       error_policy: str = ErrorPolicy.SKIP,
                       stats: Optional[DecodeStats] = None
                       ) -> Iterator[Record]:
    """Decode a ``[(collector, [(path, fingerprint), ...]), ...]`` plan on
    ``pool``; merge the streams in ``(time, collector, peer)`` order."""
    return merge_records(
        _collector_stream(pool, collector, paths, record_filter, cache,
                          error_policy, stats)
        for collector, paths in plan)
