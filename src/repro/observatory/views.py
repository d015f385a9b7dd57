"""Materialized read views over the event store: the read model.

The §5 lifespan study is a *query* workload: "which prefixes are
zombies right now, and for how long" asked over and over against a
slowly growing event history.  Serving every such query with a store
scan (`EventStore.events()`) costs O(events) per request;
:class:`MaterializedViews` makes repeated queries O(new events) by
keeping the rows every API route serves up to date incrementally:

* the **latest lifespan per prefix** — each ``lifespan`` event is a
  cumulative per-prefix summary, so only the newest matters;
* the **outbreak events** in seq order (``GET /outbreaks``) and the
  same events **per prefix**, plus the raw **resurrection events per
  prefix** (``GET /zombies/<prefix>``; its counts are their lengths);
* the **merged resurrection timeline** — update-scale ``resurrection``
  events and RIB-scale ``lifespan`` events flagged ``resurrection``,
  tagged with their scale and ordered by ``(time, seq)`` exactly as
  ``GET /resurrections`` has always returned them;
* the latest **forensics snapshot per outbreak ID** and the
  **event count per kind** (``/metrics``).

Memory is O(outbreak + resurrection + latest-lifespan + forensics
events) — superseded lifespans, the bulk of a long history, are not
held.

Refresh follows the store through a
:class:`~repro.observatory.store.TailCursor`: an unchanged generation
means history behind the watermark is intact, so
:meth:`MaterializedViews.refresh` folds exactly the events in
``[watermark, next_seq)`` — never past the published position, so the
views always correspond to a position the server's ETags can name.
A generation bump (truncate, compact,
doctor repair) or a watermark regression triggers a full rebuild.
This works identically for a shared-process store and a readonly
store tailing a concurrent writer — the readonly store re-reads its
manifest inside ``position()`` / ``events()``.

A shard worker's views are the same views over the same one store,
built with ``shard=(index, count)``: the fold skips every event whose
prefix :func:`shard_for` routes elsewhere, so the worker answers for
exactly its slice while seqs, positions and ETags stay the store's own.

The module also hosts the cursor pagination helpers of the listings
(served over HTTP, and offline by ``observatory query`` through the
same ``ObservatoryApp.respond``): pages are slices of a
deterministically ordered listing, the cursor is the sort key of the
last row served, and a follow-up page starts strictly after it — so
already-served pages never shift under concurrent appends.
"""

from __future__ import annotations

import bisect
import threading
import time
import zlib
from typing import Any, Callable, Optional

from repro.observatory.store import EventStore, TailCursor

__all__ = ["CursorError", "MaterializedViews", "paginate",
           "pair_cursor", "seq_cursor", "shard_for", "shard_name"]


def shard_for(prefix: str, count: int) -> int:
    """Which of ``count`` shards owns ``prefix`` — stable across
    processes and Python versions (crc32, not the salted ``hash``)."""
    if count <= 0:
        raise ValueError("shard count must be positive")
    return zlib.crc32(prefix.encode("utf-8")) % count


def shard_name(index: int) -> str:
    """Canonical shard display name (``shard-00`` ...)."""
    return f"shard-{index:02d}"


class CursorError(ValueError):
    """A pagination cursor that cannot be parsed."""


def seq_cursor(raw: str) -> int:
    """Cursor for seq-ordered listings: the last seq served."""
    try:
        return int(raw)
    except ValueError:
        raise CursorError(f"cursor must be an event seq, got {raw!r}")


def pair_cursor(raw: str) -> tuple[int, int]:
    """Cursor for ``(time, seq)``-ordered listings: ``"<time>:<seq>"``."""
    time, sep, seq = raw.partition(":")
    try:
        if not sep:
            raise ValueError(raw)
        return int(time), int(seq)
    except ValueError:
        raise CursorError(f"cursor must look like '<time>:<seq>', "
                          f"got {raw!r}")


def paginate(rows: list, key: Callable[[Any], Any],
             cursor: Optional[Any] = None,
             limit: Optional[int] = None) -> tuple[list, Optional[Any]]:
    """Slice ``rows`` (sorted ascending by ``key``) to one page.

    ``cursor`` is the *parsed* sort key of the last row of the previous
    page; the page starts strictly after it, so a cursor past the end
    yields an empty page.  Returns ``(page, next_cursor)`` where
    ``next_cursor`` is the new last key, or ``None`` when the page
    reaches the end of the listing (or no ``limit`` was given).
    """
    start = 0
    if cursor is not None:
        lo, hi = 0, len(rows)
        while lo < hi:  # bisect_right over key(rows[i])
            mid = (lo + hi) // 2
            if key(rows[mid]) <= cursor:
                lo = mid + 1
            else:
                hi = mid
        start = lo
    if limit is None:
        return rows[start:], None
    page = rows[start:start + limit]
    if page and start + limit < len(rows):
        return page, key(page[-1])
    return page, None


class MaterializedViews:
    """Incrementally maintained query views over one :class:`EventStore`.

    Call :meth:`refresh` before reading; it is cheap when nothing was
    appended (one manifest read for a readonly store, nothing at all
    for a shared-process one).
    """

    #: Bound on the settle loop: a refresh re-checks the generation
    #: after folding and rebuilds when a truncate/compact raced it.
    _MAX_SETTLE = 3

    def __init__(self, store: EventStore,
                 shard: Optional[tuple[int, int]] = None):
        self.store = store
        #: ``(index, count)``: fold only the events whose prefix routes
        #: to shard ``index`` of ``count`` (``None`` folds everything).
        self.shard = shard
        self.refreshes = 0
        self.rebuilds = 0
        self.events_folded = 0
        #: Wall time of the most recent refresh that involved a full
        #: rebuild — the store-format-sensitive number (a rebuild
        #: replays all of history; ``observatory.views.rebuild_s`` in
        #: ``BENCHMARK.json``).
        self.last_rebuild_seconds: Optional[float] = None
        #: One lock for maintenance and reads: the server's executor
        #: threads refresh and query concurrently.
        self._lock = threading.RLock()
        self._tail = TailCursor(store)
        self._reset()

    def _reset(self) -> None:
        self._latest: dict[str, dict[str, Any]] = {}
        #: ``outbreak`` events in seq order (the ``GET /outbreaks``
        #: listing) and the same dicts grouped per prefix.
        self._outbreaks: list[dict[str, Any]] = []
        self._prefix_outbreaks: dict[Optional[str],
                                     list[dict[str, Any]]] = {}
        #: Raw ``resurrection`` events per prefix: the timeline rows
        #: below carry an added ``scale`` key and are not the same bytes.
        self._prefix_resurrections: dict[Optional[str],
                                         list[dict[str, Any]]] = {}
        self._timeline_keys: list[tuple[int, int]] = []
        self._timeline: list[dict[str, Any]] = []
        #: outbreak id -> its ``forensics`` snapshot event (latest
        #: wins) — the O(1) lookup behind ``/outbreaks/<id>/forensics``.
        self._forensics: dict[str, dict[str, Any]] = {}
        self._kind_counts: dict[str, int] = {}

    # -- maintenance ------------------------------------------------------

    @property
    def watermark(self) -> int:
        """Events below this seq are folded into the views."""
        return self._tail.seq

    def refresh(self, count: bool = True) -> int:
        """Bring the views up to the store's published position.

        Reads only events at or above the watermark; a generation bump
        or watermark regression discards everything and rebuilds (the
        first refresh of a fresh instance counts as a rebuild).
        Returns how many events were folded.  ``count=False`` leaves
        ``refreshes`` alone: a ``/metrics`` scrape reports that counter
        and must not move it.
        """
        with self._lock:
            if count:
                self.refreshes += 1
            return self._refresh_locked()

    def _refresh_locked(self) -> int:
        folded = 0
        started = time.perf_counter()
        rebuilds_before = self.rebuilds
        for _ in range(self._MAX_SETTLE):
            if self._tail.poll():
                self._reset()
                self.rebuilds += 1
            for event in self._tail.read():
                self._fold(event)
                folded += 1
            # If a truncate/compact raced the scan we may have folded a
            # mix of old and new history; the next pass detects the
            # generation change and rebuilds.
            if self.store.generation == self._tail.generation:
                break
        if self.rebuilds > rebuilds_before:
            self.last_rebuild_seconds = time.perf_counter() - started
        self.events_folded += folded
        return folded

    def _fold(self, event: dict[str, Any]) -> None:
        if self.shard is not None:
            index, count = self.shard
            # Every event kind carries a prefix; one without still
            # needs exactly one deterministic owner.
            if shard_for(event.get("prefix") or "", count) != index:
                return
        kind = event["kind"]
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        if kind == "lifespan":
            self._latest[event["prefix"]] = event
            if event["resurrection"]:
                self._timeline_insert({**event, "scale": "rib"})
        elif kind == "outbreak":
            self._outbreaks.append(event)
            self._prefix_outbreaks.setdefault(
                event.get("prefix"), []).append(event)
        elif kind == "resurrection":
            self._prefix_resurrections.setdefault(
                event.get("prefix"), []).append(event)
            self._timeline_insert({**event, "scale": "updates"})
        elif kind == "forensics":
            self._forensics[event["outbreak_id"]] = event

    def _timeline_insert(self, entry: dict[str, Any]) -> None:
        key = (entry["time"], entry["seq"])
        index = bisect.bisect_left(self._timeline_keys, key)
        self._timeline_keys.insert(index, key)
        self._timeline.insert(index, entry)

    # -- queries ----------------------------------------------------------

    def _select(self, rows: list[dict[str, Any]], prefix: Optional[str],
                since: Optional[int], until: Optional[int]
                ) -> list[dict[str, Any]]:
        """``rows`` with an exact ``prefix`` and a time in
        ``[since, until)``."""
        with self._lock:
            return [row for row in rows
                    if (prefix is None or row.get("prefix") == prefix)
                    and (since is None or row["time"] >= since)
                    and (until is None or row["time"] < until)]

    def outbreaks(self, prefix: Optional[str] = None,
                  since: Optional[int] = None,
                  until: Optional[int] = None) -> list[dict[str, Any]]:
        """``outbreak`` events in seq order — the ``GET /outbreaks``
        listing."""
        with self._lock:
            rows = self._outbreaks if prefix is None \
                else self._prefix_outbreaks.get(prefix, [])
            return self._select(rows, prefix, since, until)

    def zombies(self) -> list[dict[str, Any]]:
        """Prefixes currently in a zombie segment, prefix-sorted —
        the ``GET /zombies`` listing."""
        with self._lock:
            return [event for _, event in sorted(self._latest.items())
                    if event["segment_count"] > 0]

    def zombie(self, prefix: str) -> tuple[Optional[dict[str, Any]],
                                           list[dict[str, Any]],
                                           list[dict[str, Any]]]:
        """One prefix at one position: its latest ``lifespan`` event (or
        ``None``), its ``outbreak`` events and its ``resurrection``
        events — the ``GET /zombies/<prefix>`` body."""
        with self._lock:
            return (self._latest.get(prefix),
                    list(self._prefix_outbreaks.get(prefix, ())),
                    list(self._prefix_resurrections.get(prefix, ())))

    def resurrections(self, prefix: Optional[str] = None,
                      since: Optional[int] = None,
                      until: Optional[int] = None) -> list[dict[str, Any]]:
        """The merged two-scale timeline, ``(time, seq)``-ordered —
        the ``GET /resurrections`` listing."""
        return self._select(self._timeline, prefix, since, until)

    def forensics(self, outbreak_id: str) -> Optional[dict[str, Any]]:
        """The ``forensics`` snapshot event for one outbreak ID."""
        with self._lock:
            return self._forensics.get(outbreak_id)

    def kind_counts(self) -> dict[str, int]:
        """Events folded so far by kind (``observatory_events{kind=}``
        in ``/metrics``)."""
        with self._lock:
            return dict(self._kind_counts)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "watermark": self._tail.seq,
                "generation": self._tail.generation,
                "prefixes": len(self._latest),
                "timeline_entries": len(self._timeline),
                "forensics_entries": len(self._forensics),
                "refreshes": self.refreshes,
                "rebuilds": self.rebuilds,
                "events_folded": self.events_folded,
                "last_rebuild_seconds": self.last_rebuild_seconds,
            }
