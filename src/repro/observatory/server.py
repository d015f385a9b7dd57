"""JSON HTTP query layer over the event store (stdlib-only).

Endpoints::

    GET /healthz                liveness + store position
    GET /outbreaks              outbreak events  (?prefix= &since= &until=)
    GET /outbreaks/<id>/forensics   pre-outbreak snapshot: per-peer last
                                    paths, aggregator clock, suspect AS
    GET /zombies                latest lifespan summary per zombie prefix
    GET /zombies/<prefix>       one prefix: lifespan + outbreaks + resurrections
    GET /resurrections          update- and dump-scale resurrections, merged
    GET /metrics                Prometheus text exposition

The server can share an in-process :class:`EventStore` with a running
ingest, or open a store ``readonly`` and serve while a *separate*
process appends to it (the store's recovery rules make concurrent reads
safe).  The one live-engine input is an
:class:`~repro.observatory.supervisor.ObservatorySupervisor`: while it
runs an engine, ``/healthz`` and ``/metrics`` fold in that engine's
ingest and forensics-ring counters and its archive's read-path
counters (decoded-file cache hits/misses/evictions, files scanned).

This module is transport-neutral: :class:`ObservatoryApp` holds
routing, ETags, pagination, counters and metrics rendering, and answers
one request at a time through :meth:`ObservatoryApp.respond` — the only
thing a transport calls.  The HTTP transport is the asyncio server in
:mod:`repro.observatory.asyncserver`, which adds the ``/stream/*`` SSE
endpoints on the same app core.

The read path is built for *repeated* queries (the §5 lifespan workload
asked at production rate):

* every data route is answered from :class:`.views.MaterializedViews`,
  which folds only newly appended events per request — this module
  never scans the store, and ``/healthz`` reads the manifest only;
* what a list endpoint is (rows, order, cursor codec, parameters in
  validation order) is one row of :data:`LISTINGS`, served by one
  handler and shared with the federated tier;
* every data endpoint carries a strong ``ETag`` derived from the
  store's ``(generation, next_seq)`` position plus the canonical query,
  honours ``If-None-Match`` with ``304 Not Modified``, and sends
  ``Cache-Control: max-age=0, must-revalidate`` so caches always
  revalidate (one cheap position read) instead of serving stale data;
* the list endpoints (``/outbreaks``, ``/zombies``, ``/resurrections``)
  paginate with ``?limit=&cursor=``: pages are slices of a
  deterministically ordered listing and the cursor is the sort key of
  the last row served, so pages already served never shift while an
  ingest appends.  Without paging parameters the bodies are identical
  to the historical full listings.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Callable, NamedTuple, Optional
from urllib.parse import unquote

from repro.observatory.forensics import render_forensics
from repro.observatory.restart import STATES
from repro.observatory.store import EventStore
from repro.observatory.views import (
    CursorError,
    MaterializedViews,
    paginate,
    pair_cursor,
    seq_cursor,
    shard_name,
)

__all__ = ["LISTINGS", "Listing", "ObservatoryApp", "forensics_outbreak_id"]

#: Data responses may be cached but must be revalidated (the ETag makes
#: revalidation a 304 with no body).
CACHE_CONTROL = "max-age=0, must-revalidate"

_FORENSICS_HEAD = "/outbreaks/"
_FORENSICS_TAIL = "/forensics"


def forensics_outbreak_id(path: str) -> Optional[str]:
    """The decoded outbreak ID of a ``/outbreaks/<id>/forensics`` path
    (None when the path is not a forensics route).  Shared with the
    federation router, which derives the owning shard from the ID."""
    if not (path.startswith(_FORENSICS_HEAD)
            and path.endswith(_FORENSICS_TAIL)):
        return None
    identifier = path[len(_FORENSICS_HEAD):-len(_FORENSICS_TAIL)]
    return unquote(identifier) if identifier else None


def _param(params: dict, name: str, convert: Callable[[str], Any] = str):
    """The first value of one query parameter through ``convert``
    (``None`` when absent)."""
    values = params.get(name)
    if not values:
        return None
    try:
        return convert(values[0])
    except CursorError:
        raise
    except ValueError:
        raise _BadRequest(f"parameter {name!r} must be an integer")


def _etag_matches(etag: str, header: Optional[str]) -> bool:
    if not header:
        return False
    # Concrete matches only: honouring ``*`` ("any current
    # representation") would answer 304 for resources that do not
    # exist, since the match runs before the data lookup.
    return etag in (value.strip() for value in header.split(","))


def _canon(path: str, params: dict) -> str:
    """The canonical query string ETags and response caches key on."""
    return path + "?" + "&".join(
        f"{key}={value}"
        for key in sorted(params)
        for value in params[key])


class _BadRequest(Exception):
    pass


class _NotFound(Exception):
    """A routing miss: unknown path or unknown resource.

    Deliberately distinct from ``KeyError`` — a ``KeyError`` escaping a
    handler is a *data* bug (e.g. a lifespan event missing a field) and
    must surface as a 500, not masquerade as "no such resource".
    """


class Listing(NamedTuple):
    """What one list endpoint *is* — the monolithic handler, the
    federation's 400-parity check and its merge all read this row."""

    #: Body key of the rows; the endpoint is ``/<name>``.
    name: str
    #: Row source: ``rows(views, **filters)``, ascending by ``key``.
    rows: Callable[..., list[dict[str, Any]]]
    #: Sort key of a row — also what a cursor names.
    key: Callable[[dict[str, Any]], Any]
    #: ``next_cursor`` text of a sort key.
    format: Callable[[Any], str]
    #: ``(parameter, converter)`` in validation order, after ``limit``:
    #: the first bad one is the one the 400 names.  ``cursor`` parses
    #: to a sort key; every other entry is a filter ``rows`` accepts.
    params: tuple[tuple[str, Callable[[str], Any]], ...]

    def parse(self, params: dict
              ) -> tuple[Optional[int], Any, dict[str, Any]]:
        """``(limit, cursor, filters)`` of one request, or a 400."""
        limit = _param(params, "limit", int)
        if limit is not None and limit <= 0:
            raise _BadRequest("parameter 'limit' must be a positive integer")
        filters = {name: _param(params, name, convert)
                   for name, convert in self.params}
        return limit, filters.pop("cursor"), filters


LISTINGS: dict[str, Listing] = {
    "/outbreaks": Listing(
        "outbreaks", MaterializedViews.outbreaks,
        key=lambda row: row["seq"], format=str,
        params=(("cursor", seq_cursor), ("prefix", str),
                ("since", int), ("until", int))),
    "/zombies": Listing(
        "zombies", MaterializedViews.zombies,
        key=lambda row: row["prefix"], format=str,
        params=(("cursor", str),)),
    "/resurrections": Listing(
        "resurrections", MaterializedViews.resurrections,
        key=lambda row: (row["time"], row["seq"]),
        format=lambda key: f"{key[0]}:{key[1]}",
        params=(("prefix", str), ("since", int), ("until", int),
                ("cursor", pair_cursor))),
}


class ObservatoryApp:
    """Transport-neutral core of the observatory API.

    Holds the store, the materialized views and every request counter,
    and answers one request at a time through :meth:`respond` — pure
    ``(path, params, If-None-Match) -> (status, headers, payload)``.
    :class:`repro.observatory.asyncserver.AsyncObservatoryServer` calls
    it from concurrent executor threads, so the counters stay
    lock-guarded here.
    """

    def __init__(self, store: EventStore, supervisor=None,
                 shard: Optional[tuple[int, int]] = None):
        self.store = store
        self.supervisor = supervisor
        #: ``(index, count)`` of a shard worker, which answers for the
        #: prefixes that shard owns (``None``: the whole store).
        self.shard = shard
        self.views = MaterializedViews(store, shard=shard)
        #: Requests run concurrently; all request counters share
        #: one lock so none of them undercount.
        self._counter_lock = threading.Lock()
        self._requests_served = 0
        self._responses_dropped = 0
        self._not_modified = 0
        #: Rendered 200s keyed by strong ETag.  The ETag names the
        #: store position *and* the canonical query, so a hit is
        #: byte-identical to a re-render by definition; repeat polls of
        #: an unchanged listing skip the view lookup and the JSON dump.
        self._response_cache: dict[
            str, tuple[int, list[tuple[str, str]], bytes]] = {}
        self._response_cache_hits = 0
        #: Attached by the async transport's stream hub; when present,
        #: ``render_metrics`` folds the ``observatory_stream_*`` series.
        self.stream_stats = None

    # -- one-request entry point ------------------------------------------

    def respond(self, path: str, params: dict,
                if_none_match: Optional[str] = None
                ) -> tuple[int, list[tuple[str, str]], bytes]:
        """Answer one GET: ``(status, headers, payload)``.

        Every behaviour the endpoints promise — ETag/304 revalidation,
        pagination, the 400/404/500 error split — lives here, so any
        transport that forwards requests verbatim is body-identical to
        any other by construction.
        """
        self.count_request()
        try:
            if path == "/metrics":
                return self._text_response(200, self.render_metrics())
            etag = None
            if self.cacheable(path):
                etag = self.etag_for(path, params)
                if _etag_matches(etag, if_none_match):
                    self.count_not_modified()
                    return 304, [("ETag", etag),
                                 ("Cache-Control", CACHE_CONTROL),
                                 ("Content-Length", "0")], b""
                cached = self._cached_response(etag)
                if cached is not None:
                    return cached
            body = self.handle(path, params)
        except _BadRequest as exc:
            return self._json_response(400, {"error": str(exc)})
        except CursorError as exc:
            return self._json_response(400, {"error": str(exc)})
        except _NotFound:
            return self._json_response(
                404, {"error": f"no such resource: {path}"})
        except Exception as exc:  # noqa: BLE001 - data bugs become 500s
            return self._json_response(
                500, {"error": "internal server error: "
                               f"{type(exc).__name__}: {exc}"})
        response = self._json_response(200, body, etag=etag)
        if etag is not None:
            self._remember_response(etag, response)
        return response

    #: Rendered responses kept; enough for every listing's recent pages.
    RESPONSE_CACHE_ENTRIES = 128

    def _cached_response(self, etag: str
                         ) -> Optional[tuple[int, list[tuple[str, str]],
                                             bytes]]:
        with self._counter_lock:
            response = self._response_cache.get(etag)
            if response is not None:
                self._response_cache_hits += 1
                # Re-insert: plain-dict LRU, eviction pops oldest.
                self._response_cache.pop(etag)
                self._response_cache[etag] = response
            return response

    def _remember_response(self, etag: str,
                           response: tuple[int, list[tuple[str, str]],
                                           bytes]) -> None:
        with self._counter_lock:
            self._response_cache.pop(etag, None)
            self._response_cache[etag] = response
            while len(self._response_cache) > self.RESPONSE_CACHE_ENTRIES:
                self._response_cache.pop(next(iter(self._response_cache)))

    @staticmethod
    def _json_response(status: int, body: dict[str, Any],
                       etag: Optional[str] = None
                       ) -> tuple[int, list[tuple[str, str]], bytes]:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        headers = [("Content-Type", "application/json"),
                   ("Content-Length", str(len(payload)))]
        if etag is not None:
            headers += [("ETag", etag), ("Cache-Control", CACHE_CONTROL)]
        return status, headers, payload

    @staticmethod
    def _text_response(status: int, text: str
                       ) -> tuple[int, list[tuple[str, str]], bytes]:
        payload = text.encode("utf-8")
        return status, [
            ("Content-Type", "text/plain; version=0.0.4; charset=utf-8"),
            ("Content-Length", str(len(payload)))], payload

    # -- counters ---------------------------------------------------------

    def count_request(self) -> None:
        with self._counter_lock:
            self._requests_served += 1

    def count_dropped_response(self) -> None:
        with self._counter_lock:
            self._responses_dropped += 1

    def count_not_modified(self) -> None:
        with self._counter_lock:
            self._not_modified += 1

    @property
    def requests_served(self) -> int:
        with self._counter_lock:
            return self._requests_served

    @property
    def responses_dropped(self) -> int:
        with self._counter_lock:
            return self._responses_dropped

    @property
    def not_modified_served(self) -> int:
        with self._counter_lock:
            return self._not_modified

    # -- caching ----------------------------------------------------------

    @staticmethod
    def cacheable(path: str) -> bool:
        """Pattern-level test for paths that serve cacheable data.
        The conditional-request short-circuit only runs on these, so a
        request for an unknown path falls through to its 404 instead of
        being answered 304 (``etag_for`` succeeds for *any* path)."""
        return (path in LISTINGS
                or path.startswith("/zombies/")
                or forensics_outbreak_id(path) is not None)

    def etag_for(self, path: str, params: dict) -> str:
        """Strong ETag for one request: the store's logical position
        (generation + next_seq — together they identify the visible
        content exactly) plus a digest of the canonical query."""
        generation, next_seq = self.store.position()
        digest = hashlib.sha256(
            _canon(path, params).encode("utf-8")).hexdigest()[:16]
        return f'"{generation}-{next_seq}-{digest}"'

    # -- routing ----------------------------------------------------------

    def handle(self, path: str, params: dict) -> dict[str, Any]:
        if path == "/healthz":
            return self._healthz()
        self.views.refresh()
        if path in LISTINGS:
            return self._listing(LISTINGS[path], params)
        outbreak = forensics_outbreak_id(path)
        if outbreak is not None:
            return self._forensics(outbreak)
        if path.startswith("/zombies/"):
            return self._zombie(unquote(path[len("/zombies/"):]))
        raise _NotFound(path)

    def _engine(self):
        """The supervisor's live ingest engine (None without one)."""
        return self.supervisor.ingest if self.supervisor is not None \
            else None

    def _healthz(self) -> dict[str, Any]:
        stats = self.store.stats()
        engine = self._engine()
        body = {"status": "ok", "events": stats["next_seq"],
                "segments": stats["segments"],
                "segment_formats": stats["by_format"],
                "generation": stats["generation"],
                "ingest_finished": (engine.finished
                                    if engine is not None else None),
                "view": self.views.stats()}
        if self.supervisor is not None:
            state = self.supervisor.state
            body["ingest_state"] = state
            body["supervisor"] = self.supervisor.stats()
            if state != "healthy":
                # Liveness stays "ok" while degraded (the daemon is
                # making progress); a stalled ingest is a real outage.
                body["status"] = "ok" if state == "degraded" else "stalled"
        if self.shard is not None:
            index, count = self.shard
            body["shard"] = {"name": shard_name(index), "index": index,
                             "count": count}
        return body

    def _listing(self, spec: Listing, params: dict) -> dict[str, Any]:
        """Any list endpoint: the whole listing, or one page of it
        starting strictly after ``cursor``."""
        limit, cursor, filters = spec.parse(params)
        rows = spec.rows(self.views, **filters)
        if limit is None and cursor is None:
            return {"count": len(rows), spec.name: rows}
        page, next_key = paginate(rows, key=spec.key, cursor=cursor,
                                  limit=limit)
        return {"count": len(page), spec.name: page,
                "next_cursor": (spec.format(next_key)
                                if next_key is not None else None)}

    def _zombie(self, prefix: str) -> dict[str, Any]:
        lifespan, outbreaks, resurrections = self.views.zombie(prefix)
        if lifespan is None and not outbreaks and not resurrections:
            raise _NotFound(prefix)
        return {"prefix": prefix, "lifespan": lifespan,
                "outbreaks": outbreaks, "resurrections": resurrections,
                "outbreak_count": len(outbreaks),
                "resurrection_count": len(resurrections)}

    def _forensics(self, outbreak_id: str) -> dict[str, Any]:
        """The pre-outbreak snapshot for one outbreak — O(outbreak):
        one view lookup plus a render over the bounded per-prefix
        snapshot, never a history scan."""
        event = self.views.forensics(outbreak_id)
        if event is None:
            raise _NotFound(outbreak_id)
        return render_forensics(event)

    # -- metrics ----------------------------------------------------------

    def render_metrics(self) -> str:
        """Prometheus text exposition of every counter we hold."""
        lines: list[str] = []

        def metric(name: str, value, help_text: str, labels: str = "") -> None:
            if value is None:
                return
            if not any(line.startswith(f"# HELP {name} ") for line in lines):
                # Monotonic series (the `_total` convention) are
                # counters — `rate()` only works on counters; states
                # and levels stay gauges.
                kind = "counter" if name.endswith("_total") else "gauge"
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name}{labels} {value}")

        store = self.store.stats()
        self.views.refresh(count=False)
        metric("observatory_events_total", store["next_seq"],
               "Events appended to the store over its lifetime.")
        metric("observatory_store_segments", store["segments"],
               "Segment files in the event store.")
        for fmt, count in sorted(store["by_format"].items()):
            metric("observatory_store_segment_files", count,
                   "Segment files in the event store by on-disk format.",
                   labels=f'{{format="{fmt}"}}')
        metric("observatory_store_generation", store["generation"],
               "History rewrites (truncate/compact/repair) the store "
               "has seen.")
        for kind, count in sorted(self.views.kind_counts().items()):
            metric("observatory_events", count,
                   "Events currently in the store by kind.",
                   labels=f'{{kind="{kind}"}}')
        metric("observatory_http_requests_total", self.requests_served,
               "HTTP requests served.")
        metric("observatory_http_not_modified_total",
               self.not_modified_served,
               "Conditional requests answered 304 from the ETag.")
        metric("observatory_http_responses_dropped_total",
               self.responses_dropped,
               "Responses dropped because the client disconnected.")
        metric("observatory_http_response_cache_hits_total",
               self._response_cache_hits,
               "200s served from the rendered-response cache (strong "
               "ETag hit: same store position, same canonical query).")
        if self.stream_stats is not None:
            stream = self.stream_stats
            metric("observatory_stream_subscribers", stream.subscribers,
                   "SSE subscribers currently connected to /stream/*.")
            metric("observatory_stream_events_sent_total",
                   stream.events_sent,
                   "Events written to SSE subscribers (catch-up + live).")
            metric("observatory_stream_lagged_total", stream.lagged,
                   "Slow subscribers dropped to their cursor (bounded "
                   "queue overflowed; they re-sync from the store).")
            metric("observatory_stream_resets_total", stream.resets,
                   "Re-sync signals sent after store generation bumps.")
        view = self.views.stats()
        metric("observatory_view_watermark", view["watermark"],
               "Store seq the materialized views are caught up to.")
        metric("observatory_view_prefixes", view["prefixes"],
               "Prefixes tracked in the latest-lifespan view.")
        metric("observatory_view_refreshes_total", view["refreshes"],
               "Materialized view refresh passes.")
        metric("observatory_view_rebuilds_total", view["rebuilds"],
               "Full view rebuilds (store generation changes).")
        metric("observatory_view_events_folded_total",
               view["events_folded"],
               "Events folded into the views incrementally.")
        if self.supervisor is not None:
            sup = self.supervisor.stats()
            metric("observatory_supervisor_restarts_total", sup["restarts"],
                   "Ingest engine restarts after crashes.")
            metric("observatory_ingest_records_skipped_total",
                   sup["records_skipped"],
                   "Poison records skipped by the tolerant decoder.")
            metric("observatory_ingest_bytes_quarantined_total",
                   sup["bytes_quarantined"],
                   "Raw bytes preserved in quarantine sidecars.")
            metric("observatory_ingest_lag_seconds", sup["ingest_lag_seconds"],
                   "Window time remaining ahead of the update watermark.")
            for state in STATES:
                metric("observatory_ingest_state",
                       1 if sup["state"] == state else 0,
                       "Supervised ingest health state (one-hot).",
                       labels=f'{{state="{state}"}}')
        engine = self._engine()
        if engine is not None:
            ingest = engine.stats()
            metric("observatory_ingest_records_total",
                   ingest["records_ingested"],
                   "Update records consumed from the archive.")
            metric("observatory_ingest_dumps_total", ingest["dumps_ingested"],
                   "RIB dumps consumed from the archive.")
            metric("observatory_ingest_checkpoints_total",
                   ingest["checkpoints_written"], "Checkpoints persisted.")
            metric("observatory_ingest_pending_evaluations",
                   ingest["pending_evaluations"],
                   "Beacon intervals awaiting their evaluation deadline.")
            metric("observatory_forensics_ring_entries",
                   ingest["ring_entries"],
                   "(peer, prefix) entries in the last-announcement ring.")
            metric("observatory_forensics_ring_evictions_total",
                   ingest["ring_evictions"],
                   "Ring entries evicted at the capacity bound.")
            stats = engine.archive.stats()
            cache = stats["cache"]
            if cache is not None:
                metric("observatory_archive_cache_hits_total", cache["hits"],
                       "Decoded-file cache hits.")
                metric("observatory_archive_cache_misses_total",
                       cache["misses"], "Decoded-file cache misses.")
                metric("observatory_archive_cache_evictions_total",
                       cache["evictions"], "Decoded-file cache evictions.")
                metric("observatory_archive_cache_entries", cache["entries"],
                       "Decoded files currently cached.")
            scan = stats["scan"]
            metric("observatory_archive_files_considered_total",
                   scan["files_considered"],
                   "Archive files considered by scan planning.")
        return "\n".join(lines) + "\n"
