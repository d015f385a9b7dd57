"""Programmatic client for the observatory HTTP API (stdlib only).

Transport is ``http.client`` so the two phases of a request get their
own clocks: ``connect_timeout`` bounds the TCP connect and
``read_timeout`` bounds each subsequent socket read.  The split is what
makes long-lived streaming subscriptions possible — a stream sits idle
between events far longer than any sane *connect* deadline, and before
the split the single shared timeout had to be short enough to fail fast
on a dead server yet long enough to sit through a quiet stream.  It
also sharpens retry semantics: the bounded exponential-backoff retry
covers the *connect* phase (connection refused, DNS, unreachable) and
5xx responses, where retrying is safe and cheap; a connection that dies
*mid-read* raises :class:`ObservatoryUnreachable` immediately, because
blindly re-reading hides half-delivered responses and double-charges
slow servers.  API-level errors (4xx with a JSON body) raise
:class:`ObservatoryError` without any retry, and a 200 whose body is
not valid JSON (a misconfigured proxy, a half-written error page)
raises :class:`ObservatoryProtocolError` — callers never see a bare
``json.JSONDecodeError``.

The client revalidates transparently: every 200 with an ``ETag`` is
remembered per URL, repeat requests carry ``If-None-Match``, and a
``304 Not Modified`` answer is satisfied from the cached body without
the server re-rendering (or re-sending) anything.  Callers just see
the JSON; :attr:`ObservatoryClient.revalidations` counts the 304s.
:meth:`ObservatoryClient.paginate` walks a paginated listing page by
page, following ``next_cursor`` until the listing is exhausted.

:meth:`ObservatoryClient.stream` tails the ``/stream/*`` SSE endpoints:
it yields event dicts as the server publishes them, heartbeat-checks
the connection with ``idle_timeout``, and on any transport failure
reconnects with the ``Last-Event-ID`` resume token of the last frame it
delivered — so a consumer sees every event exactly once, in seq order,
across server restarts.  A stream ``reset`` frame (store generation
bump: truncate/compact rewrote history) is surfaced as a
``{"kind": "reset", ...}`` dict so consumers know to re-sync their
derived state via the query endpoints.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Callable, Iterator, Optional
from urllib.parse import quote, urlencode, urlsplit

from repro.utils.backoff import backoff_delay

__all__ = ["ObservatoryClient", "ObservatoryError",
           "ObservatoryProtocolError", "ObservatoryUnreachable"]


class ObservatoryError(Exception):
    """An API-level error response (4xx/5xx with a JSON body)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ObservatoryProtocolError(Exception):
    """A response that is not valid observatory protocol — e.g. a 200
    whose body is not JSON.  Keeps the offending body (truncated) for
    the error message without letting ``json.JSONDecodeError`` escape."""

    def __init__(self, url: str, body: str, cause: Exception):
        snippet = body[:120] + ("…" if len(body) > 120 else "")
        super().__init__(f"{url}: malformed response body: {cause} "
                         f"(body: {snippet!r})")
        self.url = url
        self.body = body
        self.cause = cause


class ObservatoryUnreachable(Exception):
    """The server could not be reached after exhausting the retries."""

    def __init__(self, url: str, attempts: int, cause: Exception):
        super().__init__(
            f"{url} unreachable after {attempts} attempt(s): {cause}")
        self.url = url
        self.attempts = attempts
        self.cause = cause


#: Stream names accepted by :meth:`ObservatoryClient.stream`.
STREAMS = ("events", "outbreaks", "resurrections")


class ObservatoryClient:
    """Thin JSON client: one method per endpoint.

    ``connect_timeout`` bounds TCP connection establishment,
    ``read_timeout`` bounds each socket read of a response.
    ``retries`` extra attempts are made on connect
    failures and 5xx responses, sleeping ``backoff * 2**attempt``
    between them, never more than ``backoff_cap`` seconds (``sleep`` is
    injectable for tests).  A numeric ``Retry-After`` on a 5xx answer
    overrides the computed backoff — the server knows how long it needs
    — but is capped the same way.

    When the answer came from a degraded federated observatory, the
    shard names it was missing are surfaced in :attr:`last_partial`
    (from the ``X-Observatory-Partial`` header); ``None`` means the
    answer was complete.
    """

    #: Most-recently validated (etag, body) pairs kept per URL.
    CACHE_ENTRIES = 256

    def __init__(self, base_url: str, retries: int = 2, backoff: float = 0.2,
                 sleep: Callable[[float], None] = time.sleep,
                 connect_timeout: float = 5.0, read_timeout: float = 10.0,
                 backoff_cap: float = 30.0):
        self.base_url = base_url.rstrip("/")
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", "https") or not split.netloc:
            raise ValueError(f"not an observatory URL: {base_url!r}")
        self._scheme = split.scheme
        self._netloc = split.netloc
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self._etag_cache: dict[str, tuple[str, str]] = {}
        #: Requests answered 304 and served from the local cache.
        self.revalidations = 0
        #: Resume token of the last event yielded by :meth:`stream`.
        self.stream_token: Optional[str] = None
        #: Shard names missing from the last answer (the federated
        #: ``X-Observatory-Partial`` header), or ``None`` if complete.
        self.last_partial: Optional[tuple[str, ...]] = None

    def _delay(self, attempt: int,
               retry_after: Optional[str] = None) -> float:
        """Seconds to sleep before retry ``attempt`` (0-based): capped
        exponential backoff, overridden by a numeric ``Retry-After``
        (still capped — the cap is the client's own patience)."""
        if retry_after is not None:
            try:
                return min(self.backoff_cap, max(0.0, float(retry_after)))
            except ValueError:
                pass  # HTTP-date form: fall back to computed backoff
        return backoff_delay(attempt, self.backoff, self.backoff_cap)

    @staticmethod
    def _api_error(status: int, body: str) -> ObservatoryError:
        """The error an answer ``status`` with ``body`` raises: the
        JSON body's ``error`` field, else the body itself."""
        try:
            detail = json.loads(body).get("error", body)
        except ValueError:
            detail = body
        return ObservatoryError(status, detail)

    def _remember(self, url: str, etag: str, body: str) -> None:
        self._etag_cache.pop(url, None)
        self._etag_cache[url] = (etag, body)
        while len(self._etag_cache) > self.CACHE_ENTRIES:
            self._etag_cache.pop(next(iter(self._etag_cache)))

    # -- transport --------------------------------------------------------

    def _connect(self, read_timeout: Optional[float]
                 ) -> http.client.HTTPConnection:
        """Open a connection under ``connect_timeout``, then switch the
        socket to the read clock.  The two-clock trick: ``http.client``
        applies its ``timeout`` at connect, and once the socket exists
        we re-arm it for reads."""
        conn_cls = (http.client.HTTPSConnection if self._scheme == "https"
                    else http.client.HTTPConnection)
        conn = conn_cls(self._netloc, timeout=self.connect_timeout)
        conn.connect()
        assert conn.sock is not None
        conn.sock.settimeout(read_timeout)
        return conn

    def _get(self, path: str, params: Optional[dict[str, Any]] = None,
             raw: bool = False):
        query = {k: v for k, v in (params or {}).items() if v is not None}
        target = path + ("?" + urlencode(query) if query else "")
        url = self.base_url + target
        cached = self._etag_cache.get(url) if not raw else None
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                conn = self._connect(self.read_timeout)
            except OSError as exc:
                # Connect failures are the retryable class: nothing was
                # sent, so trying again cannot double-deliver anything.
                last = exc
                if attempt < self.retries:
                    self._sleep(self._delay(attempt))
                continue
            try:
                headers = {"Connection": "close"}
                if cached is not None:
                    headers["If-None-Match"] = cached[0]
                conn.request("GET", target, headers=headers)
                response = conn.getresponse()
                status = response.status
                etag = response.getheader("ETag")
                retry_after = response.getheader("Retry-After")
                header = response.getheader("X-Observatory-Partial")
                partial = tuple(header.split(",")) if header else None
                body = response.read().decode("utf-8", "replace")
            except (OSError, http.client.HTTPException) as exc:
                # Mid-request/mid-read death: the server may have acted
                # on (or half-answered) the request — do not retry.
                raise ObservatoryUnreachable(url, attempt + 1, exc) from exc
            finally:
                conn.close()
            if status == 304:
                if cached is not None:
                    # Fresh parse per call so a caller mutating the
                    # result cannot poison the cache.
                    self.revalidations += 1
                    self.last_partial = partial
                    return json.loads(cached[1])
                raise ObservatoryProtocolError(
                    url, "", ValueError("304 without a cached body")
                ) from None
            if status >= 400:
                last = self._api_error(status, body)
                if status < 500:
                    raise last from None
                if attempt < self.retries:
                    self._sleep(self._delay(attempt, retry_after))
                continue
            self.last_partial = partial
            if raw:
                return body
            try:
                parsed = json.loads(body)
            except ValueError as exc:
                raise ObservatoryProtocolError(url, body, exc) from exc
            if etag:
                self._remember(url, etag, body)
            return parsed
        if isinstance(last, ObservatoryError):
            raise last
        assert last is not None
        raise ObservatoryUnreachable(url, self.retries + 1, last) from None

    # -- endpoints --------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return self._get("/healthz")

    def outbreaks(self, prefix: Optional[str] = None,
                  since: Optional[int] = None,
                  until: Optional[int] = None,
                  limit: Optional[int] = None,
                  cursor: Optional[str] = None) -> dict[str, Any]:
        return self._get("/outbreaks", {"prefix": prefix, "since": since,
                                        "until": until, "limit": limit,
                                        "cursor": cursor})

    def zombies(self, limit: Optional[int] = None,
                cursor: Optional[str] = None) -> dict[str, Any]:
        return self._get("/zombies", {"limit": limit, "cursor": cursor})

    def zombie(self, prefix: str) -> dict[str, Any]:
        return self._get("/zombies/" + quote(str(prefix), safe=""))

    def forensics(self, outbreak_id: str) -> dict[str, Any]:
        """The pre-outbreak snapshot for one outbreak event (use the
        ``id`` field of an ``/outbreaks`` row)."""
        return self._get("/outbreaks/" + quote(str(outbreak_id), safe="")
                         + "/forensics")

    def resurrections(self, prefix: Optional[str] = None,
                      since: Optional[int] = None,
                      until: Optional[int] = None,
                      limit: Optional[int] = None,
                      cursor: Optional[str] = None) -> dict[str, Any]:
        return self._get("/resurrections", {"prefix": prefix, "since": since,
                                            "until": until, "limit": limit,
                                            "cursor": cursor})

    def paginate(self, what: str, page_size: int = 500,
                 prefix: Optional[str] = None,
                 since: Optional[int] = None,
                 until: Optional[int] = None) -> Iterator[dict[str, Any]]:
        """Iterate every item of a paginated listing, fetching
        ``page_size`` rows per request and following ``next_cursor``
        until the server reports no more.  ``what`` is one of
        ``outbreaks`` / ``zombies`` / ``resurrections``; the filters
        apply where the endpoint supports them."""
        if what not in ("outbreaks", "zombies", "resurrections"):
            raise ValueError(f"not a paginated listing: {what!r}")
        params: dict[str, Any] = {"limit": page_size}
        if what != "zombies":
            params.update(prefix=prefix, since=since, until=until)
        cursor: Optional[str] = None
        while True:
            body = self._get("/" + what, {**params, "cursor": cursor})
            yield from body[what]
            cursor = body.get("next_cursor")
            if cursor is None:
                break

    def metrics(self) -> str:
        return self._get("/metrics", raw=True)

    # -- streaming --------------------------------------------------------

    def stream(self, what: str = "events", cursor: Optional[str] = None,
               from_seq: Optional[int] = None, reconnect: bool = True,
               idle_timeout: float = 60.0) -> Iterator[dict[str, Any]]:
        """Tail a ``/stream/*`` endpoint, yielding one dict per event.

        ``what`` is ``events`` / ``outbreaks`` / ``resurrections``.
        ``cursor`` is a ``"<generation>:<next_seq>"`` resume token (from
        a previous run's :attr:`stream_token`); ``from_seq`` asks the
        server to replay history from that seq on the *first* connect.
        Generation bumps surface as ``{"kind": "reset", "generation":
        G, "next_seq": N}`` — everything derived from earlier events is
        unverified after one.

        The generator reconnects transparently: any transport failure
        (reset, timeout past ``idle_timeout``, mid-read EOF) re-dials
        with the ``Last-Event-ID`` of the last *yielded* frame, so no
        event is lost or repeated across reconnects.  Consecutive
        failed connects beyond ``retries`` raise
        :class:`ObservatoryUnreachable`; with ``reconnect=False`` the
        generator returns at the first disconnect instead.  The server
        heartbeats idle streams well inside ``idle_timeout``, so a
        tripped idle clock means a dead peer, not a quiet one.
        """
        if what not in STREAMS:
            raise ValueError(f"not a stream: {what!r} (expected one of "
                             f"{', '.join(STREAMS)})")
        path = f"/stream/{what}"
        url = self.base_url + path
        token = cursor
        first = True
        failures = 0
        last_error: Optional[Exception] = None
        while True:
            try:
                conn = self._connect(idle_timeout)
            except OSError as exc:
                failures += 1
                last_error = exc
                if failures > self.retries:
                    raise ObservatoryUnreachable(
                        url, failures, exc) from exc
                self._sleep(self._delay(failures - 1))
                continue
            try:
                target = path
                headers = {"Accept": "text/event-stream"}
                if token is not None:
                    headers["Last-Event-ID"] = token
                elif first and from_seq is not None:
                    target += "?" + urlencode({"from_seq": from_seq})
                conn.request("GET", target, headers=headers)
                response = conn.getresponse()
                if response.status != 200:
                    raise self._api_error(response.status, response.read(
                        ).decode("utf-8", "replace"))
                first = False
                for frame_id, kind, data in self._read_frames(response):
                    failures = 0  # a live connection resets the budget
                    if frame_id is not None:
                        token = frame_id
                    event = json.loads(data)
                    if kind == "reset":
                        event = {"kind": "reset", **event}
                    self.stream_token = token
                    yield event
                # Orderly EOF (server shut down): fall through to
                # reconnect just like a failure, without burning sleep.
                last_error = ConnectionError("stream closed by server")
                failures += 1
            except ObservatoryError:
                raise
            except (OSError, ValueError, http.client.HTTPException) as exc:
                failures += 1
                last_error = exc
            finally:
                conn.close()
            if not reconnect:
                return
            if failures > self.retries:
                assert last_error is not None
                raise ObservatoryUnreachable(
                    url, failures, last_error) from last_error
            if failures:
                self._sleep(self._delay(failures - 1))

    @staticmethod
    def _read_frames(response: http.client.HTTPResponse
                     ) -> Iterator[tuple[Optional[str], str, str]]:
        """Parse SSE frames off the wire: yields ``(id, event, data)``
        per dispatched frame, skipping comments (keepalives)."""
        frame_id: Optional[str] = None
        kind = "message"
        data: list[str] = []
        for raw_line in iter(response.readline, b""):
            line = raw_line.decode("utf-8").rstrip("\r\n")
            if not line:
                if data:
                    yield frame_id, kind, "\n".join(data)
                frame_id, kind, data = None, "message", []
                continue
            if line.startswith(":"):
                continue  # comment — the heartbeat keepalive
            name, _, value = line.partition(":")
            value = value.removeprefix(" ")
            if name == "id":
                frame_id = value
            elif name == "event":
                kind = value
            elif name == "data":
                data.append(value)
