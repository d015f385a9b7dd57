"""Fault-tolerant scatter-gather query tier over a shard fleet.

One :class:`FederatedObservatoryServer` fronts N shard observatories
(:mod:`repro.observatory.fleet`) and answers the same API a monolithic
observatory answers — and, when every shard is healthy, answers it
**byte-identically**: every shard reads the one event store, so seqs
and positions are global by construction, every listing has a
deterministic total order (seq / prefix / ``(time, seq)``), and a
k-way merge of per-shard pages reconstructs exactly the page a single
store would have served, ``next_cursor`` included.  The pagination
algebra is the reason the identity holds under paging: every shard is
asked with the *same* ``limit`` and ``cursor``, so the first ``limit``
rows of the global listing after the cursor are all contained in the
union of the per-shard pages; more rows exist globally iff the union
overflows the limit or any shard reported a ``next_cursor`` of its own.

The point of the tier, though, is how it behaves when shards *don't*
answer.  Degradation is graceful and explicit, never silent:

* every shard fetch runs under a hard per-request **deadline**
  (:data:`DEADLINE`); connect errors (and only connect errors — an
  accepted request may have side effects some day) are retried
  :data:`RETRIES` times with jittered exponential backoff inside that
  deadline; shard connections are **kept alive** in a
  per-shard pool, and a reused one that dies before the response
  begins (the shard restarted meanwhile) is re-dialled once, uncounted;
* per-shard **circuit breakers** stop hammering a dead shard: after
  :data:`BREAKER_THRESHOLD` consecutive failures the circuit opens and
  the shard is declared down for :data:`BREAKER_OPEN_SECONDS` without
  paying the deadline, then a single half-open probe decides between closing
  the circuit and re-opening it — the state a breaker starts in and
  keeps until its shard first answers;
* a missing shard removes its rows from the merged answer, sets the
  ``X-Observatory-Partial`` header to the missing shard names, and the
  answer still returns within the deadline.

Revalidation survives all of that because the **ETag is a vector** of
per-shard ``(generation, next_seq)`` positions — ``"0:1-52|1:down|2:1-48-<digest>"``
— so a shard restart (same position), a shard death (``down`` component)
and a store append (position advance) each change exactly the
component they should: a 304 is only served when every shard that
contributed to the cached answer is in the same logical position, and a
partial answer can never revalidate against a complete one.  Cursors
need no vector: they are global sort keys, meaningful against every
shard, so a pagination walk survives shard restarts unchanged.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random
import time
from typing import Any, Callable, Optional
from urllib.parse import unquote, urlencode, urlsplit

from repro.observatory.forensics import outbreak_prefix
from repro.observatory.server import (
    CACHE_CONTROL,
    LISTINGS,
    Listing,
    ObservatoryApp,
    _BadRequest,
    _canon,
    _etag_matches,
    forensics_outbreak_id,
)
from repro.observatory.views import CursorError, shard_for, shard_name
from repro.utils.asynchttp import AsyncHTTPTransport, parse_status_head
from repro.utils.backoff import backoff_delay

__all__ = ["CircuitBreaker", "FederatedObservatoryServer", "PARTIAL_HEADER",
           "ShardUnavailable"]

#: Names the shards missing from a degraded merged answer.
PARTIAL_HEADER = "X-Observatory-Partial"

#: Seconds one shard exchange may take, connect retries included.
DEADLINE = 2.0
#: Extra connect attempts per shard exchange.
RETRIES = 1
#: Connect-retry schedule (seconds): the first retry waits 0.05 s plus
#: up to 0.025 s of jitter from an RNG seeded with ``JITTER_SEED``.
BACKOFF, BACKOFF_CAP, JITTER, JITTER_SEED = 0.05, 1.0, 0.025, 0
#: Consecutive failures that open a shard's circuit, and the seconds
#: it then stays open before its half-open probe.
BREAKER_THRESHOLD, BREAKER_OPEN_SECONDS = 3, 5.0

_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]


class _Stale(Exception):
    """A reused keep-alive connection died before the response began."""


class ShardUnavailable(Exception):
    """A shard that cannot be asked right now (circuit open, connect
    failure after retries, deadline exceeded, or a non-answer)."""


class CircuitBreaker:
    """Per-shard circuit breaker: closed → open → half-open.

    Closed: requests flow; :data:`BREAKER_THRESHOLD` *consecutive*
    failures open the circuit.  Open: requests are refused outright for
    :data:`BREAKER_OPEN_SECONDS` — a dead shard costs nothing instead
    of a deadline per query.  Half-open: exactly one probe request is
    let through; success closes the circuit, failure re-opens it for
    another open period.  A breaker starts half-open and stays there
    until its shard first answers: failures before that never open it.

    Confined to the server's event loop, so no locking.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self.failures = 0
        self._answered = False
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if not self._answered:
            return "half-open"
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= BREAKER_OPEN_SECONDS:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        state = self.state
        if state == "closed":
            return True
        if state == "open":
            return False
        if self._probing:
            return False  # one probe at a time
        self._probing = True
        return True

    def record_success(self) -> None:
        self.failures = 0
        self._answered = True
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self.failures += 1
        self._probing = False
        if self.failures >= BREAKER_THRESHOLD:
            self._opened_at = self._clock()


class FederatedObservatoryServer(AsyncHTTPTransport):
    """Scatter-gather observatory API over shard servers.

    ``shard_urls`` are the shard base URLs in shard-index order (the
    index *is* the routing function's output, so order matters); pass a
    live :class:`~repro.observatory.fleet.ShardFleet` as ``fleet`` to
    fold supervisor state into ``/healthz``.
    """

    #: Merged 200s kept, keyed by canonical query (same budget as the
    #: monolithic response cache).
    CACHE_ENTRIES = 128

    def __init__(self, shard_urls: list[str], host: str = "127.0.0.1",
                 port: int = 0, *, fleet=None):
        super().__init__(host=host, port=port)
        if not shard_urls:
            raise ValueError("need at least one shard URL")
        self.shard_urls = list(shard_urls)
        self.shard_names = list(map(shard_name, range(len(shard_urls))))
        self._addresses = [(split.hostname, split.port) for split
                           in map(urlsplit, self.shard_urls)]
        self.fleet = fleet
        self._rng = random.Random(JITTER_SEED)
        self.breakers = [CircuitBreaker() for _ in shard_urls]
        # All state below is event-loop-confined: no locks.
        self._cache: dict[str, dict[str, Any]] = {}
        self.requests_served = 0
        self.responses_dropped = 0
        self.not_modified_served = 0
        self.partial_responses = 0
        self.retried_connects = 0
        self.shard_failures = [0] * len(shard_urls)
        #: Per shard, idle keep-alive connections; the last one in is
        #: the next one out.
        self._idle: list[list[_Connection]] = [[] for _ in shard_urls]

    # -- transport hooks ---------------------------------------------------

    def count_dropped_response(self) -> None:
        self.responses_dropped += 1

    async def _on_cleanup(self) -> None:
        for idle in self._idle:
            while idle:
                idle.pop()[1].close()

    async def _dispatch(self, path: str, params: dict,
                        headers: dict[str, str],
                        writer: asyncio.StreamWriter,
                        keep_alive: bool) -> bool:
        self.requests_served += 1
        status, response_headers, payload = await self.respond(
            path, params, headers.get("if-none-match"))
        await self._send(writer, status, response_headers, payload,
                         keep_alive)
        return keep_alive

    # -- one-request entry point ------------------------------------------

    async def respond(self, path: str, params: dict,
                      if_none_match: Optional[str] = None
                      ) -> tuple[int, list[tuple[str, str]], bytes]:
        """Answer one GET, federated: ``(status, headers, payload)``."""
        try:
            if path == "/metrics":
                return await self._metrics()
            if path == "/healthz":
                return await self._healthz()
            if path in LISTINGS:
                return await self._listing(path, params, if_none_match)
            if path.startswith("/zombies/"):
                return await self._routed(
                    path, if_none_match, unquote(path[len("/zombies/"):]))
            outbreak = forensics_outbreak_id(path)
            if outbreak is not None:
                # The outbreak ID leads with its prefix, and the shard
                # router partitions forensics events by that same
                # prefix — so the ID alone names the single owner.
                return await self._routed(
                    path, if_none_match, outbreak_prefix(outbreak))
            return ObservatoryApp._json_response(
                404, {"error": f"no such resource: {path}"})
        except (_BadRequest, CursorError) as exc:
            return ObservatoryApp._json_response(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - bugs become 500s
            return ObservatoryApp._json_response(
                500, {"error": "internal server error: "
                               f"{type(exc).__name__}: {exc}"})

    # -- shard fetch -------------------------------------------------------

    async def _http_get(self, index: int, target: str,
                        if_none_match: Optional[str]
                        ) -> tuple[int, dict[str, str], bytes]:
        """One GET to one shard, on the last idle connection to it when
        there is one.  A reused connection that fails before the first
        response byte is re-dialled once; on a fresh one, connect errors
        are retried with backoff and anything after the connect is not
        (the shard may already be acting on the request)."""
        if self._idle[index]:
            try:
                return await self._exchange(index, self._idle[index].pop(),
                                            target, if_none_match,
                                            reused=True)
            except _Stale:
                pass
        return await self._exchange(index, await self._dial(index), target,
                                    if_none_match)

    async def _dial(self, index: int) -> _Connection:
        for attempt in range(RETRIES + 1):
            try:
                return await asyncio.open_connection(*self._addresses[index])
            except OSError:
                if attempt == RETRIES:
                    raise
                self.retried_connects += 1
                await asyncio.sleep(backoff_delay(
                    attempt, BACKOFF, BACKOFF_CAP, JITTER, self._rng))
        raise AssertionError("unreachable")

    async def _exchange(self, index: int, connection: _Connection,
                        target: str, if_none_match: Optional[str],
                        reused: bool = False
                        ) -> tuple[int, dict[str, str], bytes]:
        """Send one request and read its response.  The connection goes
        back to the idle pool only after a whole ``Content-Length``
        body from a shard that said ``keep-alive``; any failure,
        timeout or cancellation closes it."""
        reader, writer = connection
        keep = False
        try:
            host, port = self._addresses[index]
            lines = [f"GET {target} HTTP/1.1", f"Host: {host}:{port}"]
            if if_none_match is not None:
                lines.append(f"If-None-Match: {if_none_match}")
            writer.write(("\r\n".join(lines) + "\r\n\r\n"
                          ).encode("latin-1"))
            try:
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                if reused and not getattr(exc, "partial", b""):
                    raise _Stale() from exc
                raise
            status, headers = parse_status_head(head)
            length = headers.get("content-length")
            body = await reader.readexactly(int(length)) if length else b""
            keep = (length is not None and
                    headers.get("connection", "").lower() == "keep-alive")
            return status, headers, body
        finally:
            if keep:
                self._idle[index].append(connection)
            else:
                writer.close()

    async def _ask_shard(self, index: int, target: str,
                         if_none_match: Optional[str] = None
                         ) -> tuple[int, dict[str, str], bytes]:
        """Deadline-bounded, breaker-gated fetch from one shard."""
        breaker = self.breakers[index]
        if not breaker.allow():
            raise ShardUnavailable(
                f"{self.shard_names[index]}: circuit open")
        try:
            result = await asyncio.wait_for(
                self._http_get(index, target, if_none_match),
                timeout=DEADLINE)
        except Exception as exc:  # CancelledError is not an Exception
            breaker.record_failure()
            self.shard_failures[index] += 1
            raise ShardUnavailable(
                f"{self.shard_names[index]}: {type(exc).__name__}: {exc}"
                ) from exc
        breaker.record_success()
        return result

    async def _scatter(self, target: str,
                       if_none_match: Optional[dict[int, str]] = None
                       ) -> dict[int, tuple[int, dict[str, str], bytes]]:
        """Ask every shard; missing shards are simply absent from the
        result (the callers decide what absence means)."""
        conditions = if_none_match or {}
        tasks = [self._ask_shard(index, target, conditions.get(index))
                 for index in range(len(self.shard_urls))]
        settled = await asyncio.gather(*tasks, return_exceptions=True)
        return {index: outcome for index, outcome in enumerate(settled)
                if not isinstance(outcome, BaseException)}

    # -- vector ETags ------------------------------------------------------

    @staticmethod
    def _position_of(etag: Optional[str]) -> Optional[str]:
        """``(generation, next_seq)`` component of a shard's strong
        ETag (``"gen-next-digest"``), or ``None`` if unparseable."""
        if not etag:
            return None
        parts = etag.strip('"').split("-")
        if len(parts) != 3:
            return None
        return f"{parts[0]}-{parts[1]}"

    def _vector_etag(self, canon: str, etags: dict[int, Optional[str]],
                     missing: set[int]) -> str:
        digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
        components = []
        for index in range(len(self.shard_urls)):
            if index in missing:
                components.append(f"{index}:down")
            else:
                components.append(
                    f"{index}:{self._position_of(etags.get(index))}")
        return '"' + "|".join(components) + "-" + digest + '"'

    # -- listings ----------------------------------------------------------

    @staticmethod
    def _target(path: str, params: dict) -> str:
        query = urlencode([(key, value)
                           for key in sorted(params)
                           for value in params[key]])
        return path + ("?" + query if query else "")

    def _missing_names(self, missing: set[int]) -> str:
        return ",".join(self.shard_names[index] for index in sorted(missing))

    async def _listing(self, path: str, params: dict,
                       if_none_match: Optional[str]
                       ) -> tuple[int, list[tuple[str, str]], bytes]:
        spec = LISTINGS[path]
        # The monolith's own validation: a bad request gets the 400 a
        # single store would send, without asking any shard.
        limit, cursor, _ = spec.parse(params)
        canon = _canon(path, params)
        target = self._target(path, params)
        entry = self._cache.get(canon)
        conditions = dict(entry["etags"]) if entry else {}
        results = await self._scatter(target, conditions)
        missing = set(range(len(self.shard_urls))) - set(results)
        etags: dict[int, Optional[str]] = {}
        bodies: dict[int, dict[str, Any]] = {}
        for index, (status, headers, payload) in results.items():
            if status == 304 and entry is not None \
                    and index in entry["bodies"]:
                etags[index] = entry["etags"].get(index)
                bodies[index] = entry["bodies"][index]
            elif status == 200:
                etags[index] = headers.get("etag")
                bodies[index] = json.loads(payload)
            else:
                # A shard that answers but not usefully (a raced 304
                # with nothing cached, a 5xx) is missing, not wrong.
                missing.add(index)
        fed_etag = self._vector_etag(canon, etags, missing)
        partial = [(PARTIAL_HEADER, self._missing_names(missing))] \
            if missing else []
        if missing:
            self.partial_responses += 1
        if _etag_matches(fed_etag, if_none_match):
            self.not_modified_served += 1
            return 304, [("ETag", fed_etag),
                         ("Cache-Control", CACHE_CONTROL),
                         ("Content-Length", "0")] + partial, b""
        if entry is not None and entry["fed_etag"] == fed_etag:
            payload = entry["payload"]
        else:
            body = self._merge(spec, bodies, limit, cursor)
            payload = json.dumps(body, sort_keys=True).encode("utf-8")
            self._remember(canon, {"etags": etags, "bodies": bodies,
                                   "fed_etag": fed_etag,
                                   "payload": payload})
        return 200, [("Content-Type", "application/json"),
                     ("Content-Length", str(len(payload))),
                     ("ETag", fed_etag),
                     ("Cache-Control", CACHE_CONTROL)] + partial, payload

    def _remember(self, canon: str, entry: dict[str, Any]) -> None:
        self._cache.pop(canon, None)
        self._cache[canon] = entry
        while len(self._cache) > self.CACHE_ENTRIES:
            self._cache.pop(next(iter(self._cache)))

    def _merge(self, spec: Listing,
               bodies: dict[int, dict[str, Any]],
               limit: Optional[int], cursor: Any) -> dict[str, Any]:
        """Merge per-shard pages into exactly the page one store would
        serve (see the module docstring for why the algebra is exact)."""
        name, key = spec.name, spec.key
        rows: list[dict[str, Any]] = []
        for body in bodies.values():
            rows.extend(body[name])
        rows.sort(key=key)
        if limit is None and cursor is None:
            return {"count": len(rows), name: rows}
        page = rows[:limit] if limit is not None else rows
        more = limit is not None and (
            len(rows) > limit
            or any(body.get("next_cursor") is not None
                   for body in bodies.values()))
        next_cursor = spec.format(key(page[-1])) if page and more else None
        return {"count": len(page), name: page, "next_cursor": next_cursor}

    # -- single-owner routes -----------------------------------------------

    async def _routed(self, path: str, if_none_match: Optional[str],
                      pin_prefix: str
                      ) -> tuple[int, list[tuple[str, str]], bytes]:
        """A single-owner route (``/zombies/<prefix>``,
        ``/outbreaks/<id>/forensics``) lives on exactly one shard —
        the one ``pin_prefix`` hashes to: forward the request verbatim
        and pass the answer through byte-for-byte (the shard's scalar
        ETag names the store's own position — the monolith's ETag)."""
        owner = shard_for(pin_prefix, len(self.shard_urls))
        try:
            status, headers, payload = await self._ask_shard(
                owner, path, if_none_match)
        except ShardUnavailable as exc:
            self.partial_responses += 1
            retry_after = max(1, math.ceil(BREAKER_OPEN_SECONDS))
            status, error_headers, payload = ObservatoryApp._json_response(
                503, {"error": f"shard unavailable: {exc}"})
            return status, error_headers + [
                ("Retry-After", str(retry_after)),
                (PARTIAL_HEADER, self.shard_names[owner])], payload
        if status == 304:
            self.not_modified_served += 1
        passthrough = [(name, headers[name.lower()])
                       for name in ("Content-Type", "ETag", "Cache-Control")
                       if name.lower() in headers]
        passthrough.append(("Content-Length", str(len(payload))))
        return status, passthrough, payload

    # -- health ------------------------------------------------------------

    async def _healthz(self) -> tuple[int, list[tuple[str, str]], bytes]:
        results = await self._scatter("/healthz")
        missing = {index for index in range(len(self.shard_urls))
                   if results.get(index, (None,))[0] != 200}
        shards: dict[str, Any] = {
            name: None if index in missing else json.loads(results[index][2])
            for index, name in enumerate(self.shard_names)}
        if not missing:
            status_word = "ok"
        elif len(missing) < len(self.shard_urls):
            status_word = "degraded"
        else:
            status_word = "stalled"
        body: dict[str, Any] = {
            "status": status_word,
            "shard_count": len(self.shard_urls),
            "missing": [self.shard_names[index] for index in sorted(missing)],
            "breakers": {self.shard_names[index]: breaker.state
                         for index, breaker in enumerate(self.breakers)},
            "shards": shards,
        }
        if self.fleet is not None:
            body["fleet"] = self.fleet.stats()
        headers = []
        if missing:
            self.partial_responses += 1
            headers.append((PARTIAL_HEADER, self._missing_names(missing)))
        status, base_headers, payload = ObservatoryApp._json_response(
            200, body)
        return status, base_headers + headers, payload

    # -- metrics -----------------------------------------------------------

    @staticmethod
    def _relabel(line: str, shard: str) -> str:
        """Inject a ``shard`` label into one sample line."""
        name, _, value = line.partition(" ")
        if "{" in name:
            metric, _, labels = name.partition("{")
            return f'{metric}{{shard="{shard}",{labels} {value}'
        return f'{name}{{shard="{shard}"}} {value}'

    async def _metrics(self) -> tuple[int, list[tuple[str, str]], bytes]:
        results = await self._scatter("/metrics")
        lines: list[str] = []
        described: set[str] = set()

        def metric(name: str, value, help_text: str,
                   labels: str = "") -> None:
            if name not in described:
                kind = "counter" if name.endswith("_total") else "gauge"
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                described.add(name)
            lines.append(f"{name}{labels} {value}")

        metric("observatory_federation_requests_total", self.requests_served,
               "HTTP requests served by the federated query tier.")
        metric("observatory_federation_not_modified_total",
               self.not_modified_served,
               "Conditional requests answered 304 from the vector ETag.")
        metric("observatory_federation_partial_responses_total",
               self.partial_responses,
               "Merged answers missing at least one shard.")
        metric("observatory_federation_responses_dropped_total",
               self.responses_dropped,
               "Responses dropped because the client disconnected.")
        metric("observatory_federation_retried_connects_total",
               self.retried_connects,
               "Shard connect attempts retried after a connect error.")
        for index, name in enumerate(self.shard_names):
            metric("observatory_federation_shard_up",
                   1 if self.breakers[index].failures == 0 else 0,
                   "Whether the last exchange with the shard succeeded.",
                   labels=f'{{shard="{name}"}}')
            metric("observatory_federation_shard_failures_total",
                   self.shard_failures[index],
                   "Failed shard exchanges (deadline, connect, refusal).",
                   labels=f'{{shard="{name}"}}')
            for state in ("closed", "open", "half-open"):
                metric("observatory_federation_circuit_state",
                       1 if self.breakers[index].state == state else 0,
                       "Per-shard circuit-breaker state (one-hot).",
                       labels=f'{{shard="{name}",state="{state}"}}')
        # Shard expositions, relabeled: every per-shard series gains a
        # shard label; HELP/TYPE are kept once per metric name.
        for index in sorted(results):
            status, _, payload = results[index]
            if status != 200:
                continue
            shard = self.shard_names[index]
            keep_type_for: Optional[str] = None
            for line in payload.decode("utf-8").splitlines():
                if not line:
                    continue
                if line.startswith("# HELP "):
                    metric_name = line.split()[2]
                    if metric_name not in described:
                        described.add(metric_name)
                        lines.append(line)
                        keep_type_for = metric_name
                    else:
                        keep_type_for = None
                    continue
                if line.startswith("# TYPE "):
                    # TYPE follows its HELP in every exposition we
                    # merge; keep it only for first sightings.
                    if line.split()[2] == keep_type_for:
                        lines.append(line)
                    continue
                lines.append(self._relabel(line, shard))
        return ObservatoryApp._text_response(200, "\n".join(lines) + "\n")
