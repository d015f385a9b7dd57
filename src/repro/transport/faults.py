"""Deterministic fault injection for the archive transport.

:class:`FaultyProxy` sits between an :class:`~repro.transport.client.
ArchiveMirror` and an upstream :class:`~repro.transport.server.
ArchiveServer`, forwarding requests verbatim except when the
:class:`FaultPlan` says otherwise.  Five fault kinds cover the failure
model the mirror must survive:

``drop``      close the connection before any response bytes
``error``     answer 503 (a 5xx burst is just a high rate)
``stall``     sleep past the client's read timeout, then serve normally
``truncate``  send correct headers but only half the body, then close
``corrupt``   flip a byte mid-body (checksum verification must catch it)

Decisions are deterministic: a scripted list of ``(substring, kind)``
pairs is consumed first (each fires once, on the first matching
request), then per-kind probabilities drawn from a seeded RNG.  The
plan is consulted on the event loop, once per request in arrival order,
so with a single-worker mirror the exact fault sequence is
reproducible, which is what lets the robustness tests assert
byte-identical outcomes *through* injected faults.

The proxy is an :class:`~repro.utils.asynchttp.AsyncHTTPTransport`
like every other server here: a fault is what its ``_dispatch`` does
to the stream writer — nothing, a 503, a sleep, half a body and a
close, a flipped byte.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from repro.utils.asynchttp import AsyncHTTPTransport

__all__ = ["FaultPlan", "FaultyProxy", "FAULT_KINDS"]

FAULT_KINDS = ("drop", "error", "stall", "truncate", "corrupt")

#: Request headers forwarded to the upstream.
_FORWARD_HEADERS = ("Range", "If-None-Match")
#: Response headers forwarded back to the client.
_RETURN_HEADERS = ("Content-Type", "ETag", "Accept-Ranges", "Content-Range")
#: Seconds one upstream round-trip may take.
UPSTREAM_TIMEOUT = 30.0


@dataclass
class FaultPlan:
    """What to inject, and when.

    ``script`` entries are ``(path_substring, kind)`` pairs, consumed in
    order — the first request whose path contains the substring gets the
    fault, exactly once.  ``rates`` maps fault kinds to probabilities
    evaluated (in :data:`FAULT_KINDS` order) for every request the
    script did not claim, using a RNG seeded with ``seed`` so a given
    request sequence always faults identically.
    """

    rates: dict[str, float] = field(default_factory=dict)
    script: Sequence[tuple[str, str]] = ()
    seed: int = 0
    stall_seconds: float = 3.0

    def __post_init__(self) -> None:
        import random

        for kind in set(self.rates) | {kind for _, kind in self.script}:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind: {kind!r}")
        self._rng = random.Random(self.seed)
        self._pending = list(self.script)
        self._lock = threading.Lock()
        self.injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.requests_seen = 0

    def decide(self, path: str) -> Optional[str]:
        """The fault kind for this request, or None to pass through."""
        with self._lock:
            self.requests_seen += 1
            for i, (substring, kind) in enumerate(self._pending):
                if substring in path:
                    del self._pending[i]
                    self.injected[kind] += 1
                    return kind
            for kind in FAULT_KINDS:
                rate = self.rates.get(kind, 0.0)
                if rate > 0 and self._rng.random() < rate:
                    self.injected[kind] += 1
                    return kind
            return None


class FaultyProxy(AsyncHTTPTransport):
    """Forward to ``upstream_url``, injecting faults per ``plan``."""

    def __init__(self, upstream_url: str, plan: Optional[FaultPlan] = None,
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__(host=host, port=port)
        if "://" not in upstream_url:  # accept bare host:port
            upstream_url = "http://" + upstream_url
        self.upstream_url = upstream_url.rstrip("/")
        self.plan = plan if plan is not None else FaultPlan()

    async def _dispatch(self, path: str, params: dict,
                        headers: dict[str, str],
                        writer: asyncio.StreamWriter,
                        keep_alive: bool) -> bool:
        fault = self.plan.decide(path)
        if fault == "drop":
            return False  # the loop closes the connection, nothing sent
        if fault == "error":
            await self._send_error(writer, 503, "injected 503")
            return False
        if fault == "stall":
            await asyncio.sleep(self.plan.stall_seconds)
        loop = asyncio.get_running_loop()
        status, fields, body = await loop.run_in_executor(
            None, self.forward, path, headers)
        response_headers = [*fields.items(),
                            ("Content-Length", str(len(body)))]
        if fault == "truncate" and len(body) > 1:
            await self._send(writer, status, response_headers,
                             body[:len(body) // 2], keep_alive)
            return False
        if fault == "corrupt" and body:
            middle = len(body) // 2
            body = body[:middle] + bytes([body[middle] ^ 0xFF]) \
                + body[middle + 1:]
        await self._send(writer, status, response_headers, body, keep_alive)
        return keep_alive

    def forward(self, path: str, headers: dict[str, str]
                ) -> tuple[int, dict[str, str], bytes]:
        """One upstream round-trip; upstream errors pass through as-is."""
        request = Request(self.upstream_url + path)
        for name in _FORWARD_HEADERS:
            value = headers.get(name.lower())
            if value is not None:
                request.add_header(name, value)
        try:
            response = urlopen(request, timeout=UPSTREAM_TIMEOUT)
        except HTTPError as exc:
            response = exc  # an error status is a response like any other
        with response:
            fields = {name: response.headers[name]
                      for name in _RETURN_HEADERS
                      if response.headers.get(name) is not None}
            return response.status, fields, response.read()
