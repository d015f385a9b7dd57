"""The asyncio observatory server: one selector loop, many streams.

This is the observatory's HTTP server (``observatory serve``, the
supervised ingest's ``--serve-port``, every shard worker): a thin layer
over :class:`repro.observatory.server.ObservatoryApp` that puts on the
wire exactly what ``ObservatoryApp.respond`` returns — status, headers,
body — which the transport-fidelity tests assert.

The transport half — lifecycle, the connection loop, head parsing,
graceful drain and signal handling — is
:class:`repro.utils.asynchttp.AsyncHTTPTransport`, shared with every
other server in the repository; this module adds the ``ObservatoryApp``
dispatch plus SSE streaming on top.  Data requests are answered through
``ObservatoryApp.respond`` on the executor-thread pool (store reads are
blocking file I/O) and written back with HTTP/1.1 keep-alive — repeat
queries skip the connect tax entirely.  Streams never touch the
executor pool after catch-up: they wait on their hub queue, and a
draining server sends each subscriber a final ``: shutdown`` comment
frame before it closes.

``/stream/outbreaks``, ``/stream/resurrections`` and ``/stream/events``
serve Server-Sent Events that tail the event store by ``seq``:

* a single :class:`repro.observatory.stream.StreamHub` task polls the
  store once per interval and fans new events into every subscriber's
  bounded queue (one store reader for N subscribers);
* each subscriber holds a cursor — the next seq it owes its client —
  and replays ``[cursor, tail)`` straight from the store before joining
  the live feed, so ``?from_seq=0`` streams the entire history and then
  keeps going;
* ``Last-Event-ID`` (or ``?cursor=``) carries the
  ``"<generation>:<next_seq>"`` resume token from
  :mod:`repro.observatory.stream`, so a reconnecting subscriber resumes
  exactly where it stopped, across server restarts; a token from
  another generation gets an ``event: reset`` frame instead of silently
  rewritten history;
* a slow consumer's TCP backpressure (small write buffer + ``drain()``)
  stops its coroutine, its queue overflows, and the hub drops it *to
  its cursor*: it re-reads the missed span from the store and rejoins —
  lag costs a re-read, never a lost or duplicated event.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.observatory.server import ObservatoryApp, _BadRequest
from repro.observatory.store import EventStore, TailCursor
from repro.observatory.stream import (
    RESET,
    StreamHub,
    StreamStats,
    Subscription,
    TokenError,
    format_comment,
    format_event,
    format_reset,
    parse_token,
    _live_batch,
)
from repro.utils.asynchttp import AsyncHTTPTransport

__all__ = ["AsyncObservatoryServer", "STREAM_PATHS"]

#: Seconds an idle stream waits before a keepalive comment frame.
HEARTBEAT = 15.0

#: Stream endpoint -> event-kind filter (``None`` = every kind).
STREAM_PATHS: dict[str, Optional[tuple[str, ...]]] = {
    "/stream/events": None,
    "/stream/outbreaks": ("outbreak",),
    "/stream/resurrections": ("resurrection",),
}


def _first(params: dict, name: str) -> Optional[str]:
    values = params.get(name)
    return values[0] if values else None


class AsyncObservatoryServer(ObservatoryApp, AsyncHTTPTransport):
    """Asyncio transport over :class:`ObservatoryApp` + SSE streaming.

    ``supervisor`` is the live engine a supervised ingest daemon serves
    beside (``/healthz`` and ``/metrics`` read its counters and those of
    the engine it runs); ``shard=(index, count)`` makes a shard worker:
    the data routes answer for that shard's prefixes only, while
    ``/stream/*`` still streams the whole store.  Nothing else is
    settable: the stream constants (poll cadence, queue bound, batch
    size) live in :mod:`repro.observatory.stream`, the keepalive
    spacing is :data:`HEARTBEAT`, and the drain and write-buffer bounds
    are :mod:`repro.utils.asynchttp`'s.
    """

    def __init__(self, store: EventStore, host: str = "127.0.0.1",
                 port: int = 0, supervisor=None,
                 shard: Optional[tuple[int, int]] = None):
        ObservatoryApp.__init__(self, store, supervisor=supervisor,
                                shard=shard)
        AsyncHTTPTransport.__init__(self, host=host, port=port)
        self.stream_stats = StreamStats()
        self.hub: Optional[StreamHub] = None
        self._watcher: Optional[asyncio.Task] = None

    # -- transport hooks ---------------------------------------------------

    async def _on_startup(self) -> None:
        self.hub = StreamHub(self.store, self.stream_stats)
        self._watcher = asyncio.create_task(self.hub.run())

    async def _on_cleanup(self) -> None:
        if self._watcher is not None:
            self._watcher.cancel()
            await asyncio.gather(self._watcher, return_exceptions=True)
            self._watcher = None

    async def _dispatch(self, path: str, params: dict,
                        headers: dict[str, str],
                        writer: asyncio.StreamWriter,
                        keep_alive: bool) -> bool:
        if path in STREAM_PATHS:
            self.count_request()
            await self._serve_stream(writer, path, params, headers)
            return False  # streams end with the connection
        loop = asyncio.get_running_loop()
        status, response_headers, payload = await loop.run_in_executor(
            None, self.respond, path, params, headers.get("if-none-match"))
        await self._send(writer, status, response_headers, payload,
                         keep_alive)
        return keep_alive

    # -- SSE streaming ----------------------------------------------------

    async def _serve_stream(self, writer: asyncio.StreamWriter, path: str,
                            params: dict, headers: dict[str, str]) -> None:
        """One subscriber: validate, replay, then tail the hub.

        The subscriber's cursor is the single source of exactly-once
        delivery: catch-up replays ``[cursor, position)`` from the
        store, the live phase skips queue entries below the cursor
        (overlap from the attach race) and advances it past everything
        it considers — so a lag drop, which discards the queue and
        re-enters catch-up at the cursor, can neither lose nor repeat
        an event.

        A draining server ends the stream cleanly: the tail loop exits,
        a final ``: shutdown`` comment frame tells the client this was
        a deliberate goodbye (its resume token still works against the
        restarted server), and the connection closes.
        """
        assert self._draining is not None
        kinds = STREAM_PATHS[path]
        loop = asyncio.get_running_loop()
        raw_token = headers.get("last-event-id") or _first(params, "cursor")
        try:
            from_seq = self._from_seq(params)
            token = parse_token(raw_token) if raw_token is not None else None
        except (TokenError, _BadRequest) as exc:
            await self._send_error(writer, 400, str(exc))
            return
        # A token names (generation, next seq owed); anything the store
        # cannot continue from — another generation (history rewritten
        # while the subscriber was away) or a position it never
        # reached — re-syncs rather than guesses.
        tail = TailCursor(self.store, *(token or ()))
        rewritten = await loop.run_in_executor(None, tail.poll)
        reset_first = rewritten and token is not None
        if reset_first or (token is None and from_seq is None):
            tail.seq = tail.end  # re-sync, or no token: live tail only
        elif token is None:
            tail.seq = min(from_seq, tail.end)
        self._write_head(writer, 200, [
            ("Content-Type", "text/event-stream"),
            ("Cache-Control", "no-cache")], keep_alive=False)
        if reset_first:
            # Count first: ``write`` may hand the frame to the socket at
            # once, and whoever reads it must find it already counted.
            self.stream_stats.resets += 1
            writer.write(format_reset(tail.generation, tail.seq))
        await writer.drain()
        assert self.hub is not None
        self.stream_stats.subscribers += 1
        try:
            while not self._draining.is_set():
                subscription = Subscription()
                self.hub.attach(subscription)
                try:
                    await self._catch_up(writer, kinds, tail)
                    await self._tail_live(writer, subscription, kinds, tail)
                finally:
                    self.hub.detach(subscription)
                # Lagged: the queue overflowed while this consumer was
                # slow.  Its cursor still names the next event it owes,
                # so loop back into catch-up — drop-to-cursor.
            writer.write(format_comment("shutdown"))
            await writer.drain()
        finally:
            self.stream_stats.subscribers -= 1

    @staticmethod
    def _from_seq(params: dict) -> Optional[int]:
        raw = _first(params, "from_seq")
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise _BadRequest("parameter 'from_seq' must be an integer")
        if value < 0:
            raise _BadRequest("parameter 'from_seq' must be >= 0")
        return value

    async def _catch_up(self, writer: asyncio.StreamWriter,
                        kinds: Optional[tuple[str, ...]],
                        tail: TailCursor) -> None:
        """Replay ``[cursor, position)`` from the store, in batches."""
        assert self._draining is not None
        loop = asyncio.get_running_loop()
        while not self._draining.is_set():
            reset, batch = await loop.run_in_executor(
                None, _live_batch, tail, kinds)
            if reset:
                self.stream_stats.resets += 1
                writer.write(format_reset(tail.generation, tail.seq))
            for event in batch:
                writer.write(format_event(event, tail.generation))
                self.stream_stats.events_sent += 1
            await writer.drain()
            if tail.seq >= tail.end:
                return

    async def _tail_live(self, writer: asyncio.StreamWriter,
                         subscription: Subscription,
                         kinds: Optional[tuple[str, ...]],
                         tail: TailCursor) -> None:
        """Consume the hub queue until this subscriber lags or the
        server starts draining (queue entries already delivered by the
        hub are flushed to the client before the stream winds down)."""
        assert self._draining is not None
        drain_task = asyncio.ensure_future(self._draining.wait())
        try:
            while not subscription.lagged:
                get_task = asyncio.ensure_future(subscription.queue.get())
                await asyncio.wait({get_task, drain_task},
                                   timeout=HEARTBEAT,
                                   return_when=asyncio.FIRST_COMPLETED)
                if not get_task.done():
                    get_task.cancel()
                    try:
                        # Rescue an entry that arrived in the cancel
                        # race — dropping it would advance nothing and
                        # lose the event for good.
                        entry = await get_task
                    except asyncio.CancelledError:
                        if drain_task.done():
                            return
                        writer.write(format_comment("keepalive"))
                        await writer.drain()
                        continue
                else:
                    entry = get_task.result()
                if isinstance(entry, tuple) and entry[0] == RESET:
                    _, entry_generation, entry_next = entry
                    if entry_generation == tail.generation \
                            and entry_next <= tail.seq:
                        continue  # already announced during catch-up
                    tail.generation, tail.seq = entry_generation, entry_next
                    self.stream_stats.resets += 1
                    writer.write(format_reset(entry_generation, entry_next))
                    await writer.drain()
                    continue
                seq = entry["seq"]
                if seq < tail.seq:
                    continue  # already replayed from the store
                tail.seq = seq + 1
                if kinds is not None and entry["kind"] not in kinds:
                    continue
                writer.write(format_event(entry, tail.generation))
                self.stream_stats.events_sent += 1
                await writer.drain()
        finally:
            drain_task.cancel()
