"""The asyncio observatory server: one selector loop, many streams.

This is the observatory's HTTP transport (``observatory serve``, the
supervised ingest's ``--serve-port``, every shard worker): a thin layer
over :class:`repro.observatory.server.ObservatoryApp` that puts on the
wire exactly what ``ObservatoryApp.respond`` returns — status, headers,
body — which the transport-fidelity tests assert.

Why asyncio: a thread per connection would make ten thousand idle SSE
subscribers ten thousand idle threads.  Here a connection is a
coroutine: data requests are parsed on the loop, answered through
``ObservatoryApp.respond`` on a small executor-thread pool (store reads
are blocking file I/O), and written back with HTTP/1.1 keep-alive —
repeat queries skip the connect tax entirely.  Streams never touch the
executor pool after catch-up: they wait on their hub queue.

The transport half lives in :class:`AsyncHTTPTransport` — lifecycle,
the connection loop, head parsing, graceful drain and signal handling —
with a single ``_dispatch`` hook per request.  The federated query tier
(:mod:`repro.observatory.federation`) reuses it unchanged; this module
adds the ``ObservatoryApp`` dispatch plus SSE streaming on top.

Shutdown is graceful by contract (SIGTERM or ``stop()``): the listener
closes first (no new connections), every in-flight request finishes,
SSE subscribers get a final ``: shutdown`` comment frame, and only
connections still busy after ``drain_timeout`` are cancelled.

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
import http.client
import signal
import threading
from typing import Optional
from urllib.parse import parse_qs, urlsplit

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

__all__ = ["AsyncHTTPTransport", "AsyncObservatoryServer", "STREAM_PATHS"]

#: Stream endpoint -> event-kind filter (``None`` = every kind).
STREAM_PATHS: dict[str, Optional[tuple[str, ...]]] = {
    "/stream/events": None,
    "/stream/outbreaks": ("outbreak",),
    "/stream/resurrections": ("resurrection",),
}


def _first(params: dict, name: str) -> Optional[str]:
    values = params.get(name)
    return values[0] if values else None


class AsyncHTTPTransport:
    """Asyncio GET-only HTTP/1.1 transport with graceful shutdown.

    Subclasses implement ``async _dispatch(path, params, headers,
    writer, keep_alive) -> bool`` (the return value decides whether the
    connection loop continues) plus the optional ``_on_startup`` /
    ``_on_cleanup`` hooks, which run inside the event loop before the
    listener opens and after it drains.

    Lifecycle: ``start()`` runs the loop on a daemon thread (ephemeral
    ``port=0`` readable back after start), ``serve_forever()`` blocks
    in the foreground and installs SIGTERM/SIGINT handlers for a
    graceful exit, ``stop()`` is thread-safe.

    Shutdown sequence: close the listener, set ``_draining`` (the
    connection loop stops accepting follow-up keep-alive requests and
    SSE tails wind down with a final frame), wait up to
    ``drain_timeout`` seconds for in-flight connections, cancel
    whatever is still stuck.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 drain_timeout: float = 5.0, write_buffer: int = 1 << 16):
        self.drain_timeout = drain_timeout
        self.write_buffer = write_buffer
        self._requested = (host, port)
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._draining: Optional[asyncio.Event] = None
        self._connections: set[asyncio.Task] = set()
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- counters (real implementations live in the app mixin) ------------

    def count_request(self) -> None:
        pass

    def count_dropped_response(self) -> None:
        pass

    # -- lifecycle hooks ---------------------------------------------------

    async def _on_startup(self) -> None:
        pass

    async def _on_cleanup(self) -> None:
        pass

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        assert self._host is not None, "server not started"
        return self._host

    @property
    def port(self) -> int:
        assert self._port is not None, "server not started"
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AsyncHTTPTransport":
        """Run the event loop on a daemon thread; returns self."""
        self._thread = threading.Thread(target=self._run_loop,
                                        name="observatory-async", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("async observatory server failed to start")
        if self._startup_error is not None:
            raise RuntimeError("async observatory server failed to start"
                               ) from self._startup_error
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced by start()
            self._startup_error = exc
        finally:
            self._started.set()

    def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Blocking serve (the CLI foreground mode).  SIGTERM/SIGINT
        trigger the graceful drain and this returns normally — the CLI
        exits 0."""
        asyncio.run(self._main(
            install_signal_handlers=install_signal_handlers))

    def stop(self) -> None:
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:
                pass  # loop shut down in the meantime
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    async def _main(self, install_signal_handlers: bool = False) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._draining = asyncio.Event()
        await self._on_startup()
        server = await asyncio.start_server(self._on_connection,
                                            *self._requested)
        installed: list[int] = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self._shutdown.set)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or unsupported platform
        sockname = server.sockets[0].getsockname()
        self._host, self._port = sockname[0], sockname[1]
        self._started.set()
        try:
            await self._shutdown.wait()
        finally:
            for signum in installed:
                self._loop.remove_signal_handler(signum)
            # Graceful drain: stop accepting, let in-flight requests
            # finish (SSE tails see _draining and send a final frame),
            # cancel only what is still stuck after the timeout.
            server.close()
            await server.wait_closed()
            self._draining.set()
            if self._connections:
                await asyncio.wait(set(self._connections),
                                   timeout=self.drain_timeout)
            for task in list(self._connections):
                task.cancel()
            await self._on_cleanup()
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)

    # -- connection handling ----------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            writer.transport.set_write_buffer_limits(high=self.write_buffer)
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            self.count_dropped_response()
        except asyncio.CancelledError:
            # Shutdown is the only canceller; ending cleanly here keeps
            # the StreamReaderProtocol done-callback from re-raising.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _next_head(self, reader: asyncio.StreamReader
                         ) -> Optional[bytes]:
        """The next request head, or ``None`` once draining begins with
        no request in flight on this connection.  A head that completes
        in the cancellation race is rescued, not dropped — the request
        was received and will be answered before the connection dies."""
        assert self._draining is not None
        read_task = asyncio.ensure_future(reader.readuntil(b"\r\n\r\n"))
        drain_task = asyncio.ensure_future(self._draining.wait())
        try:
            await asyncio.wait({read_task, drain_task},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            drain_task.cancel()
        if read_task.done():
            return read_task.result()
        read_task.cancel()
        try:
            return await read_task
        except asyncio.CancelledError:
            return None

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        assert self._draining is not None
        while True:
            try:
                head = await self._next_head(reader)
            except asyncio.IncompleteReadError:
                return  # client closed (or sent nothing) between requests
            except asyncio.LimitOverrunError:
                await self._send_error(writer, 431,
                                       "request header section too large")
                return
            if head is None:
                return  # draining, connection idle
            try:
                method, target, version, headers = self._parse_head(head)
            except ValueError as exc:
                await self._send_error(writer, 400, f"malformed request: "
                                                    f"{exc}")
                return
            if method != "GET":
                await self._send_error(writer, 405,
                                       f"method not allowed: {method}")
                return
            url = urlsplit(target)
            params = parse_qs(url.query)
            keep_alive = (version == "HTTP/1.1"
                          and headers.get("connection", "").lower() != "close")
            keep_alive = await self._dispatch(url.path, params, headers,
                                              writer, keep_alive)
            if not keep_alive or self._draining.is_set():
                return

    async def _dispatch(self, path: str, params: dict,
                        headers: dict[str, str],
                        writer: asyncio.StreamWriter,
                        keep_alive: bool) -> bool:
        raise NotImplementedError

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]]:
        """Parse one request head into (method, target, version, headers);
        header names are lower-cased, later duplicates win (none of the
        headers this server reads are list-valued in practice)."""
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise ValueError(f"bad request line: {lines[0]!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"bad header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method, target, version, headers

    @staticmethod
    def _write_head(writer: asyncio.StreamWriter, status: int,
                    headers: list[tuple[str, str]], keep_alive: bool) -> None:
        reason = http.client.responses.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines += [f"{name}: {value}" for name, value in headers]
        lines.append("Connection: " + ("keep-alive" if keep_alive
                                       else "close"))
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))

    async def _send_error(self, writer: asyncio.StreamWriter, status: int,
                          message: str) -> None:
        status, headers, payload = ObservatoryApp._json_response(
            status, {"error": message})
        self._write_head(writer, status, headers, keep_alive=False)
        writer.write(payload)
        await writer.drain()


class AsyncObservatoryServer(ObservatoryApp, AsyncHTTPTransport):
    """Asyncio transport over :class:`ObservatoryApp` + SSE streaming.

    Tuning knobs (all with production-shaped defaults): ``poll_interval``
    is the hub's store-poll cadence and therefore the floor on
    append-to-deliver latency; ``queue_events`` bounds each subscriber's
    live queue (overflow = drop-to-cursor); ``heartbeat`` spaces SSE
    keepalive comments; ``write_buffer`` caps the per-connection kernel
    send buffer so slow consumers backpressure instead of growing heap;
    ``drain_timeout`` bounds the graceful-shutdown wait for in-flight
    connections.
    """

    def __init__(self, store: EventStore, host: str = "127.0.0.1",
                 port: int = 0, ingest=None, archive=None, supervisor=None,
                 poll_interval: float = 0.05, queue_events: int = 256,
                 heartbeat: float = 15.0, write_buffer: int = 1 << 16,
                 batch_events: int = 1024, drain_timeout: float = 5.0):
        ObservatoryApp.__init__(self, store, ingest=ingest, archive=archive,
                                supervisor=supervisor)
        AsyncHTTPTransport.__init__(self, host=host, port=port,
                                    drain_timeout=drain_timeout,
                                    write_buffer=write_buffer)
        self.stream_stats = StreamStats()
        self.poll_interval = poll_interval
        self.queue_events = queue_events
        self.heartbeat = heartbeat
        self.batch_events = batch_events
        self.hub: Optional[StreamHub] = None
        self._watcher: Optional[asyncio.Task] = None

    # -- transport hooks ---------------------------------------------------

    async def _on_startup(self) -> None:
        self.hub = StreamHub(self.store, self.stream_stats,
                             poll_interval=self.poll_interval,
                             batch_events=self.batch_events)
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
        self._write_head(writer, status, response_headers, keep_alive)
        writer.write(payload)
        await writer.drain()
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
                subscription = Subscription(self.queue_events)
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
                None, _live_batch, tail, kinds, self.batch_events)
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
                                   timeout=self.heartbeat,
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
