"""The repository's one HTTP server: an asyncio HTTP/1.1 transport.

Every server process here — observatory, shard worker, federation
edge — is a subclass of
:class:`AsyncHTTPTransport` with one ``_dispatch`` hook.  The transport
owns what they share: lifecycle (daemon thread or foreground), the
connection loop with HTTP/1.1 keep-alive, the request-head parser and
its 400/405/431 answers, ``HEAD``, the SIGTERM/SIGINT graceful drain.
The same header-line code reads response heads for the one client
built on raw streams, the federation edge (:func:`parse_status_head`).
It imports nothing from the packages that build on it.

Why asyncio: a thread per connection would make ten thousand idle SSE
subscribers ten thousand idle threads.  Here a connection is a
coroutine; whatever blocks (store reads, a shard round-trip) runs on
the loop's small executor-thread pool.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import signal
import threading
from typing import Optional
from urllib.parse import parse_qs, urlsplit

__all__ = ["AsyncHTTPTransport", "parse_status_head"]

#: Seconds a draining server waits for in-flight connections before it
#: cancels them.
DRAIN_TIMEOUT = 5.0
#: Per-connection high-water mark of the transport's write buffer, in
#: bytes: a slow consumer backpressures its coroutine instead of
#: growing the heap.
WRITE_BUFFER = 1 << 16


def _header_fields(lines: list[str]) -> dict[str, str]:
    """Header lines into a dict; names are lower-cased, later
    duplicates win (none of the headers read here are list-valued in
    practice)."""
    headers: dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"bad header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


def parse_status_head(head: bytes) -> tuple[int, dict[str, str]]:
    """Parse one response head into (status, headers)."""
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"bad status line: {lines[0]!r}")
    return int(parts[1]), _header_fields(lines[1:])


class _HeadOnly:
    """Stands in for the stream writer while a ``HEAD`` is answered:
    the first write — ``_write_head``'s, which every response starts
    with — goes out, the body writes after it are dropped."""

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._head_sent = False

    def write(self, data: bytes) -> None:
        if not self._head_sent:
            self._head_sent = True
            self._writer.write(data)

    def __getattr__(self, name: str):
        return getattr(self._writer, name)


class AsyncHTTPTransport:
    """Asyncio ``GET``/``HEAD`` HTTP/1.1 transport with graceful shutdown.

    Subclasses implement ``async _dispatch(path, params, headers,
    writer, keep_alive) -> bool`` (the return value decides whether the
    connection loop continues) plus the optional ``_on_startup`` /
    ``_on_cleanup`` hooks, which run inside the event loop before the
    listener opens and after it drains.  ``_dispatch`` answers every
    request as a ``GET``; for a ``HEAD`` the loop hands it a writer
    that lets the head through and drops the body.

    Lifecycle: ``start()`` runs the loop on a daemon thread (ephemeral
    ``port=0`` readable back after start), ``serve_forever()`` blocks
    in the foreground and installs SIGTERM/SIGINT handlers for a
    graceful exit, ``stop()`` is thread-safe.

    Shutdown sequence: close the listener, set ``_draining`` (the
    connection loop stops accepting follow-up keep-alive requests and
    SSE tails wind down with a final frame), wait up to
    :data:`DRAIN_TIMEOUT` seconds for in-flight connections, cancel
    whatever is still stuck.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
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

    # -- counters (real implementations live in the subclass) -------------

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
                                        name="async-http", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("async HTTP server failed to start")
        if self._startup_error is not None:
            raise RuntimeError("async HTTP server failed to start"
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
                                   timeout=DRAIN_TIMEOUT)
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
            writer.transport.set_write_buffer_limits(high=WRITE_BUFFER)
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
                url = urlsplit(target)  # rejects e.g. an unclosed "//["
            except ValueError as exc:
                await self._send_error(writer, 400, f"malformed request: "
                                                    f"{exc}")
                return
            out = writer
            if method != "GET":
                if method != "HEAD":
                    await self._send_error(writer, 405,
                                           f"method not allowed: {method}")
                    return
                out = _HeadOnly(writer)
            params = parse_qs(url.query)
            keep_alive = (version == "HTTP/1.1"
                          and headers.get("connection", "").lower() != "close")
            keep_alive = await self._dispatch(url.path, params, headers,
                                              out, keep_alive)
            if not keep_alive or self._draining.is_set():
                return

    async def _dispatch(self, path: str, params: dict,
                        headers: dict[str, str],
                        writer: asyncio.StreamWriter,
                        keep_alive: bool) -> bool:
        raise NotImplementedError

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]]:
        """Parse one request head into (method, target, version, headers)."""
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise ValueError(f"bad request line: {lines[0]!r}")
        method, target, version = parts
        return method, target, version, _header_fields(lines[1:])

    @staticmethod
    def _write_head(writer: asyncio.StreamWriter, status: int,
                    headers: list[tuple[str, str]], keep_alive: bool) -> None:
        reason = http.client.responses.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines += [f"{name}: {value}" for name, value in headers]
        lines.append("Connection: " + ("keep-alive" if keep_alive
                                       else "close"))
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    headers: list[tuple[str, str]], payload: bytes,
                    keep_alive: bool) -> None:
        """One complete response; ``headers`` carry the Content-Length."""
        self._write_head(writer, status, headers, keep_alive)
        writer.write(payload)
        await writer.drain()

    async def _send_error(self, writer: asyncio.StreamWriter, status: int,
                          message: str) -> None:
        payload = json.dumps({"error": message}).encode("utf-8")
        await self._send(writer, status, [
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(payload)))], payload,
            keep_alive=False)
