"""The one HTTP engine on its own: ``HEAD``, the error answers of the
connection loop, a fuzz of the request-head parser against a live
server — asserted here once for every server that subclasses it — and
the response-head reader that shares its header-line loop."""

import json
import re
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.asynchttp import AsyncHTTPTransport, parse_status_head

BODY = json.dumps({"status": "ok"}).encode()


class EchoServer(AsyncHTTPTransport):
    """``/healthz`` answers 200, everything else 404; exceptions the
    event loop had to swallow are kept for the tests to see."""

    def __init__(self):
        super().__init__()
        self.loop_errors = []

    async def _on_startup(self):
        self._loop.set_exception_handler(
            lambda loop, context: self.loop_errors.append(context))

    async def _dispatch(self, path, params, headers, writer, keep_alive):
        status = 200 if path == "/healthz" else 404
        await self._send(writer, status, [
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(BODY)))], BODY, keep_alive)
        return keep_alive


@pytest.fixture(scope="module")
def server():
    live = EchoServer().start()
    yield live
    live.stop()
    assert live.loop_errors == []


def exchange(server, payload):
    """Send ``payload``, half-close, and return every byte sent back
    before the server closed its side."""
    with socket.create_connection((server.host, server.port),
                                  timeout=5) as sock:
        try:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server had already answered and closed
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # closed on unread input: whatever arrived stands
        return b"".join(chunks)


def split_response(raw):
    head, _, rest = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    match = re.fullmatch(r"HTTP/1\.1 (\d{3}) [ -~]+", lines[0])
    assert match, lines[0]
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(match.group(1)), headers, rest


class TestConnectionLoop:
    def test_head_then_get_on_one_keep_alive_connection(self, server):
        request = b"%s /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        raw = exchange(server, request % b"HEAD" + request % b"GET")
        status, headers, rest = split_response(raw)
        assert status == 200
        assert headers["Content-Length"] == str(len(BODY))
        assert headers["Connection"] == "keep-alive"
        # No HEAD body: the next bytes are the GET's response.
        status, get_headers, body = split_response(rest)
        assert status == 200 and get_headers == headers
        assert body == BODY

    def test_post_is_405_and_closes(self, server):
        raw = exchange(server, b"POST /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                               b"GET /healthz HTTP/1.1\r\n\r\n")
        status, headers, body = split_response(raw)
        assert status == 405
        assert headers["Connection"] == "close"
        assert json.loads(body) == {"error": "method not allowed: POST"}

    def test_oversize_head_is_431(self, server):
        raw = exchange(server, b"GET /" + b"a" * 66000)
        status, headers, body = split_response(raw)
        assert status == 431
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(body)

    def test_unparseable_target_is_400(self, server):
        raw = exchange(server, b"GET //[ HTTP/1.1\r\n\r\n")
        assert split_response(raw)[0] == 400


class TestResponseHead:
    def test_reads_what_the_transport_writes(self, server):
        raw = exchange(server, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        status, headers = parse_status_head(head + b"\r\n\r\n")
        assert status == 404
        assert headers["connection"] == "keep-alive"
        assert int(headers["content-length"]) == len(body)

    @pytest.mark.parametrize("head", [
        b"HTTP/1.1\r\n\r\n", b"HTTP/1.1 OK 200\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n"])
    def test_malformed_heads_raise(self, head):
        with pytest.raises(ValueError):
            parse_status_head(head)


def either(*samples, size):
    return st.sampled_from(samples) | st.binary(max_size=size)


#: Raw noise, shuffled protocol tokens, and heads of the right shape
#: whose parts are each either plausible or noise.
request_bytes = st.one_of(
    st.binary(max_size=256),
    st.lists(either(b"GET", b"/healthz", b"HTTP/1.1", b":", b" ", b"\r\n",
                    b"\r\n\r\n", size=24), max_size=16).map(b"".join),
    st.builds(
        lambda method, target, version, fields: b"".join([
            method, b" ", target, b" ", version, b"\r\n",
            *(field + b"\r\n" for field in fields), b"\r\n"]),
        either(b"GET", b"HEAD", b"POST", size=8),
        either(b"/healthz", b"/", b"//[", b"/?a=%zz&&=", size=24),
        either(b"HTTP/1.1", b"HTTP/1.0", size=8),
        st.lists(either(b"Connection: close", b"Host: x", b"no colon",
                        size=24), max_size=4)))


class TestHeadParserFuzz:
    @settings(max_examples=150, deadline=None)
    @given(payload=request_bytes)
    def test_arbitrary_bytes_never_break_the_loop(self, server, payload):
        raw = exchange(server, payload)
        while raw:  # zero or more well-formed responses, then a close
            status, headers, rest = split_response(raw)
            assert status in (200, 404, 400, 405, 431)
            length = int(headers["Content-Length"])
            if status in (400, 405, 431):
                assert headers["Connection"] == "close"
                assert set(json.loads(rest)) == {"error"}
                assert length == len(rest)
                break
            # A 200/404 carries BODY unless it answered a HEAD.
            raw = rest[length:] if rest.startswith(BODY) else rest
        assert server.loop_errors == []
        status, _, body = split_response(exchange(
            server, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"))
        assert (status, body) == (200, BODY)
