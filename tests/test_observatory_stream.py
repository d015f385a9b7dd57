"""Tests for the streaming subsystem: resume tokens, SSE framing, the
fan-out hub, the asyncio server (wire fidelity to ``respond()`` plus the
``/stream/*`` endpoints), client streaming, and the timeout split."""

import asyncio
import hashlib
import http.client
import json
import socket
import threading
import time
from urllib.parse import parse_qs, urlsplit

import pytest

from repro.cli import main
from repro.observatory import (
    AsyncObservatoryServer,
    EventStore,
    ObservatoryClient,
    ObservatoryIngest,
    build_synthetic_archive,
    load_scenario,
)
from repro.observatory import stream as stream_module
from repro.observatory.server import ObservatoryApp
from repro.observatory.stream import (
    RESET,
    StreamHub,
    StreamStats,
    Subscription,
    TokenError,
    encode_token,
    format_comment,
    format_event,
    format_reset,
    parse_token,
)
from repro.ris import Archive
from test_observatory_federation import wait_until


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A fully ingested synthetic observatory: archive, store, ingest."""
    root = tmp_path_factory.mktemp("stream-world")
    built = build_synthetic_archive(root / "archive")
    config = load_scenario(built.scenario_path)
    archive = Archive(built.root)
    store = EventStore(root / "store")
    ingest = ObservatoryIngest(
        archive, store, root / "ckpt.json", config["intervals"],
        config["start"], config["end"])
    ingest.run()
    ingest.finish()
    return built, config, archive, store, ingest


@pytest.fixture(autouse=True)
def fast_poll(monkeypatch):
    """Servers in this module poll the store every 5 ms, not 50 ms."""
    monkeypatch.setattr(stream_module, "POLL_INTERVAL", 0.005)


@pytest.fixture()
def aserver(world):
    built, config, archive, store, ingest = world
    server = AsyncObservatoryServer(store).start()
    yield server
    server.stop()


def sse_connect(server, path, headers=None, timeout=5.0):
    """Open a raw SSE subscription; returns (connection, response)."""
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=timeout)
    conn.request("GET", path, headers=headers or {})
    return conn, conn.getresponse()


def read_frames(response, count, deadline=10.0):
    """Read ``count`` SSE frames as (id, event, data-dict) tuples,
    skipping comments."""
    frames = []
    buf = b""
    stop = time.monotonic() + deadline
    while len(frames) < count:
        assert time.monotonic() < stop, \
            f"timed out with {len(frames)}/{count} frames"
        chunk = response.read1(65536)
        if not chunk:
            break
        buf += chunk
        *complete, buf = buf.split(b"\n\n")
        for raw in complete:
            fields = {}
            for line in raw.decode("utf-8").splitlines():
                if line.startswith(":"):
                    break  # comment frame
                name, _, value = line.partition(": ")
                fields[name] = value
            if fields:
                frames.append((fields["id"], fields["event"],
                               json.loads(fields["data"])))
    return frames


class TestTokens:
    def test_round_trip(self):
        assert parse_token(encode_token(3, 41)) == (3, 41)
        assert encode_token(0, 0) == "0:0"

    @pytest.mark.parametrize("raw", ["junk", "12", "a:b", "1:", ":2",
                                     "-1:5", "1:-5", "1.5:2"])
    def test_malformed_tokens_rejected(self, raw):
        with pytest.raises(TokenError):
            parse_token(raw)


class TestFraming:
    def test_event_frame(self):
        event = {"seq": 7, "kind": "outbreak", "prefix": "2001:db8::/32"}
        frame = format_event(event, generation=2).decode()
        lines = frame.split("\n")
        assert lines[0] == "id: 2:8"  # the token *after* this event
        assert lines[1] == "event: outbreak"
        assert json.loads(lines[2][len("data: "):]) == event
        assert lines[2] == "data: " + json.dumps(event, sort_keys=True)
        assert frame.endswith("\n\n")

    def test_reset_frame(self):
        frame = format_reset(5, 100).decode()
        assert "id: 5:100\n" in frame
        assert "event: reset\n" in frame
        assert json.loads(frame.split("data: ")[1]) == \
            {"generation": 5, "next_seq": 100}

    def test_comment_frame(self):
        assert format_comment("keepalive") == b": keepalive\n\n"


class FakeStore:
    """A scriptable stand-in for EventStore's streaming surface."""

    def __init__(self):
        self.generation = 0
        self._events = []

    def append(self, kind, seq):
        self._events.append({"seq": seq, "kind": kind, "time": seq})

    def position(self):
        next_seq = self._events[-1]["seq"] + 1 if self._events else 0
        return self.generation, next_seq

    def events(self, kinds=None, min_seq=None, **_):
        for event in self._events:
            if min_seq is not None and event["seq"] < min_seq:
                continue
            if kinds is not None and event["kind"] not in kinds:
                continue
            yield dict(event)


class TestStreamHub:
    """The fan-out hub in isolation: one poll feeding N queues."""

    @pytest.fixture(autouse=True)
    def faster_poll(self, monkeypatch):
        monkeypatch.setattr(stream_module, "POLL_INTERVAL", 0.001)

    @staticmethod
    def subscription(monkeypatch, queue_events):
        monkeypatch.setattr(stream_module, "QUEUE_EVENTS", queue_events)
        return Subscription()

    def run_hub(self, coro):
        return asyncio.run(coro)

    async def drive(self, hub, passes=40):
        task = asyncio.create_task(hub.run())
        # Let the hub poll a few times, then detach cleanly.
        for _ in range(passes):
            await asyncio.sleep(0.002)
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    def test_broadcast_reaches_every_subscriber(self, monkeypatch):
        async def scenario():
            store = FakeStore()
            stats = StreamStats()
            hub = StreamHub(store, stats)
            subs = [self.subscription(monkeypatch, 16) for _ in range(3)]
            start = asyncio.create_task(self.drive(hub, passes=5))
            await asyncio.sleep(0.004)  # hub establishes its watermark
            for sub in subs:
                hub.attach(sub)
            for seq in range(4):
                store.append("outbreak", seq)
            await start
            return [[entry["seq"] for entry in self._drain(sub)]
                    for sub in subs]

        seqs = self.run_hub(scenario())
        assert seqs == [[0, 1, 2, 3]] * 3

    @staticmethod
    def _drain(sub):
        entries = []
        while not sub.queue.empty():
            entries.append(sub.queue.get_nowait())
        return entries

    def test_slow_subscriber_marked_lagged_not_blocking_others(
            self, monkeypatch):
        async def scenario():
            store = FakeStore()
            stats = StreamStats()
            hub = StreamHub(store, stats)
            slow = self.subscription(monkeypatch, 2)
            fast = self.subscription(monkeypatch, 64)
            start = asyncio.create_task(self.drive(hub, passes=8))
            await asyncio.sleep(0.004)
            hub.attach(slow)
            hub.attach(fast)
            for seq in range(10):
                store.append("outbreak", seq)
            await start
            return slow, fast, stats

        slow, fast, stats = self.run_hub(scenario())
        assert slow.lagged and not fast.lagged
        assert stats.lagged == 1
        assert [e["seq"] for e in self._drain(fast)] == list(range(10))
        # The slow queue holds exactly the prefix it had room for: the
        # subscriber resumes from its cursor, no event is lost.
        assert [e["seq"] for e in self._drain(slow)] == [0, 1]

    def test_generation_bump_broadcasts_reset(self, monkeypatch):
        async def scenario():
            store = FakeStore()
            store.append("outbreak", 0)
            stats = StreamStats()
            hub = StreamHub(store, stats)
            sub = self.subscription(monkeypatch, 16)
            start = asyncio.create_task(self.drive(hub, passes=8))
            await asyncio.sleep(0.004)
            hub.attach(sub)
            store.generation = 3  # truncate/compact happened
            await start
            return self._drain(sub)

        entries = self.run_hub(scenario())
        assert entries == [(RESET, 3, 1)]


#: path -> (query digest of its ETag ``"0-16-<digest>"``, or None;
#: sha256(body)[:16]), captured from the commit (90de47d) that still had
#: the threaded engine and the scan path: retiring them changed no byte.
#: ``/healthz`` is served without a live engine, so its body says
#: ``"ingest_finished": null``; with ``true`` in that place it hashes to
#: the 90de47d capture, ``60af9fe790354440``.
PARITY_PATHS = {
    "/healthz": (None, "32ee554c8f370790"),
    "/outbreaks": ("d1dd3abf80bf7594", "743cb68434499f65"),
    "/outbreaks?limit=2": ("b148c45a06e88f29", "f9b01b5a09b2b445"),
    "/outbreaks?prefix=2a0d:3dc1:1000::/48":
        ("90f9065d58f4e585", "1f765f724e0012c4"),
    "/outbreaks?since=1717300000&until=1717400000":
        ("d35fb18a6308655b", "743cb68434499f65"),
    "/zombies": ("ed8af40eb2f179b4", "0f1d88058714fe15"),
    "/zombies?limit=1": ("75cdd5b125e4a1ad", "232a602490ea75c3"),
    "/zombies/2a0d:3dc1:1000::%2F48": ("7474c67ecdfaf155", "72830bf81a5f93e1"),
    "/zombies/2001:db8:ffff::%2F48": (None, "ffe58a127d5e7d5d"),  # 404
    "/resurrections": ("12d89d9ed07c56e7", "6122f04dfc7039f8"),
    "/resurrections?limit=2": ("00d0e94f8a5ebff5", "4235d024e0f3c11f"),
    "/outbreaks?limit=0": (None, "cab2b5ac4a15569b"),      # 400
    "/outbreaks?cursor=junk": (None, "1a970cf5bde467f5"),  # 400
    "/nope": (None, "c203b4cceb859832"),                   # 404
}


class TestEngineParity:
    """What the HTTP engine puts on the wire — status, every header
    ``respond`` returned, body — equals ``ObservatoryApp.respond``
    called in-process on the same store: 200s, 304s, 400s, 404s and
    pagination walks."""

    @pytest.fixture()
    def engines(self, world):
        built, config, archive, store, ingest = world
        oracle = ObservatoryApp(store)
        asynced = AsyncObservatoryServer(store).start()
        yield oracle, asynced
        asynced.stop()

    @staticmethod
    def fetch(server, path, headers=None):
        """One GET as ``respond`` shapes it; ``Connection`` is the only
        header the transport adds."""
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5)
        try:
            conn.request("GET", path, headers=headers or {})
            response = conn.getresponse()
            return (response.status,
                    [header for header in response.getheaders()
                     if header[0] != "Connection"],
                    response.read())
        finally:
            conn.close()

    @staticmethod
    def respond(app, path, if_none_match=None):
        url = urlsplit(path)
        return app.respond(url.path, parse_qs(url.query), if_none_match)

    @pytest.mark.parametrize("path", PARITY_PATHS)
    def test_identical_responses(self, engines, path):
        oracle, asynced = engines
        status, headers, body = self.fetch(asynced, path)
        assert (status, headers, body) == self.respond(oracle, path)
        digest, body_hash = PARITY_PATHS[path]
        assert dict(headers).get("ETag") == (digest and f'"0-16-{digest}"')
        assert hashlib.sha256(body).hexdigest()[:16] == body_hash

    def test_not_modified_parity(self, engines):
        oracle, asynced = engines
        etag = dict(self.fetch(asynced, "/outbreaks")[1])["ETag"]
        served = self.fetch(asynced, "/outbreaks", {"If-None-Match": etag})
        assert served == self.respond(oracle, "/outbreaks", etag)
        assert served[::2] == (304, b"") and dict(served[1])["ETag"] == etag

    def test_pagination_parity(self, engines):
        oracle, asynced = engines
        for what in ("outbreaks", "zombies", "resurrections"):
            rows, params = [], {"limit": ["2"]}
            while params.get("cursor") != [None]:
                page = json.loads(oracle.respond(f"/{what}", params)[2])
                rows += page[what]
                params["cursor"] = [page["next_cursor"]]
            served = list(ObservatoryClient(
                asynced.url).paginate(what, page_size=2))
            assert served == rows and rows

    def test_metrics_series_parity_and_stream_series(self, engines):
        oracle, asynced = engines
        app_metrics = oracle.render_metrics()
        async_metrics = self.fetch(asynced, "/metrics")[2].decode()

        def series(text):
            return {line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE")}

        # Served: the app's series plus the transport's stream series.
        extra = series(async_metrics) - series(app_metrics)
        assert series(app_metrics) <= series(async_metrics)
        assert extra == {"observatory_stream_subscribers",
                         "observatory_stream_events_sent_total",
                         "observatory_stream_lagged_total",
                         "observatory_stream_resets_total"}
        assert ("# TYPE observatory_stream_subscribers gauge"
                in async_metrics)
        assert ("# TYPE observatory_stream_events_sent_total counter"
                in async_metrics)
        assert ("# TYPE observatory_stream_lagged_total counter"
                in async_metrics)

    def test_keep_alive_serves_repeat_requests_on_one_connection(
            self, engines):
        _, asynced = engines
        conn = http.client.HTTPConnection(asynced.host, asynced.port,
                                          timeout=5)
        try:
            bodies = []
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                bodies.append(response.read())
            assert bodies[0] == bodies[1] == bodies[2]
        finally:
            conn.close()


class TestStreamEndpoints:
    def test_full_replay_matches_paged_query_byte_for_byte(
            self, world, aserver):
        built, config, archive, store, ingest = world
        next_seq = store.position()[1]
        conn, response = sse_connect(aserver, "/stream/events?from_seq=0")
        frames = read_frames(response, next_seq)
        conn.close()
        streamed = [json.dumps(event, sort_keys=True)
                    for _, _, event in frames]
        stored = [json.dumps(event, sort_keys=True)
                  for event in store.events()]
        assert streamed == stored
        # Outbreak subset equals the paged query listing, byte for byte.
        outbreaks = [json.dumps(row, sort_keys=True) for row in
                     ObservatoryClient(aserver.url).paginate(
                         "outbreaks", page_size=3)]
        assert [line for kind, line in
                zip((f[1] for f in frames), streamed)
                if kind == "outbreak"] == outbreaks

    def test_kind_filtered_streams(self, world, aserver):
        built, config, archive, store, ingest = world
        for what, kind in (("outbreaks", "outbreak"),
                           ("resurrections", "resurrection")):
            expected = sum(1 for _ in store.events(kinds=(kind,)))
            conn, response = sse_connect(aserver,
                                         f"/stream/{what}?from_seq=0")
            frames = read_frames(response, expected)
            conn.close()
            assert [f[1] for f in frames] == [kind] * expected
            # ids advance past filtered-out seqs: the last token names
            # the store tail region, not the last matching event + 1.
            seqs = [f[2]["seq"] for f in frames]
            assert seqs == sorted(seqs)

    def test_resume_token_replays_exactly_from_position(
            self, world, aserver):
        built, config, archive, store, ingest = world
        next_seq = store.position()[1]
        conn, response = sse_connect(aserver, "/stream/events?from_seq=0")
        frames = read_frames(response, 4)[:4]
        conn.close()  # subscriber killed mid-stream
        token = frames[-1][0]
        conn, response = sse_connect(aserver, "/stream/events",
                                     headers={"Last-Event-ID": token})
        rest = read_frames(response, next_seq - 4)
        conn.close()
        seqs = [f[2]["seq"] for f in frames] + [f[2]["seq"] for f in rest]
        assert seqs == [e["seq"] for e in store.events()]

    def test_bad_token_is_400_not_sse(self, aserver):
        conn, response = sse_connect(aserver, "/stream/events",
                                     headers={"Last-Event-ID": "junk"})
        assert response.status == 400
        assert "resume token" in json.loads(response.read())["error"]
        conn.close()

    def test_unknown_generation_token_gets_reset_frame(
            self, world, aserver):
        built, config, archive, store, ingest = world
        generation, next_seq = store.position()
        conn, response = sse_connect(
            aserver, "/stream/events",
            headers={"Last-Event-ID": f"{generation + 7}:0"})
        frame = read_frames(response, 1)[0]
        conn.close()
        assert frame[1] == "reset"
        assert frame[2] == {"generation": generation, "next_seq": next_seq}
        assert frame[0] == encode_token(generation, next_seq)


class TestBackpressure:
    """Slow consumers are dropped to their cursor: the lag counter
    moves, and the consumer still sees every event exactly once."""

    def test_slow_consumer_zero_loss_zero_duplication(self, tmp_path,
                                                      monkeypatch):
        from repro.observatory import asyncserver
        from repro.utils import asynchttp

        monkeypatch.setattr(stream_module, "QUEUE_EVENTS", 8)
        monkeypatch.setattr(asynchttp, "WRITE_BUFFER", 1024)
        monkeypatch.setattr(asyncserver, "HEARTBEAT", 0.5)
        store = EventStore(tmp_path / "store")
        for seq in range(50):
            store.append("outbreak", 1_000 + seq, {"n": seq})
        server = AsyncObservatoryServer(store).start()
        try:
            # A deliberately tiny receive window: the subscriber's TCP
            # backpressure stalls the server's writes almost at once.
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
            sock.settimeout(10)
            sock.connect((server.host, server.port))
            sock.sendall(b"GET /stream/events?from_seq=0 HTTP/1.1\r\n"
                         b"Host: x\r\n\r\n")
            assert wait_until(
                lambda: server.stream_stats.subscribers >= 1, interval=0.001)
            # Stall without reading while the store races far ahead,
            # until the hub has dropped this subscriber to its cursor.
            total = 2000
            payload = "x" * 400
            for seq in range(50, total):
                store.append("outbreak", 1_000 + seq, {"n": seq,
                                                       "pad": payload})
            assert wait_until(
                lambda: server.stream_stats.lagged >= 1, interval=0.001)
            # Now drain everything.
            buf = b""
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    chunk = sock.recv(65536)
                except TimeoutError:
                    break
                if not chunk:
                    break
                buf += chunk
                if buf.count(b'"n": ') >= total and buf.endswith(b"\n\n"):
                    break  # every event, last frame complete
            sock.close()
            body = buf.split(b"\r\n\r\n", 1)[1].decode()
            seqs = [json.loads(line[len("data: "):])["seq"]
                    for line in body.split("\n")
                    if line.startswith("data: ")]
            assert seqs == list(range(total)), \
                (len(seqs), seqs[:5], seqs[-5:])
            assert server.stream_stats.lagged >= 1
            metrics = ObservatoryClient(server.url).metrics()
            lagged = [line for line in metrics.splitlines()
                      if line.startswith("observatory_stream_lagged_total")]
            assert lagged and int(lagged[0].split()[1]) >= 1
        finally:
            server.stop()
            store.close()


class TestGenerationBump:
    def test_compact_mid_stream_sends_reset_signal(self, tmp_path):
        store = EventStore(tmp_path / "store")
        # Superseded lifespans give compaction something to drop.
        for n in range(6):
            store.append("lifespan", 1_000 + n,
                         {"prefix": "2001:db8::/32", "segment_count": n})
        server = AsyncObservatoryServer(store).start()
        try:
            conn, response = sse_connect(server, "/stream/events")
            generation = store.position()[0]
            assert wait_until(
                lambda: server.stream_stats.subscribers >= 1, interval=0.001)
            store.compact()
            new_generation, new_next = store.position()
            assert new_generation != generation
            frame = read_frames(response, 1)[0]
            conn.close()
            assert frame[1] == "reset"
            assert frame[2]["generation"] == new_generation
            assert server.stream_stats.resets >= 1
        finally:
            server.stop()
            store.close()

    def test_client_stream_surfaces_reset_kind(self, tmp_path):
        store = EventStore(tmp_path / "store")
        for n in range(6):
            store.append("lifespan", 1_000 + n,
                         {"prefix": "2001:db8::/32", "segment_count": n})
        server = AsyncObservatoryServer(store).start()
        try:
            client = ObservatoryClient(server.url)
            stream = client.stream("events", reconnect=False)
            # Compact only once the subscriber is attached: a bump that
            # lands before it arrives is not a reset to it at all.
            bumped = threading.Thread(target=lambda: (
                wait_until(lambda: server.stream_stats.subscribers >= 1,
                           interval=0.001),
                store.compact()))
            bumped.start()
            event = next(stream)
            bumped.join()
            assert event["kind"] == "reset"
            assert client.stream_token == encode_token(
                event["generation"], event["next_seq"])
            stream.close()
        finally:
            server.stop()
            store.close()


class TestClientStreaming:
    def test_reconnects_across_server_restart_without_loss(self, tmp_path):
        store = EventStore(tmp_path / "store")
        for n in range(10):
            store.append("outbreak", 1_000 + n, {"n": n})
        server = AsyncObservatoryServer(store).start()
        port = server.port
        # The restart waits for the client's first back-off, so the
        # client has seen the outage before the server is back.
        backed_off = threading.Event()
        client = ObservatoryClient(
            server.url, retries=8, backoff=0.05,
            sleep=lambda seconds: (backed_off.set(), time.sleep(seconds)))
        stream = client.stream("events", from_seq=0)
        got = [next(stream) for _ in range(10)]
        server.stop()

        def restart():
            assert backed_off.wait(timeout=20)
            self.server2 = AsyncObservatoryServer(
                store, host="127.0.0.1", port=port).start()
            for n in range(10, 14):
                store.append("outbreak", 1_000 + n, {"n": n})

        thread = threading.Thread(target=restart)
        thread.start()
        try:
            got += [next(stream) for _ in range(4)]
        finally:
            thread.join()
            stream.close()
            self.server2.stop()
            store.close()
        assert [e["seq"] for e in got] == list(range(14))

    def test_no_reconnect_stops_at_disconnect(self, tmp_path):
        store = EventStore(tmp_path / "store")
        store.append("outbreak", 1_000, {"n": 0})
        server = AsyncObservatoryServer(store).start()
        client = ObservatoryClient(server.url)
        stream = client.stream("events", from_seq=0, reconnect=False)
        assert next(stream)["seq"] == 0
        server.stop()
        assert list(stream) == []
        store.close()

    def test_unknown_stream_rejected(self, tmp_path):
        client = ObservatoryClient("http://127.0.0.1:9")
        with pytest.raises(ValueError, match="not a stream"):
            next(client.stream("zombies"))


class TestTailCLI:
    def test_tail_prints_events_and_resumes_from_state(
            self, tmp_path, capsys):
        store = EventStore(tmp_path / "store")
        for n in range(8):
            store.append("outbreak", 1_000 + n, {"n": n})
        server = AsyncObservatoryServer(store).start()
        state = tmp_path / "tail.state"
        try:
            assert main(["observatory", "tail", server.url,
                         "--from-seq", "0", "--max-events", "5",
                         "--state", str(state)]) == 0
            first = capsys.readouterr()
            lines = first.out.strip().splitlines()
            assert [json.loads(line)["seq"] for line in lines] == \
                [0, 1, 2, 3, 4]
            assert state.read_text() == "0:5"
            assert "resume token: 0:5" in first.err
            # Killed and restarted: the state file resumes exactly there.
            assert main(["observatory", "tail", server.url,
                         "--max-events", "3", "--state", str(state)]) == 0
            second = capsys.readouterr()
            lines = second.out.strip().splitlines()
            assert [json.loads(line)["seq"] for line in lines] == [5, 6, 7]
            assert state.read_text() == "0:8"
        finally:
            server.stop()
            store.close()

    def test_tail_unreachable_is_exit_2(self, capsys):
        assert main(["observatory", "tail", "http://127.0.0.1:9",
                     "--idle-timeout", "1"]) == 2
        assert "tail:" in capsys.readouterr().err


class TestStoreStreamSink:
    """The event store is the sink every live producer writes to: an
    ``EventStore.append`` reaches every ``/stream/*`` subscriber."""

    def test_sink_feeds_live_stream_end_to_end(self, tmp_path):
        store = EventStore(tmp_path / "store")
        server = AsyncObservatoryServer(store).start()
        try:
            conn, response = sse_connect(server, "/stream/outbreaks")
            assert wait_until(
                lambda: server.stream_stats.subscribers >= 1, interval=0.001)
            store.append("outbreak", 7_300, {
                "prefix": "2001:db8:1000::/48", "collector": "rrc00",
                "peer_address": "2001:db8::2", "peer_asn": 25091,
                "announce_time": 1_000, "withdraw_time": 1_900,
                "detected_at": 7_300, "path": None, "stale": False})
            frame = read_frames(response, 1)[0]
            conn.close()
            assert frame[1] == "outbreak"
            assert frame[2]["detected_at"] == 7_300
        finally:
            server.stop()
            store.close()


class TestClientTimeoutSplit:
    def test_split_defaults(self):
        client = ObservatoryClient("http://127.0.0.1:9")
        assert (client.connect_timeout, client.read_timeout) == (5.0, 10.0)
        split = ObservatoryClient("http://127.0.0.1:9",
                                  connect_timeout=0.1, read_timeout=33.0)
        assert (split.connect_timeout, split.read_timeout) == (0.1, 33.0)

    def test_connect_failures_are_retried(self):
        from repro.observatory import ObservatoryUnreachable

        sleeps = []
        client = ObservatoryClient("http://127.0.0.1:9",
                                   connect_timeout=0.3, retries=2,
                                   backoff=0.1, sleep=sleeps.append)
        with pytest.raises(ObservatoryUnreachable) as excinfo:
            client.healthz()
        assert excinfo.value.attempts == 3
        assert sleeps == [0.1, 0.2]

    def test_read_stall_fails_fast_without_retry(self):
        from repro.observatory import ObservatoryUnreachable

        # Accepts the TCP connect, then never answers: the read clock
        # must trip, and mid-read failures must NOT burn the retry
        # budget (blind re-reads hide half-delivered responses).
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        try:
            url = f"http://127.0.0.1:{listener.getsockname()[1]}"
            sleeps = []
            client = ObservatoryClient(url, connect_timeout=5.0,
                                       read_timeout=0.2, retries=3,
                                       backoff=0.1, sleep=sleeps.append)
            start = time.monotonic()
            with pytest.raises(ObservatoryUnreachable) as excinfo:
                client.healthz()
            assert excinfo.value.attempts == 1
            assert sleeps == []
            assert time.monotonic() - start < 2.0
        finally:
            listener.close()
