"""Tests for the sharded observatory: prefix routing and each shard's
slice of the one store, the federated scatter-gather query tier
(byte-identity with the monolithic server, vector ETags, explicit
partial answers, circuit breakers), the subprocess shard fleet under
chaos, client retry behaviour, and graceful shutdown of both serve
engines."""

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import quote

import pytest

from repro.observatory import (
    AsyncObservatoryServer,
    CircuitBreaker,
    EventStore,
    FederatedObservatoryServer,
    MaterializedViews,
    ObservatoryClient,
    PARTIAL_HEADER,
    ShardFleet,
    ShardWorker,
    partition_store,
    shard_for,
)
from repro.observatory import federation, fleet as fleet_module
from repro.observatory.fleet import pick_free_port
from repro.observatory.forensics import outbreak_id, outbreak_prefix
from repro.utils.asynchttp import AsyncHTTPTransport
from repro.utils.backoff import backoff_delay

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def build_store(root, events=120, seed=7):
    """A store with a deterministic mix of the three listing kinds
    spread over enough prefixes to hit every shard."""
    import random

    rng = random.Random(seed)
    store = EventStore(root)
    for i in range(events):
        kind = ("outbreak", "lifespan", "resurrection")[i % 3]
        prefix = f"10.{rng.randrange(48)}.0.0/16"
        payload = {"prefix": prefix, "peers": rng.randrange(1, 40)}
        if kind == "lifespan":
            payload.update(segment_count=rng.randrange(0, 4),
                           resurrection=bool(rng.randrange(2)),
                           total_seconds=float(rng.randrange(60, 7200)))
        store.append(kind, 1_700_000_000 + i * 30, payload)
    store.sync()
    return store


def add_snapshots(store):
    """One ``forensics`` snapshot per outbreak prefix (what the ingest
    writes beside an outbreak); returns the snapshot outbreak IDs."""
    ids = []
    for prefix in sorted({event["prefix"] for event in
                          store.events(kinds=("outbreak",))}):
        payload = {"prefix": prefix, "announce_time": 1_700_000_000,
                   "collector": "rrc00", "peer_address": "2001:db8::1"}
        ids.append(outbreak_id(payload))
        store.append("forensics", 1_700_010_000, dict(
            payload, outbreak_id=ids[-1], origin_asn=1, peer_asn=3,
            withdraw_time=1_700_000_900, detected_at=1_700_007_200,
            peers=[{"prefix": prefix, "collector": "rrc00",
                    "peer_address": "2001:db8::1", "peer_asn": 3,
                    "path": "3 2 1", "announced_at": 1_700_000_000,
                    "withdrawn_at": None, "aggregator_asn": None,
                    "aggregator_address": None}]))
    store.sync()
    return ids


def fetch(base, path, headers=None):
    """GET returning (status, headers-dict, body-bytes); 4xx/5xx and
    304 come back as values, not exceptions."""
    request = urllib.request.Request(base + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def wait_until(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestSharding:
    def test_shard_for_is_stable_and_in_range(self):
        # crc32-based: identical across processes and Python hash seeds.
        assert shard_for("192.0.2.0/24", 3) == shard_for("192.0.2.0/24", 3)
        for count in (1, 2, 3, 7):
            for i in range(64):
                assert 0 <= shard_for(f"10.{i}.0.0/16", count) < count
        assert shard_for("anything", 1) == 0

    def test_partition_preserves_seqs_and_covers_everything(self, tmp_path):
        """Each shard's views hold exactly the events ``shard_for`` gives
        that shard, under the store's own seqs, and the shards together
        fold every event of ``store.events()`` exactly once."""
        store = build_store(tmp_path / "store")
        events = list(store.events())
        prefixes = sorted({event["prefix"] for event in events})
        folded = Counter()
        for index in range(3):
            views = MaterializedViews(
                EventStore(tmp_path / "store", readonly=True),
                shard=(index, 3))
            views.refresh()
            owned = [event for event in events
                     if shard_for(event["prefix"], 3) == index]
            assert owned, f"shard {index} owns nothing"
            for prefix in prefixes:
                mine = [event for event in owned if event["prefix"] == prefix]
                lifespans = [event for event in mine
                             if event["kind"] == "lifespan"]
                assert views.zombie(prefix) == (
                    lifespans[-1] if lifespans else None,
                    [event for event in mine if event["kind"] == "outbreak"],
                    [event for event in mine
                     if event["kind"] == "resurrection"])
            assert views.kind_counts() == Counter(
                event["kind"] for event in owned)
            folded.update(views.kind_counts())
        assert folded == Counter(event["kind"] for event in events)
        store.close()

    def test_worker_refuses_an_index_out_of_range(self, tmp_path):
        build_store(tmp_path / "store", events=9).close()
        for index, count in ((3, 3), (-1, 3), (0, 0)):
            with pytest.raises(ValueError, match="out of range"):
                ShardWorker(tmp_path / "store", index, count)

    def test_partition_store_only_prepares_the_fleet_root(self, tmp_path):
        build_store(tmp_path / "store", events=9).close()
        root = partition_store(tmp_path / "store", tmp_path / "fleet", 3)
        assert root == tmp_path / "fleet" and list(root.iterdir()) == []
        with pytest.raises(ValueError):
            partition_store(tmp_path / "store", tmp_path / "fleet", 0)


@pytest.fixture(scope="module")
def fedworld(tmp_path_factory):
    """Monolithic server and a 3-shard federation over the same data."""
    root = tmp_path_factory.mktemp("fed")
    store = build_store(root / "store")
    snapshot_ids = add_snapshots(store)
    store.close()
    mono = AsyncObservatoryServer(
        EventStore(root / "store", readonly=True)).start()
    workers = [ShardWorker(root / "store", index, 3).start()
               for index in range(3)]
    fed = FederatedObservatoryServer(
        [worker.url for worker in workers]).start()
    yield {"root": root, "mono": mono, "workers": workers, "fed": fed,
           "snapshot_ids": snapshot_ids}
    fed.stop()
    for worker in workers:
        worker.stop()
    mono.stop()


WALK_PATHS = [
    "/outbreaks",
    "/zombies",
    "/resurrections",
    "/outbreaks?prefix=10.1.0.0/16",
    "/outbreaks?since=1700001000",
    "/resurrections?since=1700001000&until=1700003000",
    "/outbreaks?limit=7",
    "/zombies?limit=5",
    "/resurrections?limit=9",
]


#: What each listing validates, in the order the monolith always has —
#: the first bad parameter is the one its 400 names.
VALIDATION_ORDER = {
    "/outbreaks": ("limit", "cursor", "since", "until"),
    "/zombies": ("limit",),  # its prefix-string cursor accepts anything
    "/resurrections": ("limit", "since", "until", "cursor"),
}
BAD_VALUES = {"limit": "0", "cursor": "junk", "since": "soon",
              "until": "later"}
BAD_PAIRS = [(path, first, second)
             for path, order in VALIDATION_ORDER.items()
             for first in order
             for second in BAD_VALUES if second != first]


class TestFederationParity:
    @pytest.mark.parametrize("path", WALK_PATHS)
    def test_bodies_byte_identical(self, fedworld, path):
        mono_status, _, mono_body = fetch(fedworld["mono"].url, path)
        fed_status, _, fed_body = fetch(fedworld["fed"].url, path)
        assert (fed_status, fed_body) == (mono_status, mono_body)

    @pytest.mark.parametrize("what,limit", [
        ("outbreaks", 7), ("zombies", 4), ("resurrections", 6)])
    def test_pagination_walks_byte_identical(self, fedworld, what, limit):
        mono_pages, fed_pages = [], []
        for base, pages in ((fedworld["mono"].url, mono_pages),
                            (fedworld["fed"].url, fed_pages)):
            cursor = None
            while True:
                path = f"/{what}?limit={limit}"
                if cursor is not None:
                    path += f"&cursor={cursor}"
                status, _, body = fetch(base, path)
                assert status == 200
                pages.append(body)
                cursor = json.loads(body).get("next_cursor")
                if cursor is None:
                    break
        assert fed_pages == mono_pages
        assert len(mono_pages) > 1  # the walk actually paginated

    def test_zombie_detail_routed_to_owner(self, fedworld):
        listing = json.loads(fetch(fedworld["fed"].url, "/zombies")[2])
        prefix = listing["zombies"][0]["prefix"]
        path = "/zombies/" + prefix.replace("/", "%2F")
        assert fetch(fedworld["fed"].url, path)[2] == \
            fetch(fedworld["mono"].url, path)[2]
        missing = "/zombies/203.0.113.0%2F24"
        mono_status, _, mono_body = fetch(fedworld["mono"].url, missing)
        fed_status, _, fed_body = fetch(fedworld["fed"].url, missing)
        assert (fed_status, fed_body) == (mono_status, mono_body) \
            and fed_status == 404

    def test_routed_answers_carry_the_monolith_etag(self, fedworld):
        """A shard names the store's own position, so a single-owner
        answer passes through the edge with the monolith's ETag — and
        that ETag revalidates against either server."""
        listing = json.loads(fetch(fedworld["mono"].url, "/zombies")[2])
        routes = [("/zombies/" + quote(row["prefix"], safe=""),
                   row["prefix"]) for row in listing["zombies"]]
        routes += [("/outbreaks/" + quote(identifier, safe="")
                    + "/forensics", outbreak_prefix(identifier))
                   for identifier in fedworld["snapshot_ids"]]
        owners = set()
        for path, prefix in routes:
            owners.add(shard_for(prefix, 3))
            mono = fetch(fedworld["mono"].url, path)
            fed = fetch(fedworld["fed"].url, path)
            assert mono[0] == 200
            assert (fed[0], fed[2]) == (mono[0], mono[2])
            assert fed[1]["ETag"] == mono[1]["ETag"]
            for base in (fedworld["mono"].url, fedworld["fed"].url):
                assert fetch(base, path,
                             {"If-None-Match": mono[1]["ETag"]})[0] == 304
        assert owners == {0, 1, 2}

    @pytest.mark.parametrize("path", [
        "/outbreaks?limit=0",
        "/outbreaks?cursor=notanumber",
        "/outbreaks?since=soon",
        "/resurrections?cursor=badpair",
        "/zombies?limit=-3",
    ])
    def test_bad_request_parity(self, fedworld, path):
        mono_status, _, mono_body = fetch(fedworld["mono"].url, path)
        fed_status, _, fed_body = fetch(fedworld["fed"].url, path)
        assert (fed_status, fed_body) == (mono_status, mono_body)
        assert fed_status == 400

    @pytest.mark.parametrize("path,first,second", BAD_PAIRS)
    def test_two_bad_parameters_name_the_same_one(self, fedworld, path,
                                                  first, second):
        order = VALIDATION_ORDER[path]
        named = min((name for name in (first, second) if name in order),
                    key=order.index)
        for query in (f"{first}={BAD_VALUES[first]}"
                      f"&{second}={BAD_VALUES[second]}",
                      f"{second}={BAD_VALUES[second]}"
                      f"&{first}={BAD_VALUES[first]}"):
            mono = fetch(fedworld["mono"].url, f"{path}?{query}")
            fed = fetch(fedworld["fed"].url, f"{path}?{query}")
            assert (fed[0], fed[2]) == (mono[0], mono[2])
            assert mono[0] == 400
            assert named in json.loads(mono[2])["error"]

    def test_vector_etag_revalidates(self, fedworld):
        status, headers, _ = fetch(fedworld["fed"].url, "/outbreaks")
        etag = headers["ETag"]
        # One quoted component per shard plus the canonical-key digest.
        assert etag.strip('"').count("|") == 2
        status, headers, body = fetch(fedworld["fed"].url, "/outbreaks",
                                      {"If-None-Match": etag})
        assert status == 304 and body == b""
        assert headers["ETag"] == etag
        # A different query never matches the same vector.
        status, _, _ = fetch(fedworld["fed"].url, "/zombies",
                             {"If-None-Match": etag})
        assert status == 200

    def test_healthz_aggregates_all_shards(self, fedworld):
        status, headers, body = fetch(fedworld["fed"].url, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert sorted(health["shards"]) == \
            ["shard-00", "shard-01", "shard-02"]
        assert health["missing"] == []
        assert PARTIAL_HEADER not in headers

    def test_metrics_relabels_shards(self, fedworld):
        body = fetch(fedworld["fed"].url, "/metrics")[2].decode()
        assert 'shard="shard-00"' in body
        assert 'shard="shard-02"' in body
        assert "observatory_federation_requests_total" in body
        # HELP/TYPE appear once per metric name even with 3 expositions.
        help_lines = [line for line in body.splitlines()
                      if line.startswith("# HELP observatory_events_total")]
        assert len(help_lines) == 1

    def test_unknown_path_is_404(self, fedworld):
        assert fetch(fedworld["fed"].url, "/nope")[0] == 404


def no_retries_no_breaker(monkeypatch):
    """Shard exchanges without connect retries, and breakers that never
    open: every request probes every shard."""
    monkeypatch.setattr(federation, "RETRIES", 0)
    monkeypatch.setattr(federation, "BREAKER_THRESHOLD", 100)


class TestDegradedMode:
    @pytest.fixture()
    def world(self, tmp_path, monkeypatch):
        no_retries_no_breaker(monkeypatch)
        build_store(tmp_path / "store", events=60)
        ports = [pick_free_port() for _ in range(3)]
        workers = [ShardWorker(tmp_path / "store", index, 3,
                               port=ports[index]).start()
                   for index in range(3)]
        fed = FederatedObservatoryServer(
            [worker.url for worker in workers]).start()
        yield tmp_path, workers, fed, ports
        fed.stop()
        for worker in workers:
            worker.stop()

    def test_partial_answer_names_the_dead_shard(self, world):
        tmp_path, workers, fed, ports = world
        complete = json.loads(fetch(fed.url, "/outbreaks")[2])
        complete_etag = fetch(fed.url, "/outbreaks")[1]["ETag"]
        workers[1].stop()
        start = time.monotonic()
        status, headers, body = fetch(fed.url, "/outbreaks")
        elapsed = time.monotonic() - start
        assert status == 200
        assert headers[PARTIAL_HEADER] == "shard-01"
        assert elapsed < federation.DEADLINE + 2.0  # bounded, not hung
        survivors = json.loads(body)["outbreaks"]
        expected = [row for row in complete["outbreaks"]
                    if shard_for(row["prefix"], 3) != 1]
        assert survivors == expected
        # The degraded answer must never revalidate the complete one.
        status, headers, _ = fetch(fed.url, "/outbreaks",
                                   {"If-None-Match": complete_etag})
        assert status == 200
        assert ":down" in headers["ETag"]
        # Health flips to degraded and says who is missing.
        status, headers, health_body = fetch(fed.url, "/healthz")
        health = json.loads(health_body)
        assert health["status"] == "degraded"
        assert health["missing"] == ["shard-01"]
        assert headers[PARTIAL_HEADER] == "shard-01"

    def test_recovery_restores_byte_identity(self, world):
        tmp_path, workers, fed, ports = world
        before = fetch(fed.url, "/resurrections")
        workers[2].stop()
        degraded = fetch(fed.url, "/resurrections")
        assert degraded[1][PARTIAL_HEADER] == "shard-02"
        # Restart the worker on the same port the federation dials.
        workers[2] = ShardWorker(tmp_path / "store", 2, 3,
                                 port=ports[2]).start()
        assert wait_until(
            lambda: PARTIAL_HEADER not in fetch(fed.url, "/resurrections")[1])
        after = fetch(fed.url, "/resurrections")
        assert after[2] == before[2]
        assert after[1]["ETag"] == before[1]["ETag"]

    def test_routed_detail_on_dead_owner_is_503(self, world):
        tmp_path, workers, fed, ports = world
        listing = json.loads(fetch(fed.url, "/zombies")[2])["zombies"]
        victim = next(row["prefix"] for row in listing
                      if shard_for(row["prefix"], 3) == 0)
        workers[0].stop()
        status, headers, body = fetch(
            fed.url, "/zombies/" + victim.replace("/", "%2F"))
        assert status == 503
        assert headers[PARTIAL_HEADER] == "shard-00"
        assert "Retry-After" in headers
        assert json.loads(body)["error"]


class TestCircuitBreaker:
    def test_transitions(self, monkeypatch):
        monkeypatch.setattr(federation, "BREAKER_THRESHOLD", 2)
        clock = [0.0]
        breaker = CircuitBreaker(clock=lambda: clock[0])
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        clock[0] = 4.9
        assert not breaker.allow()
        clock[0] = 5.1  # half-open: exactly one probe gets through
        assert breaker.state == "half-open"
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_failure()  # probe failed: back to open
        assert breaker.state == "open"
        clock[0] = 10.3
        assert breaker.allow()
        breaker.record_success()  # probe succeeded: closed again
        assert breaker.state == "closed"
        assert breaker.allow() and breaker.allow()

    def test_breaker_sheds_load_after_shard_death(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(federation, "RETRIES", 0)
        monkeypatch.setattr(federation, "DEADLINE", 1.0)
        monkeypatch.setattr(federation, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(federation, "BREAKER_OPEN_SECONDS", 60.0)
        build_store(tmp_path / "store", events=30)
        workers = [ShardWorker(tmp_path / "store", index, 2).start()
                   for index in range(2)]
        fed = FederatedObservatoryServer(
            [worker.url for worker in workers]).start()
        try:
            assert fetch(fed.url, "/outbreaks")[0] == 200
            workers[1].stop()
            for _ in range(3):
                status, headers, _ = fetch(fed.url, "/outbreaks")
                assert status == 200
                assert headers[PARTIAL_HEADER] == "shard-01"
            assert fed.breakers[1].state == "open"
            assert fed.breakers[0].state == "closed"
            # With the circuit open the dead shard is not even dialled,
            # so the partial answer comes back fast.
            start = time.monotonic()
            status, headers, _ = fetch(fed.url, "/outbreaks")
            assert headers[PARTIAL_HEADER] == "shard-01"
            assert time.monotonic() - start < 1.0
        finally:
            fed.stop()
            workers[0].stop()

    def test_etag_invalidated_by_new_events(self, tmp_path):
        store = build_store(tmp_path / "store", events=30)
        workers = [ShardWorker(tmp_path / "store", index, 2).start()
                   for index in range(2)]
        fed = FederatedObservatoryServer(
            [worker.url for worker in workers]).start()
        try:
            etag = fetch(fed.url, "/outbreaks")[1]["ETag"]
            assert fetch(fed.url, "/outbreaks",
                         {"If-None-Match": etag})[0] == 304
            store.append("outbreak", 1_700_100_000,
                         {"prefix": "10.9.0.0/16", "peers": 5})
            store.sync()
            # Shards read the store on every request: no catch-up wait.
            assert fetch(fed.url, "/outbreaks",
                         {"If-None-Match": etag})[0] == 200
            body = json.loads(fetch(fed.url, "/outbreaks")[2])
            assert any(row["prefix"] == "10.9.0.0/16"
                       for row in body["outbreaks"])
        finally:
            fed.stop()
            for worker in workers:
                worker.stop()


def counted_worker(store_root, index, count, port=0):
    """A started :class:`ShardWorker` whose server counts the
    connections it accepts in ``server.accepted``."""
    worker = ShardWorker(store_root, index, count, port=port)
    server = worker.server
    accept = server._on_connection

    async def counting(reader, writer):
        server.accepted += 1
        await accept(reader, writer)

    server.accepted = 0
    server._on_connection = counting
    return worker.start()


class _ScriptedShard(AsyncHTTPTransport):
    """Answers every request with one fixed raw response and keeps the
    connection open whatever the response says; counts connections."""

    def __init__(self, response: bytes):
        super().__init__()
        self.response = response
        self.accepted = 0

    async def _on_connection(self, reader, writer):
        self.accepted += 1
        await super()._on_connection(reader, writer)

    async def _dispatch(self, path, params, headers, writer, keep_alive):
        writer.write(self.response)
        await writer.drain()
        return True


class TestShardConnections:
    def test_sequential_reads_reuse_one_connection_per_shard(self,
                                                             tmp_path):
        build_store(tmp_path / "store", events=60)
        workers = [counted_worker(tmp_path / "store", index, 3)
                   for index in range(3)]
        fed = FederatedObservatoryServer(
            [worker.url for worker in workers]).start()
        try:
            bodies = {fetch(fed.url, "/outbreaks")[2] for _ in range(20)}
            assert len(bodies) == 1
            assert [worker.server.accepted for worker in workers] == [1, 1, 1]
        finally:
            fed.stop()
            for worker in workers:
                worker.stop()

    def test_restarted_shard_is_redialled_uncounted(self, tmp_path):
        build_store(tmp_path / "store", events=60)
        ports = [pick_free_port() for _ in range(3)]
        workers = [counted_worker(tmp_path / "store", index, 3,
                                  port=ports[index])
                   for index in range(3)]
        fed = FederatedObservatoryServer(
            [worker.url for worker in workers]).start()
        try:
            complete = fetch(fed.url, "/outbreaks")
            workers[1].stop()
            workers[1] = counted_worker(tmp_path / "store", 1, 3,
                                        port=ports[1])
            status, headers, body = fetch(fed.url, "/outbreaks")
            assert status == 200 and PARTIAL_HEADER not in headers
            assert body == complete[2]
            assert headers["ETag"] == complete[1]["ETag"]
            assert workers[1].server.accepted == 1
            assert fed.retried_connects == 0
            assert fed.shard_failures == [0, 0, 0]
        finally:
            fed.stop()
            for worker in workers:
                worker.stop()

    @pytest.mark.parametrize("response, dials", [
        (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
         b"Connection: keep-alive\r\n\r\n{}", 1),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
         b"Connection: close\r\n\r\n{}", 2),
        (b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n", 2),
    ], ids=["keep-alive", "close", "no-length"])
    def test_only_complete_keep_alive_answers_are_pooled(self, response,
                                                          dials):
        shard = _ScriptedShard(response).start()
        fed = FederatedObservatoryServer([shard.url]).start()
        try:
            for _ in range(2):
                assert fetch(fed.url, "/metrics")[0] == 200
            assert shard.accepted == dials
        finally:
            fed.stop()
            shard.stop()

    def test_breakers_wait_for_shards_that_never_answered(self, tmp_path):
        build_store(tmp_path / "store", events=60)
        ports = [pick_free_port() for _ in range(3)]
        fed = FederatedObservatoryServer(
            [f"http://127.0.0.1:{port}" for port in ports]).start()
        workers = []
        try:
            for _ in range(5):
                status, headers, _ = fetch(fed.url, "/outbreaks")
                assert headers[PARTIAL_HEADER] == "shard-00,shard-01,shard-02"
            assert [breaker.state for breaker in fed.breakers] == \
                ["half-open"] * 3
            workers = [ShardWorker(tmp_path / "store", index, 3,
                                   port=ports[index]).start()
                       for index in range(3)]
            status, headers, _ = fetch(fed.url, "/outbreaks")
            assert status == 200 and PARTIAL_HEADER not in headers
            assert [breaker.state for breaker in fed.breakers] == \
                ["closed"] * 3
        finally:
            fed.stop()
            for worker in workers:
                worker.stop()

    def test_first_connect_retry_waits_the_pinned_delay(self, monkeypatch):
        delays = []

        def record(*args):
            delays.append(backoff_delay(*args))
            return 0.0  # the delay is what is pinned; do not wait it

        monkeypatch.setattr(federation, "backoff_delay", record)
        fed = FederatedObservatoryServer(
            [f"http://127.0.0.1:{pick_free_port()}"])
        with pytest.raises(OSError):
            asyncio.run(fed._dial(0))
        draw = random.Random(0).random()
        # The parent's expression, ``delay + jitter * delay * U`` with
        # delay 0.05 and jitter 0.5, to the last bit.
        assert delays == [0.05 + 0.5 * 0.05 * draw]
        assert delays[0] == pytest.approx(0.05 * (1 + 0.5 * draw))
        assert fed.retried_connects == 1


@pytest.mark.slow
class TestFleetChaos:
    def test_kill9_mid_walk_loses_nothing_from_survivors(self, tmp_path,
                                                         monkeypatch):
        """Satellite: paginate /outbreaks through the federation, kill -9
        one shard between pages — the rest of the walk returns every
        survivor row exactly once and the partial header flips on."""
        monkeypatch.setattr(fleet_module, "MAX_RESTARTS", 3)
        monkeypatch.setattr(federation, "RETRIES", 0)
        build_store(tmp_path / "store", events=90)
        fleet = ShardFleet(tmp_path / "store", tmp_path / "fleet", shards=3)
        fleet.auto_restart = False
        fleet.start()
        fed = None
        try:
            for index in range(3):
                assert wait_until(lambda i=index: fleet._probe(i)), \
                    f"shard {index} never came up"
            fed = FederatedObservatoryServer(
                fleet.shard_urls(), fleet=fleet).start()
            assert wait_until(lambda: json.loads(
                fetch(fed.url, "/outbreaks")[2])["count"] == 30)
            complete = json.loads(fetch(fed.url, "/outbreaks")[2])
            client = ObservatoryClient(fed.url, retries=0)
            walk = client.paginate("outbreaks", page_size=6)
            rows = [next(walk) for _ in range(6)]  # first page, all alive
            assert client.last_partial is None
            fleet.kill(1, signal.SIGKILL)
            rows.extend(walk)
            assert client.last_partial == ("shard-01",)
            survivors = [row for row in complete["outbreaks"]
                         if shard_for(row["prefix"], 3) != 1]
            seen_survivors = [row for row in rows
                              if shard_for(row["prefix"], 3) != 1]
            # No survivor row lost, none duplicated.
            assert [r["seq"] for r in seen_survivors] == \
                [r["seq"] for r in survivors]
            assert fleet.shard_state(1) == "stalled"  # held down on purpose
            # Flip chaos off: the supervisor restarts it and the fleet
            # converges back to the complete answer.
            fleet.auto_restart = True
            assert wait_until(lambda: json.loads(
                fetch(fed.url, "/outbreaks")[2]) == complete, timeout=30)
            assert PARTIAL_HEADER not in fetch(fed.url, "/outbreaks")[1]
            assert fleet.restarts[1] >= 1
        finally:
            if fed is not None:
                fed.stop()
            fleet.stop()


class _FlakyHandler(BaseHTTPRequestHandler):
    """Scripted server: 503 + Retry-After twice, then 200."""

    script = []
    hits = []

    def do_GET(self):  # noqa: N802 (http.server API)
        self.hits.append(self.path)
        if self.script:
            status, retry_after = self.script.pop(0)
            self.send_response(status)
            if retry_after is not None:
                self.send_header("Retry-After", retry_after)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        body = json.dumps({"status": "ok", "events": 0}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestClientRetries:
    @pytest.fixture()
    def flaky(self):
        _FlakyHandler.script = []
        _FlakyHandler.hits = []
        httpd = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
        httpd.shutdown()
        httpd.server_close()

    def test_retry_after_is_honored(self, flaky):
        _FlakyHandler.script = [(503, "0.03"), (503, "1.5")]
        sleeps = []
        client = ObservatoryClient(flaky, retries=3, backoff=10.0,
                                   sleep=sleeps.append)
        assert client.healthz()["status"] == "ok"
        assert len(_FlakyHandler.hits) == 3
        # Retry-After beats the (huge) exponential backoff both times.
        assert sleeps == [pytest.approx(0.03), pytest.approx(1.5)]

    def test_retry_after_is_capped(self, flaky):
        _FlakyHandler.script = [(503, "3600")]
        sleeps = []
        client = ObservatoryClient(flaky, retries=2, sleep=sleeps.append,
                                   backoff_cap=0.25)
        assert client.healthz()["status"] == "ok"
        assert sleeps == [pytest.approx(0.25)]

    def test_exponential_backoff_is_capped(self, flaky):
        _FlakyHandler.script = [(503, None)] * 4
        sleeps = []
        client = ObservatoryClient(flaky, retries=5, backoff=0.1,
                                   backoff_cap=0.3, sleep=sleeps.append)
        assert client.healthz()["status"] == "ok"
        # 0.1, 0.2, then pinned at the cap instead of 0.4, 0.8, ...
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2),
                          pytest.approx(0.3), pytest.approx(0.3)]

    def test_malformed_retry_after_falls_back(self, flaky):
        _FlakyHandler.script = [(503, "Fri, 31 Dec 1999 23:59:59 GMT")]
        sleeps = []
        client = ObservatoryClient(flaky, retries=2, backoff=0.05,
                                   sleep=sleeps.append)
        assert client.healthz()["status"] == "ok"
        assert sleeps == [pytest.approx(0.05)]


@pytest.mark.slow
class TestGracefulShutdown:
    def _spawn_serve(self, store, port):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "observatory", "serve",
             str(store), "--port", str(port)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)

    def test_sigterm_exits_zero(self, tmp_path):
        build_store(tmp_path / "store", events=12)
        port = pick_free_port()
        proc = self._spawn_serve(tmp_path / "store", port)
        try:
            base = f"http://127.0.0.1:{port}"
            assert wait_until(lambda: _up(base))
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_async_sigterm_sends_final_sse_frame(self, tmp_path):
        build_store(tmp_path / "store", events=12)
        port = pick_free_port()
        proc = self._spawn_serve(tmp_path / "store", port)
        try:
            base = f"http://127.0.0.1:{port}"
            assert wait_until(lambda: _up(base))
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            sock.sendall(b"GET /stream/events HTTP/1.1\r\n"
                         b"Host: x\r\nAccept: text/event-stream\r\n\r\n")
            sock.settimeout(15)
            received = b""
            while b"\r\n\r\n" not in received:  # response head
                received += sock.recv(4096)
            proc.send_signal(signal.SIGTERM)
            while b": shutdown\n\n" not in received:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                received += chunk
            sock.close()
            assert b": shutdown\n\n" in received
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _up(base):
    try:
        return fetch(base, "/healthz")[0] == 200
    except OSError:
        return False
