"""Tests for the materialized query views, cursor pagination, ETag/304
revalidation, and the query-path bugfixes in the HTTP layer."""

import json
import socket
import struct
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.observatory import (
    AsyncObservatoryServer,
    EventStore,
    MaterializedViews,
    ObservatoryApp,
    ObservatoryClient,
)
from repro.observatory.client import ObservatoryError
from repro.observatory.views import (
    CursorError,
    pair_cursor,
    paginate,
    seq_cursor,
)
from test_observatory_federation import wait_until


def lifespan(prefix, segments=1, resurrection=False):
    """A minimal but complete lifespan payload (ingest shape)."""
    return {
        "prefix": prefix,
        "visible": segments == 0,
        "started_segment": False,
        "resurrection": resurrection,
        "peers": [],
        "withdraw_time": 1000,
        "first_seen": 900,
        "last_seen": 5000,
        "duration_seconds": 4100,
        "segment_count": segments,
        "resurrection_count": 1 if resurrection else 0,
    }


def fill_store(store, prefixes=6, rounds=3):
    """Append a deterministic mix of all three event kinds."""
    time = 1000
    for round_index in range(rounds):
        for index in range(prefixes):
            prefix = f"2001:db8:{index:x}::/48"
            store.append("outbreak", time,
                         {"prefix": prefix, "detected_at": time})
            store.append("lifespan", time + 10,
                         lifespan(prefix, segments=(index % 3),
                                  resurrection=(round_index == 1
                                                and index % 2 == 0)))
            if index % 2 == 1:
                store.append("resurrection", time + 20,
                             {"prefix": prefix, "resurrected_at": time + 20})
            time += 100
    store.sync()


def full_scan_zombies(store):
    latest = {}
    for event in store.events(kinds=("lifespan",)):
        latest[event["prefix"]] = event
    return [latest[p] for p in sorted(latest)
            if latest[p]["segment_count"] > 0]


def full_scan_resurrections(store, **filters):
    merged = [{**e, "scale": "updates"}
              for e in store.events(kinds=("resurrection",), **filters)]
    merged += [{**e, "scale": "rib"}
               for e in store.events(kinds=("lifespan",), **filters)
               if e["resurrection"]]
    merged.sort(key=lambda e: (e["time"], e["seq"]))
    return merged


def full_scan_outbreaks(store, **filters):
    return list(store.events(kinds=("outbreak",), **filters))


def full_scan_zombie(store, prefix):
    """The ``/zombies/<prefix>`` body from three brute-force scans."""
    lifespans, outbreaks, resurrections = (
        list(store.events(kinds=(kind,), prefix=prefix))
        for kind in ("lifespan", "outbreak", "resurrection"))
    return {"prefix": prefix,
            "lifespan": lifespans[-1] if lifespans else None,
            "outbreaks": outbreaks, "resurrections": resurrections,
            "outbreak_count": len(outbreaks),
            "resurrection_count": len(resurrections)}


class TestStoreMinSeq:
    def test_min_seq_filters_and_skips_sealed_segments(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=4)
        fill_store(store)
        everything = list(store.events())
        bound = everything[len(everything) // 2]["seq"] + 1
        delta = list(store.events(min_seq=bound))
        assert [e["seq"] for e in delta] == \
            [e["seq"] for e in everything if e["seq"] >= bound]

    def test_min_seq_composes_with_other_filters(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=4)
        fill_store(store)
        rows = list(store.events(kinds=("outbreak",), min_seq=10))
        assert rows == [e for e in store.events(kinds=("outbreak",))
                        if e["seq"] >= 10]

    def test_generation_bumps_on_truncate_and_compact(self, tmp_path):
        store = EventStore(tmp_path / "s")
        fill_store(store)
        assert store.generation == 0
        store.truncate(store.next_seq - 2)
        assert store.generation == 1
        store.compact()
        assert store.generation == 2
        # and it round-trips through the manifest
        reopened = EventStore(tmp_path / "s", readonly=True)
        assert reopened.position()[0] == 2


class TestReadonlyTailPosition:
    """A concurrent writer flushes every append but syncs the manifest
    only on segment roll / sync(); readers see the file tail anyway, so
    the readonly position() must advance with it (the ETag / watermark
    contract: position names exactly the visible content)."""

    def test_position_advances_with_unsynced_appends(self, tmp_path):
        writer = EventStore(tmp_path / "s")
        writer.append("outbreak", 100, {"prefix": "a::/48"})
        writer.sync()
        reader = EventStore(tmp_path / "s", readonly=True)
        generation, synced = reader.position()
        writer.append("outbreak", 200, {"prefix": "b::/48"})  # mid-segment
        assert reader.position() == (generation, synced + 1)
        # and it agrees with what events() actually returns
        assert max(e["seq"] for e in reader.events()) == synced

    def test_position_matches_manifest_when_in_sync(self, tmp_path):
        writer = EventStore(tmp_path / "s")
        writer.append("outbreak", 100, {"prefix": "a::/48"})
        writer.sync()
        reader = EventStore(tmp_path / "s", readonly=True)
        assert reader.position() == (0, writer.next_seq)

    def test_partial_trailing_line_is_not_visible(self, tmp_path):
        writer = EventStore(tmp_path / "s")
        writer.append("outbreak", 100, {"prefix": "a::/48"})
        writer.sync()
        with open(tmp_path / "s" / "seg-00000000.jsonl", "ab") as handle:
            handle.write(b'{"seq": 1, "torn')  # crash artefact, no newline
        reader = EventStore(tmp_path / "s", readonly=True)
        assert reader.position() == (0, 1)


class TestMaterializedViews:
    def test_matches_full_scan(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=8)
        fill_store(store)
        views = MaterializedViews(store)
        views.refresh()
        assert views.zombies() == full_scan_zombies(store)
        assert views.resurrections() == full_scan_resurrections(store)

    def test_refresh_is_incremental(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=8)
        fill_store(store)
        views = MaterializedViews(store)
        views.refresh()
        baseline = views.stats()
        assert baseline["events_folded"] == store.next_seq
        assert baseline["rebuilds"] == 1  # the initial build
        # No growth: nothing folded.
        assert views.refresh() == 0
        # Three appends: exactly three events folded, no rebuild.
        store.append("outbreak", 9000, {"prefix": "2a0d::/48"})
        store.append("lifespan", 9010, lifespan("2a0d::/48"))
        store.append("resurrection", 9020, {"prefix": "2a0d::/48"})
        assert views.refresh() == 3
        stats = views.stats()
        assert stats["rebuilds"] == 1
        assert stats["watermark"] == store.next_seq
        assert views.zombies() == full_scan_zombies(store)

    def test_truncate_triggers_rebuild(self, tmp_path):
        store = EventStore(tmp_path / "s")
        fill_store(store)
        views = MaterializedViews(store)
        views.refresh()
        store.truncate(store.next_seq // 2)
        views.refresh()
        assert views.stats()["rebuilds"] == 2
        assert views.zombies() == full_scan_zombies(store)
        assert views.resurrections() == full_scan_resurrections(store)

    def test_truncate_then_append_to_same_next_seq(self, tmp_path):
        """The poisonous shape: next_seq returns to a value the view has
        already seen, but history below it changed.  The generation
        bump is what catches it."""
        store = EventStore(tmp_path / "s")
        store.append("outbreak", 100, {"prefix": "a::/48"})
        store.append("outbreak", 200, {"prefix": "b::/48"})
        views = MaterializedViews(store)
        views.refresh()
        assert len(views.zombie("b::/48")[1]) == 1
        store.truncate(1)
        store.append("outbreak", 300, {"prefix": "c::/48"})
        assert store.next_seq == 2  # same position, different content
        views.refresh()
        assert len(views.zombie("b::/48")[1]) == 0
        assert len(views.zombie("c::/48")[1]) == 1

    def test_compact_preserves_view_content(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=8)
        fill_store(store)
        views = MaterializedViews(store)
        views.refresh()
        before_zombies = views.zombies()
        before_resurrections = views.resurrections()
        store.compact()
        views.refresh()
        assert views.stats()["rebuilds"] == 2
        assert views.zombies() == before_zombies
        assert views.resurrections() == before_resurrections

    def test_readonly_reader_sees_concurrent_appends(self, tmp_path):
        writer = EventStore(tmp_path / "s")
        writer.append("lifespan", 100, lifespan("a::/48"))
        writer.sync()
        reader = EventStore(tmp_path / "s", readonly=True)
        views = MaterializedViews(reader)
        views.refresh()
        assert [z["prefix"] for z in views.zombies()] == ["a::/48"]
        # Appends published by the writer become visible through the
        # watermark without reopening anything.
        writer.append("lifespan", 200, lifespan("b::/48"))
        writer.append("lifespan", 300, lifespan("a::/48", segments=0))
        writer.sync()
        assert views.refresh() == 2
        assert [z["prefix"] for z in views.zombies()] == ["b::/48"]
        assert views.stats()["rebuilds"] == 1  # incremental, not rebuilt

    def test_unsynced_writer_appends_fold_incrementally(self, tmp_path):
        """The production shape: a writer mid-segment, manifest behind
        the file tail.  Each refresh must fold the tail events (the
        cold path returns them, so the view must too) *without* the
        watermark outrunning position() — which would degrade every
        refresh into a full rebuild."""
        writer = EventStore(tmp_path / "s")
        writer.append("lifespan", 100, lifespan("a::/48"))
        writer.sync()
        reader = EventStore(tmp_path / "s", readonly=True)
        views = MaterializedViews(reader)
        views.refresh()
        for index in range(4):
            writer.append("lifespan", 200 + index,
                          lifespan(f"b{index}::/48"))  # no sync()
            assert views.refresh() == 1
        stats = views.stats()
        assert stats["rebuilds"] == 1  # only the initial build
        assert stats["refreshes"] == 5
        assert views.zombies() == full_scan_zombies(reader)
        assert len(views.zombies()) == 5
        # The watermark never outran the published position.
        assert stats["watermark"] == reader.position()[1]


class TestPaginateHelper:
    ROWS = [{"seq": s} for s in (1, 3, 5, 7)]

    def test_no_limit_returns_everything(self):
        page, cursor = paginate(self.ROWS, key=lambda r: r["seq"])
        assert page == self.ROWS and cursor is None

    def test_pages_chain_to_the_full_listing(self):
        key = lambda r: r["seq"]  # noqa: E731
        collected, cursor = [], None
        while True:
            page, cursor = paginate(self.ROWS, key=key, cursor=cursor,
                                    limit=3)
            collected += page
            if cursor is None:
                break
        assert collected == self.ROWS

    def test_cursor_past_end_is_empty(self):
        page, cursor = paginate(self.ROWS, key=lambda r: r["seq"],
                                cursor=99, limit=2)
        assert page == [] and cursor is None

    def test_exact_final_page_has_no_cursor(self):
        page, cursor = paginate(self.ROWS, key=lambda r: r["seq"],
                                cursor=3, limit=2)
        assert [r["seq"] for r in page] == [5, 7] and cursor is None

    def test_cursor_codecs_reject_garbage(self):
        assert seq_cursor("41") == 41
        assert pair_cursor("100:7") == (100, 7)
        with pytest.raises(CursorError):
            seq_cursor("yesterday")
        with pytest.raises(CursorError):
            pair_cursor("100")
        with pytest.raises(CursorError):
            pair_cursor("a:b")


@pytest.fixture()
def served(tmp_path):
    store = EventStore(tmp_path / "store", segment_max_records=8)
    fill_store(store)
    server = AsyncObservatoryServer(store).start()
    yield store, server, ObservatoryClient(server.url)
    server.stop()


class TestHttpPagination:
    @pytest.mark.parametrize("what", ["outbreaks", "zombies",
                                      "resurrections"])
    def test_pages_reassemble_the_full_listing(self, served, what):
        store, server, client = served
        full = client._get(f"/{what}")[what]
        assert full  # the fixture scripted events of every kind
        paged = list(client.paginate(what, page_size=2))
        assert paged == full

    def test_unpaged_bodies_keep_the_historical_shape(self, served):
        store, server, client = served
        body = client.zombies()
        assert set(body) == {"count", "zombies"}
        assert body["count"] == len(body["zombies"])
        assert client.outbreaks().keys() == {"count", "outbreaks"}

    def test_page_envelope(self, served):
        store, server, client = served
        body = client.zombies(limit=1)
        assert body["count"] == 1
        assert body["next_cursor"] == body["zombies"][0]["prefix"]
        tail = client.zombies(cursor=body["next_cursor"])
        assert body["zombies"] + tail["zombies"] == \
            client.zombies()["zombies"]
        assert tail["next_cursor"] is None

    def test_cursor_past_end_yields_empty_page(self, served):
        store, server, client = served
        body = client.zombies(limit=5, cursor="zzzz")
        assert body == {"count": 0, "next_cursor": None, "zombies": []}
        last_seq = store.next_seq
        body = client.outbreaks(limit=5, cursor=str(last_seq + 100))
        assert body["outbreaks"] == [] and body["next_cursor"] is None

    def test_limit_zero_is_400(self, served):
        store, server, client = served
        for bad in ("0", "-3"):
            with pytest.raises(ObservatoryError) as excinfo:
                client._get("/zombies", {"limit": bad})
            assert excinfo.value.status == 400
            assert "limit" in excinfo.value.message

    def test_malformed_cursor_is_400(self, served):
        store, server, client = served
        with pytest.raises(ObservatoryError) as excinfo:
            client.outbreaks(limit=2, cursor="yesterday")
        assert excinfo.value.status == 400
        with pytest.raises(ObservatoryError) as excinfo:
            client.resurrections(limit=2, cursor="not-a-pair")
        assert excinfo.value.status == 400

    def test_outbreak_pages_stable_under_concurrent_appends(self, served):
        store, server, client = served
        first = client.outbreaks(limit=3)
        store.append("outbreak", 99999, {"prefix": "fresh::/48"})
        store.sync()
        rest = list(client.paginate("outbreaks", page_size=3))
        seen = first["outbreaks"] + [
            e for e in rest if e["seq"] > int(first["next_cursor"])]
        assert seen == client.outbreaks()["outbreaks"]
        assert seen[-1]["prefix"] == "fresh::/48"


class TestViewParity:
    def test_view_and_cold_scan_bodies_are_identical(self, served):
        store, server, client = served
        prefix = "2001:db8:1::/48"
        zombies = full_scan_zombies(store)
        assert client.zombies() == {"count": len(zombies),
                                    "zombies": zombies}
        for filters in ({}, {"prefix": prefix},
                        {"since": 1200, "until": 2200}):
            rows = full_scan_resurrections(store, **filters)
            assert rows
            assert client.resurrections(**filters) == \
                {"count": len(rows), "resurrections": rows}
        assert client.zombie(prefix) == full_scan_zombie(store, prefix)

    def test_zombie_detail_counts_come_from_the_view(self, served):
        store, server, client = served
        prefix = "2001:db8:1::/48"
        body = client.zombie(prefix)
        assert body["outbreak_count"] == len(body["outbreaks"]) > 0
        assert body["resurrection_count"] == len(body["resurrections"]) > 0

    def test_healthz_reports_view_watermark(self, served):
        store, server, client = served
        client.zombies()  # force one refresh
        health = client.healthz()
        assert health["view"]["watermark"] == store.next_seq
        assert health["generation"] == store.generation

    @pytest.mark.parametrize("layout", ["jsonl", "columnar", "mixed"])
    def test_outbreaks_and_zombie_detail_equal_cold_scans(self, tmp_path,
                                                          layout):
        """The two routes that used to scan segments per request:
        answered from the views, they equal the brute-force scans on
        every segment layout a store can have."""
        store = EventStore(tmp_path / "store", segment_max_records=8)
        fill_store(store)
        if layout != "jsonl":
            store.compact(fmt="columnar")
        if layout == "mixed":
            fill_store(store, prefixes=3, rounds=1)  # a JSONL tail
        app = ObservatoryApp(store)

        def get(path, **params):
            status, _, body = app.respond(
                path, {key: [str(value)] for key, value in params.items()})
            assert status == 200
            return json.loads(body)

        prefix = "2001:db8:1::/48"
        for filters in ({}, {"prefix": prefix},
                        {"since": 1200, "until": 2200},
                        {"prefix": prefix, "since": 1200}):
            rows = full_scan_outbreaks(store, **filters)
            assert rows
            assert get("/outbreaks", **filters) == \
                {"count": len(rows), "outbreaks": rows}
        rows = full_scan_outbreaks(store)
        first = get("/outbreaks", limit=4)
        assert first == {"count": 4, "outbreaks": rows[:4],
                         "next_cursor": str(rows[3]["seq"])}
        assert get("/outbreaks", cursor=first["next_cursor"]) == \
            {"count": len(rows) - 4, "outbreaks": rows[4:],
             "next_cursor": None}
        assert get("/outbreaks", cursor=rows[3]["seq"], limit=2,
                   since=1200) == \
            {"count": 2, "outbreaks": [
                row for row in rows[4:] if row["time"] >= 1200][:2],
             "next_cursor": str([row for row in rows[4:]
                                 if row["time"] >= 1200][1]["seq"])}
        for index in range(6):
            prefix = f"2001:db8:{index:x}::/48"
            assert get("/zombies/" + prefix) == \
                full_scan_zombie(store, prefix)

    def test_zombie_detail_is_one_position(self, tmp_path):
        """An outbreak appended after the views refreshed but before
        the handler returns belongs to the next position: it may appear
        in neither the rows nor the counts of this answer."""
        store = EventStore(tmp_path / "store")
        fill_store(store)
        prefix = "2001:db8:1::/48"
        app = ObservatoryApp(store)
        before = json.loads(app.respond("/zombies/" + prefix, {})[2])
        refresh = app.views.refresh

        def refresh_then_append():
            folded = refresh()
            store.append("outbreak", 7777, {"prefix": prefix, "late": True})
            return folded

        app.views.refresh = refresh_then_append
        store.append("lifespan", 7000, lifespan("other::/48"))  # new ETag
        body = json.loads(app.respond("/zombies/" + prefix, {})[2])
        assert body == before
        assert body["outbreak_count"] == len(body["outbreaks"])

    def test_routes_read_the_store_only_through_the_view_refresh(
            self, tmp_path, monkeypatch):
        """After a warm-up no route scans segments: the only store read
        left is the views' own ``min_seq=`` delta."""
        store = EventStore(tmp_path / "store", segment_max_records=8)
        fill_store(store)
        app = ObservatoryApp(store)
        routes = [("/healthz", {}), ("/metrics", {}), ("/outbreaks", {}),
                  ("/outbreaks", {"prefix": ["2001:db8:1::/48"],
                                  "since": ["1200"], "limit": ["2"],
                                  "cursor": ["3"]}),
                  ("/zombies", {}), ("/zombies/2001:db8:1::/48", {}),
                  ("/resurrections", {"until": ["2200"]})]
        assert app.respond("/zombies", {})[0] == 200  # warm-up
        calls = []
        events = store.events
        monkeypatch.setattr(store, "events", lambda *args, **kwargs: (
            calls.append((args, kwargs)) or events(*args, **kwargs)))
        for path, params in routes:
            assert app.respond(path, params)[0] == 200, path
        assert app.respond("/outbreaks/unknown/forensics", {})[0] == 404
        assert calls == []  # nothing appended: not even the delta read
        watermark = store.next_seq
        store.append("outbreak", 6000, {"prefix": "2001:db8:1::/48"})
        for path, params in routes:
            assert app.respond(path, params)[0] == 200, path
        assert calls == [((), {"kinds": None, "min_seq": watermark})]


class TestEtagRevalidation:
    def test_repeat_query_is_a_304(self, served):
        store, server, client = served
        first = client.zombies()
        assert client.revalidations == 0
        again = client.zombies()
        assert again == first
        assert client.revalidations == 1
        assert server.not_modified_served == 1

    def test_append_invalidates(self, served):
        store, server, client = served
        client.zombies()
        client.zombies()
        assert client.revalidations == 1
        store.append("lifespan", 99999, lifespan("fresh::/48"))
        store.sync()
        body = client.zombies()
        assert client.revalidations == 1  # full 200, not a 304
        assert "fresh::/48" in {z["prefix"] for z in body["zombies"]}

    def test_truncate_then_append_invalidates_at_same_next_seq(
            self, tmp_path):
        store = EventStore(tmp_path / "store")
        store.append("lifespan", 100, lifespan("a::/48"))
        store.append("lifespan", 200, lifespan("b::/48"))
        app = ObservatoryApp(store)
        etag = dict(app.respond("/zombies", {})[1])["ETag"]
        store.truncate(1)
        store.append("lifespan", 300, lifespan("c::/48"))
        assert store.next_seq == 2
        status, _, body = app.respond("/zombies", {}, etag)
        assert status == 200  # ETag changed: no false 304
        assert [z["prefix"] for z in json.loads(body)["zombies"]] == \
            ["a::/48", "c::/48"]

    def test_compact_changes_etag_not_content(self, served):
        store, server, client = served
        before = client.zombies()
        store.compact()
        after = client.zombies()
        assert client.revalidations == 0
        assert after == before
        client.zombies()
        assert client.revalidations == 1  # steady state again

    def test_distinct_queries_have_distinct_etags(self, served):
        store, server, client = served
        client.outbreaks()
        client.outbreaks(prefix="2001:db8:1::/48")
        assert client.revalidations == 0
        client.outbreaks(prefix="2001:db8:1::/48")
        assert client.revalidations == 1

    def test_unsynced_writer_append_invalidates(self, tmp_path):
        """The flagship deployment: readonly serve + live ingest.  An
        append the writer has flushed but not manifest-synced changes
        the body, so it must change the ETag too — a 304 here would
        pin clients to stale data."""
        writer = EventStore(tmp_path / "store")
        writer.append("lifespan", 100, lifespan("a::/48"))
        writer.sync()
        app = ObservatoryApp(EventStore(tmp_path / "store", readonly=True))
        etag = dict(app.respond("/zombies", {})[1])["ETag"]
        assert app.respond("/zombies", {}, etag)[0] == 304  # steady state
        writer.append("lifespan", 200, lifespan("b::/48"))  # no sync()
        status, _, body = app.respond("/zombies", {}, etag)
        assert status == 200  # full 200, not a false 304
        assert [z["prefix"] for z in json.loads(body)["zombies"]] == \
            ["a::/48", "b::/48"]

    def test_if_none_match_star_does_not_shadow_404(self, served):
        store, server, client = served
        for path in ("/nope", "/zombies/2001%3Adb8%3Aff%3A%3A%2F48"):
            request = urllib.request.Request(
                server.url + path, headers={"If-None-Match": "*"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 404

    def test_raw_if_none_match_gets_304_and_headers(self, served):
        store, server, client = served
        url = server.url + "/zombies"
        with urllib.request.urlopen(url) as response:
            etag = response.headers["ETag"]
            assert response.headers["Cache-Control"] == \
                "max-age=0, must-revalidate"
        request = urllib.request.Request(
            url, headers={"If-None-Match": etag})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 304
        assert excinfo.value.headers["ETag"] == etag


class TestHandlerBugfixes:
    def test_request_counter_is_exact_under_hammering(self, served):
        store, server, client = served
        base = server.requests_served
        threads, per_thread = 8, 25
        failures = []

        def hammer():
            local = ObservatoryClient(server.url)
            try:
                for _ in range(per_thread):
                    local.healthz()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not failures
        assert server.requests_served == base + threads * per_thread

    def test_data_bug_is_500_not_404(self, tmp_path):
        """A lifespan event missing ``segment_count`` is a data bug;
        it must surface, not read as 'no such resource'."""
        store = EventStore(tmp_path / "store")
        broken = lifespan("bad::/48")
        del broken["segment_count"]
        store.append("lifespan", 100, broken)
        app = ObservatoryApp(store)
        status, _, body = app.respond("/zombies", {})
        assert status == 500 and "KeyError" in json.loads(body)["error"]
        # Routing misses still 404.
        assert app.respond("/nope", {})[0] == 404
        assert app.respond("/zombies/unknown::/48", {})[0] == 404

    def test_monotonic_series_are_counters(self, served):
        store, server, client = served
        types = {}
        for line in client.metrics().splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                types[name] = kind
        assert types["observatory_events_total"] == "counter"
        assert types["observatory_http_requests_total"] == "counter"
        assert types["observatory_http_not_modified_total"] == "counter"
        assert types["observatory_http_responses_dropped_total"] == "counter"
        assert types["observatory_view_refreshes_total"] == "counter"
        assert types["observatory_store_segments"] == "gauge"
        assert types["observatory_view_watermark"] == "gauge"
        assert types["observatory_events"] == "gauge"

    def test_metrics_kind_counts_equal_a_brute_force_count(self, tmp_path):
        """``observatory_events{kind=}`` is what the views folded, not
        a store scan per scrape — and still the store's content, also
        once ``compact()`` has folded superseded lifespans away."""
        store = EventStore(tmp_path / "store", segment_max_records=8)
        fill_store(store)
        app = ObservatoryApp(store)

        def served_counts():
            return {line.split('"')[1]: int(line.split()[1])
                    for line in app.render_metrics().splitlines()
                    if line.startswith("observatory_events{kind=")}

        def brute_force():
            counts = {}
            for event in store.events():
                counts[event["kind"]] = counts.get(event["kind"], 0) + 1
            return counts

        assert served_counts() == brute_force()
        store.append("outbreak", 9000, {"prefix": "2a0d::/48"})
        assert served_counts() == brute_force()
        assert store.compact()["dropped"] > 0
        assert served_counts() == brute_force()

    def test_client_disconnect_mid_response_is_dropped(self, tmp_path):
        store = EventStore(tmp_path / "store")
        for n in range(4000):  # a listing far larger than a socket buffer
            store.append("outbreak", 1000 + n,
                         {"prefix": f"2001:db8:{n:x}::/48", "pad": "x" * 200})
        server = AsyncObservatoryServer(store).start()
        try:
            sock = socket.create_connection((server.host, server.port))
            sock.sendall(b"GET /outbreaks HTTP/1.1\r\nHost: x\r\n\r\n")
            # Hang up with an RST before reading a byte of the answer.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            assert wait_until(lambda: server.responses_dropped >= 1)
            # The next connection is served, and sees the drop counted.
            client = ObservatoryClient(server.url)
            assert ("observatory_http_responses_dropped_total 1"
                    in client.metrics().splitlines())
            assert client.outbreaks(limit=1)["count"] == 1
        finally:
            server.stop()

    def test_dropped_responses_surface_in_metrics(self, served):
        store, server, client = served
        server.count_dropped_response()
        assert ("observatory_http_responses_dropped_total 1"
                in client.metrics().splitlines())


class TestQueryCli:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        store = EventStore(tmp_path / "store")
        fill_store(store, prefixes=4, rounds=1)
        store.close()
        return str(tmp_path / "store")

    def test_limit_and_cursor_resume(self, store_dir, capsys):
        assert main(["observatory", "query", store_dir, "outbreaks"]) == 0
        full = capsys.readouterr().out.splitlines()
        assert main(["observatory", "query", store_dir, "outbreaks",
                     "--limit", "3"]) == 0
        captured = capsys.readouterr()
        first = captured.out.splitlines()
        assert len(first) == 3
        cursor = captured.err.split("next cursor:")[1].strip()
        assert cursor == str(json.loads(first[-1])["seq"])
        assert main(["observatory", "query", store_dir, "outbreaks",
                     "--limit", "100", "--cursor", cursor]) == 0
        captured = capsys.readouterr()
        assert first + captured.out.splitlines() == full
        assert "next cursor" not in captured.err

    def test_zombies_paginate_by_prefix(self, store_dir, capsys):
        assert main(["observatory", "query", store_dir, "zombies"]) == 0
        full = capsys.readouterr().out.splitlines()
        assert len(full) >= 2
        assert main(["observatory", "query", store_dir, "zombies",
                     "--limit", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == full[:1]
        cursor = captured.err.split("next cursor:")[1].strip()
        assert cursor == json.loads(full[0])["prefix"]
        assert main(["observatory", "query", store_dir, "zombies",
                     "--cursor", cursor]) == 0
        assert capsys.readouterr().out.splitlines() == full[1:]

    def test_bad_limit_and_cursor_exit_2(self, store_dir, capsys):
        assert main(["observatory", "query", store_dir, "outbreaks",
                     "--limit", "0"]) == 2
        assert "limit" in capsys.readouterr().err
        assert main(["observatory", "query", store_dir, "outbreaks",
                     "--cursor", "yesterday"]) == 2
        err = capsys.readouterr().err
        assert "cursor" in err and "Traceback" not in err
