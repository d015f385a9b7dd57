"""Tests for the binary columnar segment format: codec round-trips,
mixed JSONL+columnar stores, server parity over compacted history, the
shared tail probe, and doctor recovery from columnar bitrot."""

import json
import random

import pytest

from repro.observatory import (
    AsyncObservatoryServer,
    ColsegError,
    ColumnarSegment,
    EventStore,
    MaterializedViews,
    ObservatoryClient,
    fsck,
)
from repro.observatory.colseg import write_segment


def synth_events(count=300, prefixes=12, seed=1, first_seq=0):
    """A deterministic mix of all three event kinds with ragged
    payloads: missing fields, None, nested values, sparse strings."""
    rng = random.Random(seed)
    events = []
    for i in range(count):
        prefix = f"2001:db8:{rng.randrange(prefixes):x}::/48"
        kind = rng.choice(["lifespan", "outbreak", "resurrection"])
        event = {"seq": first_seq + i, "time": 1000 + i, "kind": kind,
                 "prefix": prefix}
        if kind == "lifespan":
            event.update({
                "segment_count": rng.randrange(4),
                "resurrection": rng.random() < 0.2,
                "started_segment": rng.random() < 0.2,
                "duration_seconds": rng.randrange(10 ** 6),
                "peers": [f"peer-{rng.randrange(3)}"],
            })
        elif kind == "outbreak":
            event["detected_at"] = 1000 + i
            if rng.random() < 0.5:  # sparse column
                event["note"] = f"note-{rng.randrange(5)}"
        else:
            event["peer_address"] = f"2001:db8::{rng.randrange(3):x}"
            if rng.random() < 0.3:
                event["extra"] = None
        events.append(event)
    return events


def fill_mixed(store, count=120, seed=3):
    for event in synth_events(count, seed=seed):
        payload = {k: v for k, v in event.items()
                   if k not in ("seq", "time", "kind")}
        store.append(event["kind"], event["time"], payload)
    store.sync()


class TestCodec:
    def test_round_trip_is_exact(self, tmp_path):
        events = synth_events(400)
        write_segment(tmp_path / "s.colseg", events)
        reader = ColumnarSegment(tmp_path / "s.colseg")
        assert list(reader.scan()) == events
        assert reader.verify() == []
        reader.close()

    def test_filters_match_brute_force(self, tmp_path):
        events = synth_events(300, seed=9)
        write_segment(tmp_path / "s.colseg", events)
        reader = ColumnarSegment(tmp_path / "s.colseg")
        cases = [
            dict(kinds=frozenset({"outbreak"})),
            dict(kinds=frozenset({"lifespan", "resurrection"})),
            dict(prefix="2001:db8:3::/48"),
            dict(since=1100, until=1200),
            dict(min_seq=177),
            dict(kinds=frozenset({"outbreak"}), prefix="2001:db8:1::/48",
                 since=1050, until=1290, min_seq=40),
        ]
        for case in cases:
            expected = [
                e for e in events
                if ("kinds" not in case or e["kind"] in case["kinds"])
                and ("prefix" not in case or e.get("prefix") == case["prefix"])
                and ("since" not in case or e["time"] >= case["since"])
                and ("until" not in case or e["time"] < case["until"])
                and ("min_seq" not in case or e["seq"] >= case["min_seq"])
            ]
            assert list(reader.scan(**case)) == expected, case
        reader.close()

    def test_writes_are_deterministic(self, tmp_path):
        events = synth_events(150, seed=4)
        write_segment(tmp_path / "a.colseg", events)
        write_segment(tmp_path / "b.colseg", events)
        assert (tmp_path / "a.colseg").read_bytes() == \
            (tmp_path / "b.colseg").read_bytes()

    def test_values_outside_int64_survive_via_json_fallback(self, tmp_path):
        events = [{"seq": 0, "time": 1, "kind": "outbreak",
                   "prefix": "::/0", "big": 2 ** 80},
                  {"seq": 1, "time": 2, "kind": "outbreak",
                   "prefix": "::/0", "big": -2 ** 70}]
        write_segment(tmp_path / "s.colseg", events)
        reader = ColumnarSegment(tmp_path / "s.colseg")
        assert list(reader.scan()) == events
        reader.close()

    def test_last_event(self, tmp_path):
        events = synth_events(80, seed=6)
        write_segment(tmp_path / "s.colseg", events)
        reader = ColumnarSegment(tmp_path / "s.colseg")
        assert reader.last_event() == events[-1]
        reader.close()

    def test_writer_rejects_bad_input(self, tmp_path):
        with pytest.raises(ColsegError):
            write_segment(tmp_path / "s.colseg", [])
        with pytest.raises(ColsegError):
            write_segment(tmp_path / "s.colseg", [
                {"seq": 5, "time": 1, "kind": "a"},
                {"seq": 5, "time": 2, "kind": "a"}])

    def test_open_rejects_truncated_or_garbled_files(self, tmp_path):
        path = tmp_path / "s.colseg"
        write_segment(path, synth_events(50))
        data = path.read_bytes()
        (tmp_path / "cut.colseg").write_bytes(data[:len(data) // 2])
        with pytest.raises(ColsegError):
            ColumnarSegment(tmp_path / "cut.colseg")
        (tmp_path / "junk.colseg").write_bytes(b"not a columnar segment")
        with pytest.raises(ColsegError):
            ColumnarSegment(tmp_path / "junk.colseg")

    def test_verify_catches_data_region_corruption(self, tmp_path):
        path = tmp_path / "s.colseg"
        write_segment(path, synth_events(100))
        data = bytearray(path.read_bytes())
        data[24] ^= 0xFF  # inside the column data region
        path.write_bytes(bytes(data))
        reader = ColumnarSegment(path)
        assert reader.verify() != []
        reader.close()


class TestMixedStore:
    def test_columnar_compact_round_trips_events(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=16)
        fill_mixed(store)
        before = list(store.events())
        kept_seqs = None
        result = store.compact(fmt="columnar")
        after = list(store.events())
        kept_seqs = {e["seq"] for e in after}
        assert result["kept"] == len(after)
        assert after == [e for e in before if e["seq"] in kept_seqs]
        assert store.stats()["by_format"] == \
            {"columnar": store.stats()["segments"]}

    def test_columnar_matches_jsonl_compaction_exactly(self, tmp_path):
        jstore = EventStore(tmp_path / "j", segment_max_records=16)
        cstore = EventStore(tmp_path / "c", segment_max_records=16)
        fill_mixed(jstore)
        fill_mixed(cstore)
        assert jstore.compact(fmt="jsonl") == cstore.compact(fmt="columnar")
        assert list(jstore.events()) == list(cstore.events())
        assert jstore.position() == cstore.position()
        for filters in (dict(kinds=("lifespan",)),
                        dict(prefix="2001:db8:2::/48"),
                        dict(since=1030, until=1100),
                        dict(min_seq=60),
                        dict(kinds=("outbreak", "resurrection"),
                             since=1010, min_seq=11)):
            assert list(jstore.events(**filters)) == \
                list(cstore.events(**filters)), filters

    def test_appends_continue_after_columnar_compaction(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=16)
        fill_mixed(store, count=60)
        store.compact(fmt="columnar")
        next_seq = store.next_seq
        assert store.append("outbreak", 9000, {"prefix": "::/0"}) == next_seq
        store.sync()
        tail = list(store.events(min_seq=next_seq))
        assert len(tail) == 1 and tail[0]["time"] == 9000
        # The new tail segment is JSONL — the only appendable format.
        assert store.stats()["by_format"]["jsonl"] == 1

    def test_reopen_after_columnar_compaction(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=16)
        fill_mixed(store, count=60)
        store.compact(fmt="columnar")
        events = list(store.events())
        next_seq = store.next_seq
        store.close()
        reopened = EventStore(tmp_path / "s", segment_max_records=16)
        assert reopened.next_seq == next_seq
        assert list(reopened.events()) == events
        reopened.append("outbreak", 9000, {"prefix": "::/0"})
        assert reopened.next_seq == next_seq + 1

    def test_truncate_into_columnar_history(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=16)
        fill_mixed(store)
        store.compact(fmt="columnar")
        events = list(store.events())
        bound = events[len(events) // 2]["seq"] + 1
        store.truncate(bound)
        assert store.next_seq == bound
        assert list(store.events()) == [e for e in events
                                        if e["seq"] < bound]
        # Appends resume at the bound, whatever format the tail is.
        store.append("outbreak", 9000, {"prefix": "::/0"})
        assert list(store.events(min_seq=bound))[0]["seq"] == bound
        store.close()
        reopened = EventStore(tmp_path / "s", segment_max_records=16)
        assert reopened.next_seq == bound + 1

    def test_readonly_reader_sees_columnar_history_and_live_tail(
            self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=16)
        fill_mixed(store, count=60)
        store.compact(fmt="columnar")
        reader = EventStore(tmp_path / "s", readonly=True)
        assert list(reader.events()) == list(store.events())
        # Appends after compaction land in a fresh JSONL segment; a
        # readonly tail probe must see them without any manifest sync.
        seq = store.append("outbreak", 9000, {"prefix": "::/0"})
        assert reader.position() == (store.generation, seq + 1)
        assert list(reader.events(min_seq=seq)) == \
            [{"seq": seq, "time": 9000, "kind": "outbreak",
              "prefix": "::/0"}]

    def test_views_rebuild_and_fold_over_mixed_store(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=16)
        fill_mixed(store)
        views = MaterializedViews(store)
        views.refresh()
        jsonl_zombies = views.zombies()
        jsonl_timeline = views.resurrections()
        store.compact(fmt="columnar")
        views.refresh()  # generation bump: full rebuild over columnar
        assert views.zombies() == jsonl_zombies
        assert views.resurrections() == jsonl_timeline
        assert views.stats()["last_rebuild_seconds"] is not None
        # Incremental folding continues over the mixed store.
        store.append("lifespan", 99999, {
            "prefix": "fresh::/48", "segment_count": 2,
            "resurrection": False, "started_segment": False})
        store.sync()
        views.refresh()
        assert "fresh::/48" in {z["prefix"] for z in views.zombies()}

    def test_events_is_streaming(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=16)
        fill_mixed(store, count=40)
        iterator = store.events()
        assert next(iterator)["seq"] == 0  # lazily, not a list
        assert json.dumps(next(iterator)) is not None
        iterator.close()


class TestTailProbe:
    def test_torn_line_in_active_segment(self, tmp_path):
        """Satellite regression: a torn trailing line (crash artefact or
        mid-write reader) must fall back to the last *complete* event."""
        store = EventStore(tmp_path / "s")
        store.append("outbreak", 10, {"prefix": "a::/48"})
        store.append("outbreak", 20, {"prefix": "b::/48"})
        store.sync()
        reader = EventStore(tmp_path / "s", readonly=True)
        with open(tmp_path / "s" / "seg-00000000.jsonl", "ab") as handle:
            handle.write(b'{"seq": 2, "time": 30, "kind": "outb')
        assert reader.position() == (store.generation, 2)

    def test_active_segment_with_only_a_torn_line(self, tmp_path):
        store = EventStore(tmp_path / "s")
        store.append("outbreak", 10, {"prefix": "a::/48"})
        store.sync()
        # Roll into a fresh segment whose only content is a torn line.
        store.truncate(1)
        reader = EventStore(tmp_path / "s", readonly=True)
        path = tmp_path / "s" / "seg-00000000.jsonl"
        data = path.read_bytes()
        path.write_bytes(data + b'{"seq": 1, "time":')
        assert reader.position() == (store.generation, 1)

    def test_columnar_tail_probe(self, tmp_path):
        store = EventStore(tmp_path / "s", segment_max_records=16)
        fill_mixed(store, count=30)
        store.compact(fmt="columnar")
        reader = EventStore(tmp_path / "s", readonly=True)
        assert reader.position() == store.position()


class TestServerParity:
    """Compaction round-trip equivalence at the HTTP layer: the same
    history compacted to JSONL and to columnar must serve byte-identical
    responses, ETags included."""

    @pytest.fixture()
    def pair(self, tmp_path):
        jstore = EventStore(tmp_path / "j", segment_max_records=16)
        cstore = EventStore(tmp_path / "c", segment_max_records=16)
        fill_mixed(jstore)
        fill_mixed(cstore)
        jstore.compact(fmt="jsonl")
        cstore.compact(fmt="columnar")
        jserver = AsyncObservatoryServer(jstore).start()
        cserver = AsyncObservatoryServer(cstore).start()
        yield (ObservatoryClient(jserver.url),
               ObservatoryClient(cserver.url))
        jserver.stop()
        cserver.stop()

    def test_listing_bodies_are_identical(self, pair):
        jclient, cclient = pair
        for call in ("outbreaks", "zombies", "resurrections"):
            assert getattr(jclient, call)() == getattr(cclient, call)()
        assert jclient.zombie("2001:db8:1::/48") == \
            cclient.zombie("2001:db8:1::/48")

    def test_etags_are_identical(self, pair):
        jclient, cclient = pair
        for call in ("outbreaks", "zombies", "resurrections"):
            getattr(jclient, call)()
            getattr(cclient, call)()

        def etags(client):
            return {url[len(client.base_url):]: etag
                    for url, (etag, _) in client._etag_cache.items()}

        assert etags(jclient) == etags(cclient)

    def test_304_revalidation_over_columnar(self, pair):
        _, cclient = pair
        first = cclient.zombies()
        assert cclient.zombies() == first
        assert cclient.revalidations == 1

    def test_pagination_over_columnar(self, pair):
        jclient, cclient = pair
        whole = cclient.outbreaks()["outbreaks"]
        paged, cursor = [], None
        for _ in range(1000):
            body = cclient.outbreaks(limit=7, cursor=cursor)
            paged.extend(body["outbreaks"])
            cursor = body.get("next_cursor")
            if cursor is None:
                break
        assert paged == whole == jclient.outbreaks()["outbreaks"]

    def test_healthz_and_metrics_report_format_mix(self, pair):
        _, cclient = pair
        formats = cclient.healthz()["segment_formats"]
        assert set(formats) == {"columnar"}


class TestDoctorColumnar:
    def build(self, tmp_path, count=120):
        store = EventStore(tmp_path / "s", segment_max_records=16)
        fill_mixed(store, count=count)
        store.compact(fmt="columnar")
        store.close()
        return tmp_path / "s"

    def test_clean_columnar_store_passes(self, tmp_path):
        root = self.build(tmp_path)
        report = fsck(root)
        assert report.clean
        assert report.events_checked > 0

    def test_bitrot_truncates_to_consistent_prefix(self, tmp_path):
        root = self.build(tmp_path)
        segments = sorted(root.glob("seg-*.colseg"))
        assert len(segments) >= 3
        target = segments[1]
        data = bytearray(target.read_bytes())
        data[32] ^= 0xFF
        target.write_bytes(bytes(data))
        report = fsck(root)
        assert not report.clean
        assert report.bitrot_segments == 1
        assert report.events_lost > 0
        repaired = fsck(root, repair=True)
        assert repaired.events_lost == report.events_lost
        store = EventStore(root, segment_max_records=16)
        first_damaged = int(target.name[len("seg-"):-len(".colseg")])
        assert store.next_seq == first_damaged
        assert all(e["seq"] < first_damaged for e in store.events())
        store.append("outbreak", 9000, {"prefix": "::/0"})
        store.close()
        assert fsck(root).clean

    def test_corrupt_colseg_with_valid_sha_is_still_caught(self, tmp_path):
        """A manifest whose hash was re-recorded over corrupt bytes (or
        rebuilt without hashes) must still fail the deep check."""
        root = self.build(tmp_path)
        target = sorted(root.glob("seg-*.colseg"))[0]
        data = bytearray(target.read_bytes())
        data[16] ^= 0xFF
        target.write_bytes(bytes(data))
        manifest = json.loads((root / "manifest.json").read_text())
        from repro.observatory import file_sha256
        for entry in manifest["segments"]:
            if entry["name"] == target.name:
                entry["sha256"] = file_sha256(target)
        (root / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True))
        report = fsck(root)
        assert not report.clean
        assert report.bitrot_segments == 1

    def test_orphaned_colseg_is_moved_aside(self, tmp_path):
        root = self.build(tmp_path)
        orphan = root / "seg-99999999.colseg"
        from repro.observatory.colseg import write_segment as ws
        ws(orphan, [{"seq": 99999999, "time": 1, "kind": "outbreak",
                     "prefix": "::/0"}])
        report = fsck(root, repair=True)
        assert report.orphan_files == 1
        assert not orphan.exists()
        assert (root / "seg-99999999.colseg.orphan").exists()

    def test_manifest_rebuild_covers_columnar_segments(self, tmp_path):
        root = self.build(tmp_path)
        store = EventStore(root, segment_max_records=16)
        events = list(store.events())
        store.close()
        (root / "manifest.json").unlink()
        report = fsck(root, repair=True)
        assert report.manifest_rebuilt
        rebuilt = EventStore(root, segment_max_records=16)
        assert list(rebuilt.events()) == events
        rebuilt.close()
