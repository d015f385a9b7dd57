"""Tests for the append-only event store: segments, manifest, recovery,
truncation, compaction and concurrent readers."""

import json

import pytest

from repro.observatory import EventStore
from repro.observatory import store as store_module
from repro.observatory.store import INDEX_VALUE_CAP, TailCursor


def fill(store, count, kind="outbreak", t0=1000):
    for i in range(count):
        store.append(kind, t0 + i, {"prefix": f"2a0d:3dc1:{i % 4:x}::/48",
                                    "peer_address": f"2001:db8::{i % 3:x}",
                                    "value": i})


class TestAppendRead:
    def test_seqs_are_monotonic_and_returned(self, tmp_path):
        store = EventStore(tmp_path / "store")
        assert store.append("outbreak", 10, {"prefix": "::/0"}) == 0
        assert store.append("lifespan", 20, {"prefix": "::/0"}) == 1
        assert store.next_seq == 2

    def test_events_round_trip_payload(self, tmp_path):
        store = EventStore(tmp_path / "store")
        store.append("outbreak", 10, {"prefix": "2a0d::/48", "peer_asn": 9304})
        (event,) = store.events()
        assert event == {"seq": 0, "time": 10, "kind": "outbreak",
                         "prefix": "2a0d::/48", "peer_asn": 9304}

    def test_segment_roll(self, tmp_path):
        store = EventStore(tmp_path / "store", segment_max_records=5)
        fill(store, 12)
        store.close()
        names = sorted(p.name for p in (tmp_path / "store").glob("seg-*.jsonl"))
        assert names == ["seg-00000000.jsonl", "seg-00000005.jsonl",
                         "seg-00000010.jsonl"]
        assert len(list(EventStore(tmp_path / "store").events())) == 12

    def test_filters(self, tmp_path):
        store = EventStore(tmp_path / "store", segment_max_records=4)
        fill(store, 20)
        store.append("lifespan", 5000, {"prefix": "2a0d:3dc1:0::/48"})
        assert len(list(store.events(kinds=("lifespan",)))) == 1
        assert [e["seq"] for e in store.events(min_seq=15)] == \
            list(range(15, 21))
        assert [e["seq"] for e in store.events(kinds=("outbreak",),
                                               min_seq=18)] == [18, 19]
        got = [e["seq"] for e in store.events()]
        assert got == sorted(got)

    def test_sealed_segment_index_skips(self, tmp_path):
        store = EventStore(tmp_path / "store", segment_max_records=3)
        fill(store, 9)
        fill(store, 2, kind="lifespan", t0=5000)
        store.close()
        reopened = EventStore(tmp_path / "store")
        # Poison sealed files: if the index skip works, a query for a
        # kind they do not hold never opens them.
        for name in ("seg-00000000.jsonl", "seg-00000003.jsonl"):
            (tmp_path / "store" / name).write_bytes(b"not json\n")
        assert [e["seq"] for e in reopened.events(kinds=("lifespan",))] \
            == [9, 10]

    def test_prefix_index_caps_out_gracefully(self, tmp_path):
        store = EventStore(tmp_path / "store",
                           segment_max_records=INDEX_VALUE_CAP + 10)
        for i in range(INDEX_VALUE_CAP + 5):
            store.append("outbreak", i, {"prefix": f"10.{i}.0.0/16"})
        store.close()
        manifest = json.loads(
            (tmp_path / "store" / "manifest.json").read_text())
        assert manifest["segments"][0]["prefixes"] is None
        # Overflowed index must not cause false skips after reopen+seal.
        store = EventStore(tmp_path / "store")
        fill(store, INDEX_VALUE_CAP + 10)  # seals the first segment
        assert any(e["prefix"] == "10.3.0.0/16" for e in store.events())


class TestRecovery:
    def test_reopen_resumes_seq(self, tmp_path):
        store = EventStore(tmp_path / "store")
        fill(store, 7)
        store.close()
        store = EventStore(tmp_path / "store")
        assert store.next_seq == 7
        fill(store, 3, t0=9000)
        assert store.next_seq == 10

    def test_partial_trailing_line_is_dropped(self, tmp_path):
        store = EventStore(tmp_path / "store")
        fill(store, 4)
        store.close()
        segment = tmp_path / "store" / "seg-00000000.jsonl"
        with open(segment, "ab") as handle:
            handle.write(b'{"seq": 4, "time": 99, "kind": "outb')  # torn write
        store = EventStore(tmp_path / "store")
        assert store.next_seq == 4
        assert len(list(store.events())) == 4
        store.append("outbreak", 100, {"prefix": "::/0"})
        assert [e["seq"] for e in store.events()] == [0, 1, 2, 3, 4]

    def test_crash_without_manifest_sync_recovers_appends(self, tmp_path):
        """Events appended (flushed) after the last manifest sync are
        recovered by the active-segment scan."""
        store = EventStore(tmp_path / "store")
        fill(store, 2)
        store.sync()
        fill(store, 3, t0=5000)  # appended but manifest not re-synced
        store._handle.flush()
        del store  # no close(): simulated crash
        store = EventStore(tmp_path / "store")
        assert store.next_seq == 5
        assert len(list(store.events())) == 5


class TestTruncate:
    def test_truncate_to_mid_segment(self, tmp_path):
        store = EventStore(tmp_path / "store", segment_max_records=4)
        fill(store, 10)
        dropped = store.truncate(6)
        assert dropped == 4
        assert store.next_seq == 6
        assert [e["seq"] for e in store.events()] == list(range(6))
        # Appends continue from the truncation point.
        store.append("outbreak", 9999, {"prefix": "::/0"})
        assert [e["seq"] for e in store.events()][-1] == 6

    def test_truncate_noop_and_forward_error(self, tmp_path):
        store = EventStore(tmp_path / "store")
        fill(store, 3)
        assert store.truncate(3) == 0
        with pytest.raises(ValueError):
            store.truncate(4)

    def test_truncate_to_zero(self, tmp_path):
        store = EventStore(tmp_path / "store", segment_max_records=2)
        fill(store, 5)
        assert store.truncate(0) == 5
        assert list(store.events()) == []
        store.append("outbreak", 1, {"prefix": "::/0"})
        assert store.next_seq == 1


class TestCompact:
    def test_superseded_lifespans_folded(self, tmp_path):
        store = EventStore(tmp_path / "store", segment_max_records=3)
        for i in range(6):
            store.append("lifespan", 1000 + i, {
                "prefix": "2a0d::/48", "visible": True,
                "started_segment": i == 0, "resurrection": False,
                "segment_count": 1})
        store.append("outbreak", 500, {"prefix": "2a0d::/48"})
        result = store.compact()
        assert result == {"kept": 3, "dropped": 4}
        kinds = [e["kind"] for e in store.events()]
        assert kinds.count("outbreak") == 1
        remaining = [e for e in store.events(kinds=("lifespan",))]
        # The started_segment marker and the latest summary survive.
        assert [e["seq"] for e in remaining] == [0, 5]

    def test_resurrection_markers_survive(self, tmp_path):
        store = EventStore(tmp_path / "store")
        for i, flag in enumerate([False, True, False, False]):
            store.append("lifespan", 1000 + i, {
                "prefix": "2a0d::/48", "visible": True,
                "started_segment": False, "resurrection": flag})
        store.compact()
        assert [e["resurrection"] for e in store.events()] == [True, False]

    def test_appends_continue_after_compaction(self, tmp_path):
        store = EventStore(tmp_path / "store")
        fill(store, 4, kind="lifespan")
        store.compact()
        seq = store.append("outbreak", 2000, {"prefix": "::/0"})
        assert seq == 4


class TestConcurrentReader:
    def test_readonly_sees_live_appends(self, tmp_path):
        writer = EventStore(tmp_path / "store", segment_max_records=3)
        fill(writer, 2)
        writer.sync()
        reader = EventStore(tmp_path / "store", readonly=True)
        assert len(list(reader.events())) == 2
        fill(writer, 5, t0=7000)  # rolls a segment, appends to a new one
        writer.sync()
        assert len(list(reader.events())) == 7

    def test_readonly_reparses_the_manifest_only_when_it_changes(
            self, tmp_path, monkeypatch):
        writer = EventStore(tmp_path / "store", segment_max_records=3)
        fill(writer, 2)
        writer.sync()
        reader = EventStore(tmp_path / "store", readonly=True)
        parsed = []
        real = store_module.read_manifest
        monkeypatch.setattr(store_module, "read_manifest",
                            lambda data: parsed.append(data) or real(data))
        assert reader.position() == reader.position() == (0, 2)
        assert parsed == []
        fill(writer, 2, t0=7000)  # rolls a segment: the manifest moves
        assert reader.position() == (0, 4)
        assert len(parsed) == 1
        writer.truncate(1)
        assert reader.position() == (1, 1)
        assert len(parsed) == 2

    def test_follower_decodes_only_the_delta_of_the_active_segment(
            self, tmp_path, monkeypatch):
        writer = EventStore(tmp_path / "store", segment_max_records=50)
        fill(writer, 20)
        writer.sync()
        reader = EventStore(tmp_path / "store", readonly=True)
        assert [e["seq"] for e in reader.events(min_seq=0)] == \
            list(range(20))
        fill(writer, 3, t0=7000)
        writer.sync()
        decoded = []
        real = json.loads
        monkeypatch.setattr(
            store_module.json, "loads",
            lambda data, **kw: decoded.append(data) or real(data, **kw))
        delta = list(reader.events(min_seq=20))
        assert [e["seq"] for e in delta] == [20, 21, 22]
        # The manifest, the line below the watermark, the three new ones.
        assert len(decoded) == 5
        monkeypatch.undo()
        assert delta == list(EventStore(tmp_path / "store",
                                        readonly=True).events(min_seq=20))

    def test_follower_resumes_correctly_after_a_same_name_rewrite(
            self, tmp_path):
        writer = EventStore(tmp_path / "store", segment_max_records=50)
        fill(writer, 10)
        writer.sync()
        reader = EventStore(tmp_path / "store", readonly=True)
        list(reader.events(min_seq=0))  # indexes seqs 0..9
        # Rewrite the active segment under its own name with longer
        # lines, so the indexed span of seq 9 now cuts through another
        # line, and read before the reader has seen the new manifest.
        writer.truncate(4)
        fill(writer, 8, kind="resurrection", t0=9000)
        writer.sync()
        reader._load_manifest = lambda: None
        got = list(reader.events(min_seq=10))
        fresh = EventStore(tmp_path / "store", readonly=True)
        assert got == list(fresh.events(min_seq=10))
        assert [(e["seq"], e["kind"]) for e in got] == \
            [(10, "resurrection"), (11, "resurrection")]

    def test_readonly_rejects_writes(self, tmp_path):
        EventStore(tmp_path / "store").close()
        reader = EventStore(tmp_path / "store", readonly=True)
        with pytest.raises(RuntimeError):
            reader.append("outbreak", 1, {})
        with pytest.raises(RuntimeError):
            reader.truncate(0)

    def test_readonly_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EventStore(tmp_path / "nope", readonly=True)


class TestStats:
    def test_stats_counts(self, tmp_path):
        store = EventStore(tmp_path / "store", segment_max_records=4)
        fill(store, 6)
        store.append("lifespan", 99, {"prefix": "::/0",
                                      "started_segment": False,
                                      "resurrection": False})
        stats = store.stats()
        assert stats["events"] == 7
        assert stats["next_seq"] == 7
        assert stats["segments"] == 2
        assert stats["by_format"] == {"jsonl": 2}

    def test_stats_reads_no_segment(self, tmp_path, monkeypatch):
        """``/healthz`` polls this every 0.2 s per shard: the manifest
        index answers, readonly included."""
        store = EventStore(tmp_path / "store", segment_max_records=4)
        fill(store, 6)
        store.sync()
        reader = EventStore(tmp_path / "store", readonly=True)
        store.append("outbreak", 7, {"prefix": "::/0"})
        store.sync()
        for target in (store, reader):
            monkeypatch.setattr(target, "_iter_segment", None)
            assert target.stats()["next_seq"] == 7


class TestTailCursor:
    """The one tail protocol every store follower runs on."""

    def test_first_poll_attaches_and_yields_the_published_span(
            self, tmp_path):
        store = EventStore(tmp_path / "store", segment_max_records=4)
        fill(store, 6)
        tail = TailCursor(store)
        assert tail.poll()  # first attach
        assert (tail.generation, tail.seq, tail.end) == (0, 0, 6)
        assert [e["seq"] for e in tail.read()] == list(range(6))
        assert tail.seq == 6
        assert not tail.poll()
        assert list(tail.read()) == []

    def test_event_appended_after_the_poll_waits_for_the_next(
            self, tmp_path):
        store = EventStore(tmp_path / "store")
        fill(store, 3)
        tail = TailCursor(store)
        tail.poll()
        fill(store, 2, t0=2000)  # after position() was read
        assert [e["seq"] for e in tail.read()] == [0, 1, 2]
        assert tail.seq == 3  # never past the published position
        assert not tail.poll()
        assert [e["seq"] for e in tail.read()] == [3, 4]

    def test_truncate_then_append_back_to_the_same_next_seq_resets(
            self, tmp_path):
        store = EventStore(tmp_path / "store")
        fill(store, 4)
        tail = TailCursor(store)
        tail.poll()
        list(tail.read())
        store.truncate(2)
        fill(store, 2, t0=5000)
        assert store.next_seq == 4  # same position, different content
        assert tail.poll()
        assert (tail.generation, tail.seq) == (store.generation, 0)
        assert [e["time"] for e in tail.read()] == [1000, 1001,
                                                      5000, 5001]

    def test_position_behind_the_cursor_resets(self, tmp_path):
        store = EventStore(tmp_path / "store")
        fill(store, 2)
        tail = TailCursor(store, generation=0, seq=9)  # a stale token
        assert tail.poll() and tail.seq == 0

    def test_kind_filter_still_advances_past_hidden_events(self, tmp_path):
        store = EventStore(tmp_path / "store")
        fill(store, 2)
        fill(store, 3, kind="lifespan", t0=2000)
        tail = TailCursor(store)
        tail.poll()
        assert [e["seq"] for e in tail.read(kinds=("outbreak",))] == [0, 1]
        assert tail.seq == 5  # the lifespans were considered, not owed
        assert list(tail.read(kinds=("lifespan",))) == []

    def test_batch_bound_resumes_mid_span(self, tmp_path):
        store = EventStore(tmp_path / "store", segment_max_records=4)
        fill(store, 3, kind="lifespan")
        fill(store, 7, t0=2000)
        tail = TailCursor(store)
        tail.poll()
        first = list(tail.read(kinds=("outbreak",), limit=3))
        assert [e["seq"] for e in first] == [3, 4, 5]
        assert (tail.seq, tail.end) == (6, 10)
        rest = list(tail.read(kinds=("outbreak",), limit=10))
        assert [e["seq"] for e in rest] == [6, 7, 8, 9]
        assert tail.seq == 10

    def test_abandoned_event_is_not_counted_as_considered(self, tmp_path):
        store = EventStore(tmp_path / "store")
        fill(store, 3)
        tail = TailCursor(store)
        tail.poll()
        for event in tail.read():
            if event["seq"] == 1:
                break  # the consumer failed on this one
        assert tail.seq == 1

    def test_readonly_follower_sees_unsynced_appends(self, tmp_path):
        writer = EventStore(tmp_path / "store")
        fill(writer, 2)
        writer.sync()
        tail = TailCursor(EventStore(tmp_path / "store", readonly=True))
        tail.poll()
        assert len(list(tail.read())) == 2
        fill(writer, 1, t0=3000)  # flushed, manifest not synced
        assert not tail.poll()
        assert [e["seq"] for e in tail.read()] == [2]
