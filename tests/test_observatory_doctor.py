"""Tests for the event-store fsck (repro.observatory.doctor) and the
``observatory doctor`` CLI."""

import json

import pytest

from repro.cli import main
from repro.observatory import EventStore, fsck


def build_store(root, events=10, segment_max_records=4):
    """A store with two sealed segments and one active tail."""
    store = EventStore(root, segment_max_records=segment_max_records)
    for i in range(events):
        store.append("outbreak", 1000 + i, {"prefix": f"2001:db8::{i:x}/64"})
    store.close()
    return root


def manifest(root):
    with open(root / "manifest.json", encoding="utf-8") as handle:
        return json.load(handle)


def store_events(root):
    return list(EventStore(root, readonly=True).events())


@pytest.fixture()
def store_dir(tmp_path):
    return build_store(tmp_path / "store")


class TestSealHashes:
    def test_sealed_segments_carry_sha256(self, store_dir):
        entries = manifest(store_dir)["segments"]
        assert [e["name"] for e in entries] == [
            "seg-00000000.jsonl", "seg-00000004.jsonl", "seg-00000008.jsonl"]
        assert entries[0]["sha256"] is not None
        assert entries[1]["sha256"] is not None
        assert entries[2]["sha256"] is None  # active tail, still growing


class TestCleanStore:
    def test_fsck_is_clean_and_touches_nothing(self, store_dir):
        before = (store_dir / "manifest.json").read_bytes()
        report = fsck(store_dir)
        assert report.clean
        assert not report.unrecoverable
        assert report.segments_checked == 3
        assert report.events_checked == 10
        report = fsck(store_dir, repair=True)
        assert report.clean
        assert report.actions == []
        assert (store_dir / "manifest.json").read_bytes() == before

    def test_as_dict_shape(self, store_dir):
        payload = fsck(store_dir).as_dict()
        assert payload["clean"] is True
        assert payload["events_lost"] == 0
        assert payload["issues"] == []


class TestTornTail:
    def test_detect_then_repair_losslessly(self, store_dir):
        baseline = EventStore(store_dir, readonly=True).raw_bytes()
        active = store_dir / "seg-00000008.jsonl"
        with open(active, "ab") as handle:
            handle.write(b'{"seq": 99, "half a line')

        report = fsck(store_dir)
        assert not report.clean
        assert report.torn_segments == 1
        assert report.events_lost == 0  # recoverable: only the torn tail

        report = fsck(store_dir, repair=True)
        assert any("cut" in action for action in report.actions)
        assert fsck(store_dir).clean
        assert EventStore(store_dir, readonly=True).raw_bytes() == baseline
        assert len(store_events(store_dir)) == 10


class TestBitRot:
    def flip(self, store_dir, name):
        path = store_dir / name
        raw = bytearray(path.read_bytes())
        raw[5] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_detected_against_seal_hash(self, store_dir):
        self.flip(store_dir, "seg-00000004.jsonl")
        report = fsck(store_dir)
        assert report.bitrot_segments == 1
        assert report.unrecoverable
        assert report.events_lost == 6  # seqs 4..9 are doomed

    def test_repair_truncates_to_consistent_prefix(self, store_dir):
        self.flip(store_dir, "seg-00000004.jsonl")
        report = fsck(store_dir, repair=True)
        assert report.unrecoverable
        # The surviving prefix opens cleanly and holds exactly seqs 0..3.
        assert fsck(store_dir).clean
        events = store_events(store_dir)
        assert [event["seq"] for event in events] == [0, 1, 2, 3]
        # Damaged files were moved aside, never deleted.
        assert (store_dir / "seg-00000004.jsonl.orphan").exists()

    def test_missing_sealed_segment_is_unrecoverable(self, store_dir):
        (store_dir / "seg-00000000.jsonl").unlink()
        report = fsck(store_dir)
        assert report.missing_segments == 1
        assert report.events_lost == 10


class TestOrphans:
    def test_orphan_moved_aside_not_deleted(self, store_dir):
        stray = store_dir / "seg-99999999.jsonl"
        stray.write_text('{"seq": 123456, "kind": "outbreak"}\n')
        report = fsck(store_dir)
        assert report.orphan_files == 1
        assert not report.clean
        fsck(store_dir, repair=True)
        assert not stray.exists()
        assert stray.with_name(stray.name + ".orphan").exists()
        assert fsck(store_dir).clean


class TestManifestLoss:
    def test_rebuild_from_segment_files(self, store_dir):
        (store_dir / "manifest.json").write_text("{not json")
        report = fsck(store_dir)
        assert not report.clean  # integrity is unverifiable, says so

        report = fsck(store_dir, repair=True)
        assert report.manifest_rebuilt
        assert fsck(store_dir).clean
        events = store_events(store_dir)
        assert [event["seq"] for event in events] == list(range(10))

    def test_rebuilt_generation_is_unambiguously_new(self, store_dir):
        """A store already past generation 0 (it was truncated) must not
        land back on a generation a tailing reader has already seen
        when the manifest is rebuilt — the reader would miss the
        history rewrite unless next_seq also shrank."""
        store = EventStore(store_dir)
        store.truncate(store.next_seq - 2)
        store.close()
        old = manifest(store_dir)["generation"]
        assert old >= 1
        text = (store_dir / "manifest.json").read_text()
        (store_dir / "manifest.json").write_text(text[:-10])  # torn JSON
        report = fsck(store_dir, repair=True)
        assert report.manifest_rebuilt
        # The old generation was salvaged from the torn bytes.
        assert manifest(store_dir)["generation"] == old + 1

    def test_rebuilt_generation_without_any_manifest_bytes(self, store_dir):
        (store_dir / "manifest.json").unlink()
        report = fsck(store_dir, repair=True)
        assert report.manifest_rebuilt
        # Nothing to salvage: the fallback must still be far above any
        # generation an incrementing store could plausibly have reached.
        assert manifest(store_dir)["generation"] > 1_000_000
        assert fsck(store_dir).clean

    def test_drifted_next_seq_reset(self, store_dir):
        payload = manifest(store_dir)
        payload["next_seq"] = 42
        (store_dir / "manifest.json").write_text(json.dumps(payload))
        report = fsck(store_dir)
        assert any("next_seq" in issue for issue in report.issues)
        fsck(store_dir, repair=True)
        assert fsck(store_dir).clean
        assert manifest(store_dir)["next_seq"] == 10


class TestDoctorCLI:
    def test_clean_store_exits_zero(self, store_dir, capsys):
        assert main(["observatory", "doctor", str(store_dir)]) == 0
        assert "store is clean" in capsys.readouterr().out

    def test_check_mode_flags_issues_without_touching(self, store_dir):
        active = store_dir / "seg-00000008.jsonl"
        with open(active, "ab") as handle:
            handle.write(b'{"torn')
        before = active.read_bytes()
        assert main(["observatory", "doctor", str(store_dir),
                     "--check"]) == 1
        assert active.read_bytes() == before

    def test_repair_mode_fixes_recoverable_damage(self, store_dir):
        with open(store_dir / "seg-00000008.jsonl", "ab") as handle:
            handle.write(b'{"torn')
        assert main(["observatory", "doctor", str(store_dir)]) == 0
        assert main(["observatory", "doctor", str(store_dir),
                     "--check"]) == 0

    def test_unrecoverable_damage_exits_nonzero(self, store_dir):
        path = store_dir / "seg-00000000.jsonl"
        raw = bytearray(path.read_bytes())
        raw[5] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert main(["observatory", "doctor", str(store_dir)]) == 1

    def test_missing_store_exits_nonzero(self, tmp_path):
        assert main(["observatory", "doctor", str(tmp_path / "nope")]) != 0

    @pytest.mark.parametrize("check", [False, True])
    def test_directory_without_a_store_is_refused(self, tmp_path, capsys,
                                                  check):
        """A directory with neither a manifest nor a segment file — an
        empty one, or a fleet root holding only worker logs — is not a
        store: exit 2, and no manifest is made up there."""
        fleet_root = tmp_path / "fleet"
        fleet_root.mkdir()
        (fleet_root / "shard-00.log").write_text("shard-00 serving\n")
        argv = ["observatory", "doctor", str(fleet_root)]
        assert main(argv + (["--check"] if check else [])) == 2
        assert "not an event store (no manifest)" in capsys.readouterr().err
        assert sorted(path.name for path in fleet_root.iterdir()) == \
            ["shard-00.log"]
