"""Kill-resume determinism: a checkpointed ingest that is killed at an
arbitrary record boundary and restarted produces an event store that is
byte-identical to an uninterrupted run — including kills landing
mid-outbreak and mid-resurrection (state buffered, event not yet due)."""

import json
from collections import Counter

import pytest

from repro.observatory import (
    EventStore,
    ObservatoryIngest,
    build_synthetic_archive,
    load_checkpoint,
    load_scenario,
    save_checkpoint,
)
from repro.ris import Archive
from repro.utils.timeutil import MINUTE


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-archive")
    built = build_synthetic_archive(root / "archive")
    return built, load_scenario(built.scenario_path)


def make_ingest(scenario, store_dir, checkpoint, checkpoint_every=7):
    built, config = scenario
    return ObservatoryIngest(
        Archive(built.root), EventStore(store_dir), checkpoint,
        config["intervals"], config["start"], config["end"],
        checkpoint_every=checkpoint_every)


def uninterrupted(scenario, tmp_path):
    ingest = make_ingest(scenario, tmp_path / "ref-store",
                         tmp_path / "ref-ckpt.json")
    ingest.run()
    ingest.finish()
    ingest.store.close()
    return ingest


def killed_and_resumed(scenario, tmp_path, kill_at, checkpoint_every=7):
    first = make_ingest(scenario, tmp_path / "store", tmp_path / "ckpt.json",
                        checkpoint_every)
    first.run(max_records=kill_at)
    first.store.close()  # simulated kill: no final checkpoint written
    resumed = make_ingest(scenario, tmp_path / "store",
                          tmp_path / "ckpt.json", checkpoint_every)
    resumed.run()
    resumed.finish()
    resumed.store.close()
    return resumed


class TestKillResume:
    def test_scenario_produces_every_event_kind(self, scenario, tmp_path):
        ingest = uninterrupted(scenario, tmp_path)
        by_kind = Counter(e["kind"] for e in ingest.store.events())
        assert by_kind["outbreak"] == 2
        assert by_kind["resurrection"] == 2
        assert by_kind["lifespan"] > 0
        assert ingest.counters["rib_resurrection_events"] == 1

    @pytest.mark.parametrize("kill_at", [1, 5, 13, 42, 57, 99])
    def test_byte_identical_store(self, scenario, tmp_path, kill_at):
        reference = uninterrupted(scenario, tmp_path)
        resumed = killed_and_resumed(scenario, tmp_path, kill_at)
        assert resumed.store.raw_bytes() == reference.store.raw_bytes()
        assert resumed.records_ingested == reference.records_ingested
        assert resumed.dumps_ingested == reference.dumps_ingested

    @pytest.mark.parametrize("kill_at", [1, 99])
    def test_kill_before_first_periodic_checkpoint(self, scenario, tmp_path,
                                                   kill_at):
        """With ``checkpoint_every=100`` no periodic checkpoint exists
        at the kill, but events do (by record 99): the restart must
        restore to the zero-record checkpoint the engine wrote when it
        started fresh, not start fresh again on top of them."""
        reference = uninterrupted(scenario, tmp_path)
        resumed = killed_and_resumed(scenario, tmp_path, kill_at,
                                     checkpoint_every=100)
        assert resumed.store.raw_bytes() == reference.store.raw_bytes()
        assert resumed.records_ingested == reference.records_ingested

    def test_kill_mid_outbreak(self, scenario, tmp_path):
        """Kill between the final withdrawal and the evaluation deadline:
        the zombie is live detector state, not yet an event."""
        built, config = scenario
        reference = uninterrupted(scenario, tmp_path)
        stuck_withdraw = max(
            i.withdraw_time for i in config["intervals"]
            if str(i.prefix) == built.scripted["stuck"])
        probe = make_ingest(scenario, tmp_path / "probe",
                            tmp_path / "probe.json")
        count = 0
        record = None
        stream = probe._update_stream()
        for record in stream:
            count += 1
            if stuck_withdraw < record.timestamp \
                    < stuck_withdraw + 90 * MINUTE:
                break
        assert record is not None and count < 100, \
            "scenario must have a record inside the outbreak window"
        resumed = killed_and_resumed(scenario, tmp_path, count)
        assert resumed.store.raw_bytes() == reference.store.raw_bytes()

    def test_kill_mid_resurrection(self, scenario, tmp_path):
        """Kill between a withdrawal and its late re-announcement: the
        armed peer lives only in the monitor snapshot."""
        built, config = scenario
        reference = uninterrupted(scenario, tmp_path)
        resur_withdraw = max(
            i.withdraw_time for i in config["intervals"]
            if str(i.prefix) == built.scripted["resurrection_updates"])
        probe = make_ingest(scenario, tmp_path / "probe",
                            tmp_path / "probe.json")
        count = 0
        for record in probe._update_stream():
            count += 1
            if record.timestamp > resur_withdraw + 30 * MINUTE:
                break
        resumed = killed_and_resumed(scenario, tmp_path, count)
        assert resumed.store.raw_bytes() == reference.store.raw_bytes()

    def test_double_kill(self, scenario, tmp_path):
        reference = uninterrupted(scenario, tmp_path)
        first = make_ingest(scenario, tmp_path / "store",
                            tmp_path / "ckpt.json", checkpoint_every=5)
        first.run(max_records=23)
        first.store.close()
        second = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json", checkpoint_every=5)
        second.run(max_records=31)
        second.store.close()
        third = make_ingest(scenario, tmp_path / "store",
                            tmp_path / "ckpt.json", checkpoint_every=5)
        third.run()
        third.finish()
        third.store.close()
        assert third.store.raw_bytes() == reference.store.raw_bytes()

    def test_resume_after_finish_is_noop(self, scenario, tmp_path):
        reference = uninterrupted(scenario, tmp_path)
        again = make_ingest(scenario, tmp_path / "ref-store",
                            tmp_path / "ref-ckpt.json")
        assert again.finished
        assert again.run() == 0
        again.finish()
        assert again.store.raw_bytes() == reference.store.raw_bytes()


class TestCheckpointDocument:
    def test_atomic_write_and_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "ckpt.json"
        save_checkpoint(path, {"window": [0, 10], "answer": 42})
        document = load_checkpoint(path)
        assert document["answer"] == 42
        assert document["version"] == 1
        assert not path.with_name(path.name + ".tmp").exists()

    def test_file_bytes_are_the_sorted_json_text(self, scenario, tmp_path):
        """The checkpoint is written with one ``json.dumps`` call, so its
        bytes are exactly the sorted-key text of the stamped document."""
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json")
        ingest.run(max_records=10)
        ingest.checkpoint()
        ingest.store.close()
        path = tmp_path / "ckpt.json"
        document = load_checkpoint(path)
        assert path.read_bytes() == json.dumps(
            document, sort_keys=True).encode("utf-8")

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.json") is None

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_old_detector_snapshot_rejected(self, scenario, tmp_path):
        """A checkpoint written before the detectors shared one core
        (detector document version 1: ever-growing per-prefix state with
        ``seen_since``) is refused with the typed error, not misread."""
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json")
        ingest.run(max_records=10)
        ingest.checkpoint()
        ingest.store.close()
        document = load_checkpoint(tmp_path / "ckpt.json")
        assert "seen_since" not in json.dumps(document["detector"])
        document["detector"]["version"] = 1
        save_checkpoint(tmp_path / "ckpt.json", document)
        with pytest.raises(ValueError, match="unsupported IntervalEvaluator "
                                             "snapshot version: 1"):
            make_ingest(scenario, tmp_path / "store", tmp_path / "ckpt.json")

    def test_alert_counting_detector_snapshot_resumes(self, scenario,
                                                      tmp_path):
        """A checkpoint whose detector document still carries the
        ``alert_count`` of the former alert face (same version 2, one key
        more) resumes to a byte-identical store."""
        reference = uninterrupted(scenario, tmp_path)
        first = make_ingest(scenario, tmp_path / "store",
                            tmp_path / "ckpt.json")
        first.run(max_records=42)
        first.checkpoint()
        first.store.close()
        document = load_checkpoint(tmp_path / "ckpt.json")
        assert document["detector"]["version"] == 2
        document["detector"]["alert_count"] = 1
        save_checkpoint(tmp_path / "ckpt.json", document)
        resumed = make_ingest(scenario, tmp_path / "store",
                              tmp_path / "ckpt.json")
        assert resumed.records_ingested == 42
        resumed.run()
        resumed.finish()
        resumed.store.close()
        assert resumed.store.raw_bytes() == reference.store.raw_bytes()

    @pytest.mark.parametrize("part, old_version, name", [
        ("monitor", 2, "ResurrectionMonitor"),
        ("lifespans", 1, "LifespanSession")])
    def test_old_resurrection_snapshots_rejected(self, scenario, tmp_path,
                                                 part, old_version, name):
        """Monitor documents from before the window-per-interval core
        and session documents still carrying ``late_first_seen`` are
        refused with the typed error, not misread."""
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json")
        ingest.run(max_records=10)
        ingest.checkpoint()
        ingest.store.close()
        document = load_checkpoint(tmp_path / "ckpt.json")
        document[part]["version"] = old_version
        save_checkpoint(tmp_path / "ckpt.json", document)
        with pytest.raises(ValueError, match=f"unsupported {name} snapshot "
                                             f"version: {old_version}"):
            make_ingest(scenario, tmp_path / "store", tmp_path / "ckpt.json")

    def test_window_mismatch_rejected(self, scenario, tmp_path):
        built, config = scenario
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json")
        ingest.run(max_records=10)
        ingest.checkpoint()
        ingest.store.close()
        with pytest.raises(ValueError, match="window"):
            ObservatoryIngest(
                Archive(built.root), EventStore(tmp_path / "store"),
                tmp_path / "ckpt.json", config["intervals"],
                config["start"], config["end"] + 1)

    def test_checkpoint_truncates_uncheckpointed_suffix(self, scenario,
                                                        tmp_path):
        """Events appended after the last checkpoint are rolled back on
        restart, then re-emitted identically."""
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json", checkpoint_every=1000)
        ingest.run(max_records=50)
        ingest.checkpoint()
        checkpointed = ingest.store.next_seq
        ingest.run(max_records=30)  # appended, never checkpointed
        past = ingest.store.next_seq
        ingest.store.close()
        resumed = make_ingest(scenario, tmp_path / "store",
                              tmp_path / "ckpt.json", checkpoint_every=1000)
        assert resumed.store.next_seq == checkpointed
        assert resumed.records_ingested == 50
        resumed.run()
        resumed.finish()
        assert resumed.store.next_seq >= past
