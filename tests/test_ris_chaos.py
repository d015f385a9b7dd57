"""Tests for the seeded archive corruption module (repro.ris.chaos) and
the resilience contract it exists to assert: a tolerant read of a
corrupted archive sees exactly the surviving records."""

import shutil

import pytest

from repro.observatory import (
    EventStore,
    ObservatoryIngest,
    ObservatorySupervisor,
    build_synthetic_archive,
    fsck,
)
from repro.observatory import supervisor as supervisor_module
from repro.ris import (
    Archive,
    ChaosReport,
    build_reference_archive,
    corrupt_archive,
)
from repro.ris.archive import _parse_file_stamp

RATE = 0.08
GARBAGE = 0.05
TRUNCATE = 0.2


def archive_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.glob("*/*/updates.*.gz"))}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos-world")
    scen = build_synthetic_archive(root / "clean")
    return root, scen


@pytest.fixture(scope="module")
def corrupted(clean):
    root, scen = clean
    dirty = root / "dirty"
    shutil.copytree(scen.root, dirty)
    report = corrupt_archive(dirty, rate=RATE, garbage_rate=GARBAGE,
                             truncate_rate=TRUNCATE, seed=7)
    return dirty, report


class TestCorruptArchive:
    def test_damage_actually_landed(self, corrupted):
        dirty, report = corrupted
        assert report.files_corrupted > 0
        assert report.records_destroyed > 0
        assert report.garbage_runs > 0
        assert report.truncations > 0
        assert report.records_destroyed < report.records_total

    def test_same_seed_is_byte_deterministic(self, clean, tmp_path):
        root, scen = clean
        images = []
        for attempt in range(2):
            dirty = tmp_path / f"dirty-{attempt}"
            shutil.copytree(scen.root, dirty)
            report = corrupt_archive(dirty, rate=RATE, garbage_rate=GARBAGE,
                                     truncate_rate=TRUNCATE, seed=7)
            images.append((archive_bytes(dirty), report.destroyed))
        assert images[0] == images[1]

    def test_different_seed_changes_damage(self, clean, corrupted, tmp_path):
        root, scen = clean
        _, base_report = corrupted
        dirty = tmp_path / "dirty-other"
        shutil.copytree(scen.root, dirty)
        other = corrupt_archive(dirty, rate=RATE, garbage_rate=GARBAGE,
                                truncate_rate=TRUNCATE, seed=8)
        assert other.destroyed != base_report.destroyed

    def test_predicate_restricts_damage(self, clean, tmp_path):
        root, scen = clean
        dirty = tmp_path / "dirty-pred"
        shutil.copytree(scen.root, dirty)
        untouched = archive_bytes(scen.root)
        report = corrupt_archive(dirty, rate=1.0, seed=0,
                                 predicate=lambda p: False)
        assert report.files_seen == 0
        assert report.records_destroyed == 0
        assert archive_bytes(dirty) == untouched

    def test_report_merge_unions_destroyed(self):
        a = ChaosReport(records_destroyed=2,
                        destroyed={"f": [0, 3]})
        b = ChaosReport(records_destroyed=2, truncations=1,
                        destroyed={"f": [3, 5], "g": [1]})
        a.merge(b)
        assert a.destroyed == {"f": [0, 3, 5], "g": [1]}
        assert a.truncations == 1


class TestTolerantReadEquivalence:
    def test_skip_read_equals_reference(self, clean, corrupted, tmp_path):
        root, scen = clean
        dirty, report = corrupted
        reference = build_reference_archive(scen.root, tmp_path / "reference",
                                            report.destroyed)
        expected = list(Archive(reference).iter_updates(scen.start, scen.end))
        dirty_archive = Archive(dirty, error_policy="skip")
        survivors = list(dirty_archive.iter_updates(scen.start, scen.end))
        assert survivors == expected
        stats = dirty_archive.decode_stats
        # Truncations destroy a record without a skip counter tick (the
        # bytes just end); every poisoned record must be counted.
        assert stats.records_skipped >= \
            report.records_destroyed - report.truncations
        assert stats.resyncs >= report.garbage_runs

    def test_parallel_read_matches_serial(self, clean, corrupted):
        root, scen = clean
        dirty, _ = corrupted
        serial = list(Archive(dirty, error_policy="skip")
                      .iter_updates(scen.start, scen.end))
        parallel_archive = Archive(dirty, workers=4, error_policy="skip")
        parallel = list(parallel_archive.iter_updates(scen.start, scen.end))
        assert parallel == serial
        assert not parallel_archive.decode_stats.clean


class TestSupervisedChaosIngest:
    def test_degraded_but_converged(self, clean, corrupted, tmp_path,
                                    monkeypatch):
        root, scen = clean
        dirty, report = corrupted
        reference = build_reference_archive(scen.root, tmp_path / "ref",
                                            report.destroyed)

        ref_dir = tmp_path / "store-ref"
        ref_store = EventStore(ref_dir)
        ObservatoryIngest(Archive(reference), ref_store,
                          ref_dir / "ckpt.json", scen.intervals,
                          scen.start, scen.end).finish()
        ref_store.close()

        chaos_dir = tmp_path / "store-chaos"
        store = EventStore(chaos_dir)

        def factory():
            return ObservatoryIngest(
                Archive(dirty, error_policy="skip"), store,
                chaos_dir / "ckpt.json", scen.intervals,
                scen.start, scen.end)

        monkeypatch.setattr(supervisor_module, "BATCH_RECORDS", 25)
        supervisor = ObservatorySupervisor(factory, sleep=lambda s: None)
        assert supervisor.run() is True
        store.close()
        assert supervisor.restarts == 0  # tolerant decode, no crashes
        assert supervisor.state == "degraded"  # ...but poison was skipped
        assert supervisor.records_skipped > 0
        assert EventStore(chaos_dir, readonly=True).raw_bytes() == \
            EventStore(ref_dir, readonly=True).raw_bytes()

    def test_mid_run_corruption_crash_and_resume_converge(self, clean,
                                                          tmp_path,
                                                          monkeypatch):
        """Damage the first half of the updates files up front, then —
        once the ingest's watermark crosses the midpoint — damage only
        files strictly past the watermark and crash the ingest.  The
        resumed quarantine ingest must converge on the store of a clean
        ingest of exactly the surviving records, and pass the doctor."""
        root, scen = clean
        dirty = tmp_path / "dirty"
        shutil.copytree(scen.root, dirty)
        stamps = sorted(_parse_file_stamp(path.name)
                        for path in dirty.glob("*/*/updates.*.gz"))
        midpoint = stamps[len(stamps) // 2]
        report = corrupt_archive(
            dirty, rate=RATE, garbage_rate=GARBAGE, truncate_rate=TRUNCATE,
            seed=11, predicate=lambda p: _parse_file_stamp(p.name) < midpoint)

        chaos_dir = tmp_path / "store-chaos"
        store = EventStore(chaos_dir)

        def factory():
            return ObservatoryIngest(
                Archive(dirty, error_policy="quarantine"), store,
                chaos_dir / "ckpt.json", scen.intervals,
                scen.start, scen.end, checkpoint_every=100)

        fired = []

        def mid_run_chaos(ingest):
            watermark = ingest._updates_watermark
            if fired or watermark is None or watermark < midpoint:
                return
            late = corrupt_archive(
                dirty, rate=RATE, garbage_rate=GARBAGE,
                truncate_rate=TRUNCATE, seed=12,
                predicate=lambda p: _parse_file_stamp(p.name) > watermark)
            fired.append(late)
            report.merge(late)
            raise RuntimeError("chaos: injected mid-ingest crash")

        monkeypatch.setattr(supervisor_module, "BATCH_RECORDS", 10)
        supervisor = ObservatorySupervisor(factory, sleep=lambda s: None)
        assert supervisor.run(on_batch=mid_run_chaos) is True
        store.close()
        (late,) = fired
        assert late.records_destroyed > 0 and supervisor.restarts == 1
        assert supervisor.records_skipped >= \
            report.records_destroyed - report.truncations
        assert fsck(chaos_dir).clean

        reference = build_reference_archive(scen.root, tmp_path / "ref",
                                            report.destroyed)
        ref_dir = tmp_path / "store-ref"
        ref_store = EventStore(ref_dir)
        ObservatoryIngest(Archive(reference), ref_store,
                          ref_dir / "ckpt.json", scen.intervals,
                          scen.start, scen.end).finish()
        ref_store.close()
        assert EventStore(chaos_dir, readonly=True).raw_bytes() == \
            EventStore(ref_dir, readonly=True).raw_bytes()
