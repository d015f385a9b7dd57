"""End-to-end transport acceptance: serve a synthetic archive, sync it
through a fault-injecting proxy, and prove the remote-fed observatory is
byte-identical to one fed from the source archive directly."""

import shutil

import pytest

from repro.observatory import (
    EventStore,
    ObservatoryIngest,
    build_synthetic_archive,
    load_scenario,
)
from repro.ris import Archive
from repro.transport import ArchiveMirror, ArchiveServer, FaultPlan, FaultyProxy


def ingest_store(archive_root, store_dir, checkpoint, scenario):
    archive = Archive(archive_root)
    store = EventStore(store_dir)
    ingest = ObservatoryIngest(
        archive, store, checkpoint, scenario["intervals"],
        scenario["start"], scenario["end"],
        threshold=scenario["threshold"], min_offset=scenario["min_offset"],
        excluded_peers=scenario["excluded_peers"])
    ingest.run()
    ingest.finish()
    return store, ingest


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    built = build_synthetic_archive(root / "source")
    server = ArchiveServer(built.root).start()
    plan = FaultPlan(rates={"drop": 0.04, "error": 0.04, "truncate": 0.04,
                            "corrupt": 0.03}, seed=20240601)
    proxy = FaultyProxy(server.url, plan).start()
    mirror = ArchiveMirror(proxy.url, root / "mirror", workers=1, retries=8,
                           sleep=lambda seconds: None)
    report = mirror.sync()
    yield root, built, plan, report
    proxy.stop()
    server.stop()


class TestRemoteFedObservatory:
    def test_faulty_sync_completed_clean(self, world):
        _, _, plan, report = world
        assert report.ok
        assert sum(plan.injected.values()) > 0, "proxy injected nothing"

    def test_event_store_byte_identical_to_direct_ingest(self, world, tmp_path):
        root, built, _, _ = world
        scenario_direct = load_scenario(built.scenario_path)
        # scenario.json travelled over the wire as a manifest extra.
        scenario_remote = load_scenario(root / "mirror" / "scenario.json")
        direct, _ = ingest_store(built.root, tmp_path / "store-direct",
                                 tmp_path / "ckpt-direct.json", scenario_direct)
        remote, _ = ingest_store(root / "mirror", tmp_path / "store-remote",
                                 tmp_path / "ckpt-remote.json", scenario_remote)
        assert direct.next_seq == remote.next_seq
        assert direct.raw_bytes() == remote.raw_bytes()

    def test_remote_ingest_found_the_scripted_zombies(self, world, tmp_path):
        root, built, _, _ = world
        scenario = load_scenario(root / "mirror" / "scenario.json")
        store, _ = ingest_store(root / "mirror", tmp_path / "store",
                                tmp_path / "ckpt.json", scenario)
        outbreaks = {e["prefix"] for e in store.events(kinds=("outbreak",))}
        assert built.scripted["stuck"] in outbreaks


class TestTailingAGrowingMirror:
    def test_reopen_continues_over_newly_synced_files(self, tmp_path):
        """A mirror that ``watch`` keeps syncing grows over time; the
        ingest drains it, reopens, and continues — producing the same
        store as a one-shot ingest of the complete archive."""
        built = build_synthetic_archive(tmp_path / "source")
        scenario = load_scenario(built.scenario_path)
        cut = built.start + (built.end - built.start) // 2

        # Stage the source as it would appear mid-campaign: only files
        # whose stamp precedes the cut exist yet.
        staged = tmp_path / "staged"
        late_files = []
        for path in sorted(built.root.rglob("*")):
            if not path.is_file():
                continue
            relative = path.relative_to(built.root)
            target = staged / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            from repro.ris.archive import _parse_file_stamp

            name = relative.name
            stamp = None
            if name.endswith(".gz") or name.endswith(".gz.idx"):
                stamp = _parse_file_stamp(name.removesuffix(".idx"))
            if stamp is not None and stamp >= cut:
                late_files.append((path, target))
            else:
                shutil.copy2(path, target)

        server = ArchiveServer(staged).start()
        try:
            mirror = ArchiveMirror(server.url, tmp_path / "mirror",
                                   workers=1, retries=2,
                                   sleep=lambda seconds: None)
            assert mirror.sync().ok

            store = EventStore(tmp_path / "store")
            ingest = ObservatoryIngest(
                Archive(tmp_path / "mirror"), store, tmp_path / "ckpt.json",
                scenario["intervals"], scenario["start"], scenario["end"],
                threshold=scenario["threshold"],
                min_offset=scenario["min_offset"])
            first_pass = ingest.run()
            assert first_pass > 0
            assert not ingest.finished

            # The archive grows; watch syncs the new files across.
            for path, target in late_files:
                shutil.copy2(path, target)
            assert mirror.sync().ok

            ingest.reopen()
            second_pass = ingest.run()
            assert second_pass > 0
            ingest.finish()

            direct_store, _ = ingest_store(
                built.root, tmp_path / "store-direct",
                tmp_path / "ckpt-direct.json", scenario)
            assert store.raw_bytes() == direct_store.raw_bytes()
        finally:
            server.stop()
