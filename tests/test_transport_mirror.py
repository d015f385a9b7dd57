"""Tests for the fault-tolerant archive mirror: cold/warm sync, resume
after interruption, quarantine of corrupt downloads, fault injection."""

import json

import pytest

from repro.ris import Archive
from repro.ris.index import load_index
from repro.transport import (
    ArchiveMirror,
    ArchiveServer,
    FaultPlan,
    FaultyProxy,
    TransportError,
    sha256_file,
)
from repro.observatory import build_synthetic_archive
from repro.transport import client as transport_client


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    root = tmp_path_factory.mktemp("mirror-source")
    built = build_synthetic_archive(root / "archive")
    server = ArchiveServer(built.root).start()
    yield built, server
    server.stop()


def make_mirror(url, dest, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("retries", 4)
    kwargs.setdefault("sleep", lambda seconds: None)
    return ArchiveMirror(url, dest, **kwargs)


def tree_digest(root):
    """{relative path: sha256} for every non-hidden file under root."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and not any(
                part.startswith(".") for part in path.relative_to(root).parts):
            out[str(path.relative_to(root))] = sha256_file(path)
    return out


class TestSync:
    def test_cold_sync_is_byte_identical(self, source, tmp_path):
        built, server = source
        mirror = make_mirror(server.url, tmp_path / "dst")
        report = mirror.sync()
        assert report.ok
        assert report.files_downloaded == report.files_checked
        assert tree_digest(built.root) == tree_digest(tmp_path / "dst")

    def test_warm_sync_downloads_nothing(self, source, tmp_path):
        _, server = source
        mirror = make_mirror(server.url, tmp_path / "dst")
        assert mirror.sync().ok
        warm = mirror.sync()
        assert warm.ok
        assert warm.files_downloaded == 0
        assert warm.files_skipped == warm.files_checked
        assert warm.bytes_downloaded == 0

    def test_mirrored_sidecar_indexes_stay_fresh(self, source, tmp_path):
        built, server = source
        mirror = make_mirror(server.url, tmp_path / "dst")
        mirror.sync()
        data_files = sorted((tmp_path / "dst").glob("rrc*/*/updates.*.gz"))
        assert data_files
        for path in data_files:
            assert load_index(path) is not None, f"stale sidecar for {path}"

    def test_archive_opens_mirror_with_identical_records(self, source,
                                                         tmp_path):
        built, server = source
        mirror = make_mirror(server.url, tmp_path / "dst")
        mirror.sync()
        src = list(Archive(built.root).iter_updates(built.start, built.end))
        dst = list(Archive(tmp_path / "dst").iter_updates(built.start,
                                                          built.end))
        assert src == dst

    def test_collector_subset(self, source, tmp_path):
        _, server = source
        mirror = make_mirror(server.url, tmp_path / "dst",
                             collectors=["rrc00"])
        assert mirror.sync().ok
        assert (tmp_path / "dst" / "rrc00").exists()
        assert not (tmp_path / "dst" / "rrc01").exists()

    def test_unreachable_server_raises_transport_error(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(transport_client, "TIMEOUT", 0.5)
        mirror = make_mirror("http://127.0.0.1:9", tmp_path / "dst",
                             retries=1)
        with pytest.raises(TransportError):
            mirror.sync()

    def test_wrong_key_fails_closed(self, source, tmp_path):
        _, server = source
        mirror = make_mirror(server.url, tmp_path / "dst", key=b"wrong",
                             retries=0)
        with pytest.raises(TransportError, match="signature"):
            mirror.sync()


class TestInterruptedSync:
    """Satellite: kill the mirror mid-transfer, assert resume completes
    with zero corrupt files visible to Archive."""

    def test_interrupt_resume_and_no_torn_files(self, source, tmp_path):
        built, server = source
        dest = tmp_path / "dst"
        # Interrupt: the proxy truncates the first update file transfer;
        # with a zero retry budget that file fails this pass — exactly
        # the on-disk state a killed process leaves behind.
        proxy = FaultyProxy(server.url,
                            FaultPlan(script=[("updates.", "truncate")])).start()
        try:
            interrupted = make_mirror(proxy.url, dest, retries=0)
            report = interrupted.sync()
            assert not report.ok
            partials = list((dest / ".mirror" / "partial").rglob("*.gz"))
            assert len(partials) == 1  # the interrupted transfer, kept
            assert partials[0].stat().st_size > 0
            # Nothing torn is visible to a reader: every published file
            # hashes clean.
            source_digest = tree_digest(built.root)
            for rel, digest in tree_digest(dest).items():
                assert source_digest[rel] == digest
            # Resume with a healthy connection: the partial is continued
            # via Range, not redownloaded from scratch.
            resumed = make_mirror(server.url, dest)
            report = resumed.sync()
            assert report.ok
            assert report.bytes_resumed > 0
            assert tree_digest(built.root) == tree_digest(dest)
            assert not list((dest / ".mirror" / "partial").rglob("*.gz"))
        finally:
            proxy.stop()

    def test_corrupted_download_quarantined_and_refetched(self, source,
                                                          tmp_path):
        built, server = source
        dest = tmp_path / "dst"
        proxy = FaultyProxy(server.url,
                            FaultPlan(script=[("updates.", "corrupt")])).start()
        try:
            mirror = make_mirror(proxy.url, dest)
            report = mirror.sync()
            assert report.ok
            assert report.quarantined == 1
            quarantined = list((dest / ".mirror" / "quarantine").iterdir())
            assert len(quarantined) == 1
            # The poisoned bytes differ from every source file; the
            # refetched final copy matches the source exactly.
            assert tree_digest(built.root) == tree_digest(dest)
        finally:
            proxy.stop()

    def test_local_bitrot_detected_and_repaired(self, source, tmp_path):
        _, server = source
        dest = tmp_path / "dst"
        mirror = make_mirror(server.url, dest)
        mirror.sync()
        victim = sorted(dest.glob("rrc*/*/updates.*.gz"))[0]
        good = victim.read_bytes()
        victim.write_bytes(good[:-1] + bytes([good[-1] ^ 0xFF]))
        rel = str(victim.relative_to(dest))
        scrub = mirror.verify()
        assert rel in scrub["corrupt"]
        mirror.verify(repair=True)
        assert not victim.exists()
        report = mirror.sync()
        assert report.ok and report.files_downloaded == 1
        assert victim.read_bytes() == good
        assert mirror.verify()["corrupt"] == []


class TestFaultInjection:
    def test_sync_survives_mixed_fault_burst(self, source, tmp_path):
        built, server = source
        plan = FaultPlan(rates={"drop": 0.05, "error": 0.1,
                                "truncate": 0.05, "corrupt": 0.05}, seed=42)
        proxy = FaultyProxy(server.url, plan).start()
        try:
            mirror = make_mirror(proxy.url, tmp_path / "dst", retries=8)
            report = mirror.sync()
            assert report.ok
            assert report.retries > 0
            assert sum(plan.injected.values()) > 0
            assert tree_digest(built.root) == tree_digest(tmp_path / "dst")
        finally:
            proxy.stop()

    def test_5xx_burst_retried_then_succeeds(self, source, tmp_path):
        built, server = source
        plan = FaultPlan(script=[("index.json", "error"),
                                 ("index.json", "error"),
                                 ("manifest.json", "error")])
        proxy = FaultyProxy(server.url, plan).start()
        try:
            mirror = make_mirror(proxy.url, tmp_path / "dst")
            report = mirror.sync()
            assert report.ok
            assert report.retries >= 3
            assert plan.injected["error"] == 3
            assert tree_digest(built.root) == tree_digest(tmp_path / "dst")
        finally:
            proxy.stop()

    def test_retry_budget_exhaustion_reports_failure(self, source, tmp_path):
        _, server = source
        # Every request to one file drops; the rest of the sync proceeds.
        plan = FaultPlan(script=[("updates.", "drop")] * 3)
        proxy = FaultyProxy(server.url, plan).start()
        try:
            mirror = make_mirror(proxy.url, tmp_path / "dst", retries=2)
            report = mirror.sync()
            assert not report.ok
            assert len(report.failures) == 1
            assert "giving up" in report.failures[0]
        finally:
            proxy.stop()

    def test_no_pause_after_the_last_attempt(self, source, tmp_path):
        _, server = source
        plan = FaultPlan(script=[("updates.", "error")])
        proxy = FaultyProxy(server.url, plan).start()
        try:
            sleeps = []
            mirror = make_mirror(proxy.url, tmp_path / "dst", retries=0,
                                 sleep=sleeps.append)
            report = mirror.sync()
            assert plan.injected["error"] == 1
            assert sleeps == []
            assert report.retries == 0
            assert len(report.failures) == 1
            assert "giving up" in report.failures[0]
        finally:
            proxy.stop()

    def test_strict_sync_raises(self, source, tmp_path):
        _, server = source
        plan = FaultPlan(script=[("updates.", "drop")] * 5)
        proxy = FaultyProxy(server.url, plan).start()
        try:
            mirror = make_mirror(proxy.url, tmp_path / "dst", retries=1)
            with pytest.raises(TransportError, match="failure"):
                mirror.sync(strict=True)
        finally:
            proxy.stop()

    def test_fault_plan_is_deterministic(self):
        plan_a = FaultPlan(rates={"drop": 0.3}, seed=5)
        decisions_a = [plan_a.decide(f"/f{i}") for i in range(50)]
        plan_b = FaultPlan(rates={"drop": 0.3}, seed=5)
        decisions_b = [plan_b.decide(f"/f{i}") for i in range(50)]
        assert decisions_a != [None] * 50
        assert decisions_a == decisions_b

    def test_fault_plan_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(rates={"explode": 1.0})


class TestWatch:
    def test_watch_picks_up_new_files(self, tmp_path):
        from repro.ris.archive import ArchiveWriter
        from repro.utils.timeutil import ts
        from helpers import ann

        root = tmp_path / "growing"
        writer = ArchiveWriter(root)
        start = ts(2024, 6, 1)
        writer.write_updates("rrc00", [
            ann(start + i, "2001:db8:1::/48", 25091, 3333) for i in range(4)])
        server = ArchiveServer(root).start()
        try:
            dest = tmp_path / "dst"
            mirror = make_mirror(server.url, dest)
            grown = []

            def grow(report):
                if not grown:
                    writer.write_updates("rrc00", [
                        ann(start + 3600 + i, "2001:db8:1::/48", 25091, 3333)
                        for i in range(4)])
                    grown.append(True)

            reports = mirror.watch(interval=0.0, cycles=2, on_report=grow)
            assert len(reports) == 2
            assert reports[1].files_downloaded >= 1
            assert tree_digest(root) == tree_digest(dest)
        finally:
            server.stop()


class TestCLI:
    def test_sync_and_verify_commands(self, source, tmp_path, capsys):
        from repro.cli import main

        _, server = source
        dest = tmp_path / "dst"
        assert main(["mirror", "sync", server.url, str(dest),
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "synced" in out and "0 failure(s)" in out
        assert main(["mirror", "verify", str(dest)]) == 0
        out = capsys.readouterr().out
        assert "0 corrupt" in out

    def test_verify_repair_flow(self, source, tmp_path, capsys):
        from repro.cli import main

        _, server = source
        dest = tmp_path / "dst"
        assert main(["mirror", "sync", server.url, str(dest)]) == 0
        victim = sorted(dest.glob("rrc*/*/updates.*.gz"))[0]
        victim.write_bytes(b"garbage")
        assert main(["mirror", "verify", str(dest)]) == 1
        assert main(["mirror", "verify", str(dest), "--repair"]) == 1
        capsys.readouterr()
        assert main(["mirror", "sync", server.url, str(dest)]) == 0

    def test_watch_command_bounded_cycles(self, source, tmp_path, capsys):
        from repro.cli import main

        _, server = source
        assert main(["mirror", "watch", server.url, str(tmp_path / "dst"),
                     "--interval", "0", "--cycles", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("synced") == 2
