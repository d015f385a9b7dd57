"""Tests for the crash-tolerant supervisor driving a checkpointed
ingest, and its surfacing through the observatory HTTP API."""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.mrt import DecodeStats
from repro.observatory import (
    AsyncObservatoryServer,
    EventStore,
    ObservatoryApp,
    ObservatoryIngest,
    ObservatorySupervisor,
    build_synthetic_archive,
)
from repro.observatory import supervisor as supervisor_module
from repro.ris import Archive

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module", autouse=True)
def small_batches():
    """Batches of 10 records, so the synthetic window takes several."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(supervisor_module, "BATCH_RECORDS", 10)
        yield


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("sup-world")
    scen = build_synthetic_archive(root / "archive")
    return root, scen


def store_bytes(store_dir):
    return EventStore(store_dir, readonly=True).raw_bytes()


def make_supervisor(root, scen, name, **kwargs):
    store_dir = root / name
    store = EventStore(store_dir)

    def factory():
        return ObservatoryIngest(
            Archive(scen.root), store, store_dir / "ckpt.json",
            scen.intervals, scen.start, scen.end)

    kwargs.setdefault("sleep", lambda s: None)
    return ObservatorySupervisor(factory, **kwargs), store, store_dir


@pytest.fixture(scope="module")
def baseline(world):
    """Byte image of the store a plain, unsupervised ingest produces."""
    root, scen = world
    store_dir = root / "store-baseline"
    store = EventStore(store_dir)
    ingest = ObservatoryIngest(
        Archive(scen.root), store, store_dir / "ckpt.json",
        scen.intervals, scen.start, scen.end)
    ingest.finish()
    store.close()
    return store_bytes(store_dir)


@pytest.fixture(scope="module")
def crashed(world, baseline):
    """A supervised run that survived two injected on_batch crashes."""
    root, scen = world
    supervisor, store, store_dir = make_supervisor(
        root, scen, "store-crashed")
    remaining = {"crashes": 2}

    def boom(ingest):
        if remaining["crashes"] > 0:
            remaining["crashes"] -= 1
            raise RuntimeError("injected crash")

    ok = supervisor.run(on_batch=boom)
    store.close()
    return supervisor, store_dir, ok


class TestCleanRun:
    def test_healthy_and_byte_identical(self, world, baseline):
        root, scen = world
        supervisor, store, store_dir = make_supervisor(
            root, scen, "store-clean")
        assert supervisor.run() is True
        store.close()
        assert supervisor.finished
        assert supervisor.state == "healthy"
        assert supervisor.restarts == 0
        assert supervisor.crashes == 0
        assert supervisor.ingest_lag_seconds == 0
        assert store_bytes(store_dir) == baseline

    def test_stats_shape(self, world):
        root, scen = world
        supervisor, store, _ = make_supervisor(root, scen, "store-stats")
        supervisor.run()
        store.close()
        stats = supervisor.stats()
        assert stats["state"] == "healthy"
        assert stats["finished"] is True
        assert stats["gave_up"] is False
        assert stats["last_error"] is None
        assert stats["records_skipped"] == 0
        assert stats["bytes_quarantined"] == 0
        assert stats["decode"]["records_decoded"] > 0
        assert stats["batches"] >= 1

    def test_skipped_records_degrade_state(self, world):
        root, scen = world
        supervisor, store, _ = make_supervisor(root, scen,
                                               "store-degrade")
        supervisor.run()
        store.close()
        assert supervisor.state == "healthy"
        supervisor._decode_retired.merge(DecodeStats(records_skipped=1))
        assert supervisor.state == "degraded"


class TestCrashRecovery:
    def test_converges_to_clean_store(self, crashed, baseline):
        supervisor, store_dir, ok = crashed
        assert ok is True
        assert supervisor.finished
        assert supervisor.crashes == 2
        assert supervisor.restarts == 2
        assert "injected crash" in supervisor.last_error
        # Recovery replays from the last durable batch boundary: the
        # final store must be indistinguishable from an uncrashed run.
        assert store_bytes(store_dir) == baseline

    def test_surviving_restarts_reports_degraded(self, crashed):
        supervisor, _, _ = crashed
        assert supervisor.state == "degraded"

    def test_restart_budget_exhaustion_stalls(self, world):
        root, scen = world
        supervisor, store, _ = make_supervisor(
            root, scen, "store-exhaust", max_restarts=2)

        def always_boom(ingest):
            raise RuntimeError("poison window")

        assert supervisor.run(on_batch=always_boom) is False
        store.close()
        assert supervisor.gave_up
        assert supervisor.state == "stalled"
        assert not supervisor.finished
        assert supervisor.restarts == 2
        assert supervisor.crashes == 3

    def test_factory_crash_counts_against_budget(self, world):
        root, scen = world

        def bad_factory():
            raise OSError("archive unreachable")

        supervisor = ObservatorySupervisor(bad_factory, max_restarts=1,
                                           sleep=lambda s: None)
        assert supervisor.run() is False
        assert supervisor.gave_up
        assert supervisor.state == "stalled"
        assert supervisor.ingest is None
        assert "archive unreachable" in supervisor.last_error

    def test_backoff_is_seeded_and_capped(self, world, monkeypatch):
        root, scen = world
        delays = []
        monkeypatch.setattr(supervisor_module, "BACKOFF", 1.0)
        monkeypatch.setattr(supervisor_module, "BACKOFF_CAP", 2.5)
        monkeypatch.setattr(supervisor_module, "JITTER", 0.0)
        supervisor, store, _ = make_supervisor(
            root, scen, "store-backoff", max_restarts=3,
            sleep=delays.append)

        def always_boom(ingest):
            raise RuntimeError("boom")

        assert supervisor.run(on_batch=always_boom) is False
        store.close()
        # 1, 2, then capped at 2.5 (no jitter): exponential with a lid.
        assert delays == [1.0, 2.0, 2.5]


class TestHeartbeat:
    def test_stale_heartbeat_stalls_unfinished_run(self, world,
                                                   monkeypatch):
        root, scen = world
        now = {"t": 0.0}
        monkeypatch.setattr(supervisor_module, "HEARTBEAT_TIMEOUT", 300.0)
        supervisor, store, _ = make_supervisor(
            root, scen, "store-heartbeat", clock=lambda: now["t"])
        assert supervisor.heartbeat_age() is None
        assert supervisor.state == "healthy"
        supervisor.last_heartbeat = now["t"]
        now["t"] = 250.0
        assert supervisor.state == "healthy"
        now["t"] = 301.0
        assert supervisor.state == "stalled"
        # A finished run cannot stall, no matter how old the heartbeat.
        supervisor.finished = True
        assert supervisor.state == "healthy"
        store.close()


class TestServerIntegration:
    def test_healthz_and_metrics_surface_supervisor(self, crashed):
        supervisor, store_dir, _ = crashed
        store = EventStore(store_dir, readonly=True)
        app = ObservatoryApp(store, supervisor=supervisor)
        body = json.loads(app.respond("/healthz", {})[2])
        assert body["status"] == "ok"  # degraded is alive, not down
        assert body["ingest_state"] == "degraded"
        assert body["supervisor"]["restarts"] == 2
        assert body["supervisor"]["crashes"] == 2

        metrics = app.respond("/metrics", {})[2].decode()
        assert "observatory_supervisor_restarts_total 2" in metrics
        assert 'observatory_ingest_state{state="degraded"} 1' in metrics
        assert 'observatory_ingest_state{state="healthy"} 0' in metrics
        assert "observatory_ingest_lag_seconds 0" in metrics

    def test_stalled_supervisor_fails_healthz(self, world):
        root, scen = world
        supervisor, store, _ = make_supervisor(root, scen, "store-stalled")
        supervisor._policy.gave_up = True
        app = ObservatoryApp(store, supervisor=supervisor)
        body = json.loads(app.respond("/healthz", {})[2])
        store.close()
        assert body["status"] == "stalled"
        assert body["ingest_state"] == "stalled"


def series(metrics: str) -> dict[str, str]:
    """Unlabelled samples of one exposition: name -> value text."""
    return dict(line.split(" ", 1) for line in metrics.splitlines()
                if line and not line.startswith("#") and "{" not in line)


class TestDaemonReportsItsEngine:
    """A supervised daemon serves the counters of the engine it runs:
    the supervisor is the server's one live-engine input."""

    @staticmethod
    def get(server, path):
        with urllib.request.urlopen(server.url + path, timeout=10) as resp:
            return resp.read().decode()

    def test_metrics_and_healthz_follow_the_live_engine(self, world):
        root, scen = world
        supervisor, store, _ = make_supervisor(root, scen, "store-daemon")
        server = AsyncObservatoryServer(store, supervisor=supervisor).start()
        try:
            # No live engine yet: both render, the engine series are
            # left out and nothing claims the ingest finished.
            idle = series(self.get(server, "/metrics"))
            assert "observatory_supervisor_restarts_total" in idle
            assert not {"observatory_ingest_records_total",
                        "observatory_forensics_ring_entries",
                        "observatory_archive_files_considered_total"} & \
                set(idle)
            health = json.loads(self.get(server, "/healthz"))
            assert health["ingest_finished"] is None
            assert health["ingest_state"] == "healthy"

            mid_run = []

            def scrape(engine):
                # The engine waits for this hook, so what the server
                # renders now is exactly the engine's own count.
                if not mid_run:
                    mid_run.append((engine.records_ingested,
                                    series(self.get(server, "/metrics")),
                                    json.loads(self.get(server, "/healthz"))))

            assert supervisor.run(on_batch=scrape)
            consumed, live, live_health = mid_run[0]
            assert int(live["observatory_ingest_records_total"]) == \
                consumed > 0
            assert live_health["ingest_finished"] is False
            engine = supervisor.ingest.stats()
            assert engine["records_ingested"] == scen.record_count
            done = series(self.get(server, "/metrics"))
            assert int(done["observatory_ingest_records_total"]) == \
                engine["records_ingested"]
            assert int(done["observatory_forensics_ring_entries"]) == \
                engine["ring_entries"]
            assert int(done["observatory_archive_files_considered_total"]) > 0
            assert json.loads(
                self.get(server, "/healthz"))["ingest_finished"] is True
        finally:
            server.stop()
            store.close()


class TestDaemonServesItsFinishedState:
    """``observatory ingest --supervise --serve-port`` keeps serving
    once the window is done, until SIGTERM, and then exits with the
    run's code."""

    def test_serves_until_sigterm(self, world):
        root, scen = world
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "observatory", "ingest",
             str(root / "archive"), str(root / "store-cli"),
             "--supervise", "--serve-port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("observatory daemon serving on "), \
                banner
            url = banner.split()[-1]

            def get(path):
                with urllib.request.urlopen(url + path, timeout=10) as resp:
                    return resp.read().decode()

            deadline = time.monotonic() + 60
            while not json.loads(get("/healthz"))["ingest_finished"]:
                assert time.monotonic() < deadline, "ingest never finished"
                time.sleep(0.05)
            summary = proc.stdout.readline()
            records = int(re.search(r"\brecords=(\d+)", summary).group(1))
            assert records == scen.record_count
            metrics = series(get("/metrics"))
            assert int(metrics["observatory_ingest_records_total"]) == records
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
