"""Tests for the observatory HTTP API, the programmatic client, and the
``observatory`` CLI subcommands."""

import json

import pytest

from repro.cli import main
from repro.observatory import (
    AsyncObservatoryServer,
    EventStore,
    ObservatoryApp,
    ObservatoryClient,
    ObservatoryIngest,
    ObservatorySupervisor,
    build_synthetic_archive,
    load_scenario,
)
from repro.observatory.client import ObservatoryError
from repro.ris import Archive


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A fully ingested synthetic observatory: archive, store, and the
    supervisor whose live engine ingested it."""
    root = tmp_path_factory.mktemp("obs-world")
    built = build_synthetic_archive(root / "archive")
    config = load_scenario(built.scenario_path)
    archive = Archive(built.root)
    store = EventStore(root / "store")
    supervisor = ObservatorySupervisor(lambda: ObservatoryIngest(
        archive, store, root / "ckpt.json", config["intervals"],
        config["start"], config["end"]))
    assert supervisor.run()
    return built, config, archive, store, supervisor


@pytest.fixture()
def server(world):
    built, config, archive, store, supervisor = world
    server = AsyncObservatoryServer(store, supervisor=supervisor).start()
    yield server
    server.stop()


@pytest.fixture()
def client(server):
    return ObservatoryClient(server.url)


class TestEndpoints:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["events"] > 0
        assert body["ingest_finished"] is True

    def test_outbreaks(self, world, client):
        built = world[0]
        body = client.outbreaks()
        assert body["count"] == 2
        prefixes = {o["prefix"] for o in body["outbreaks"]}
        assert built.scripted["stuck"] in prefixes
        assert built.scripted["resurrection_rib"] in prefixes

    def test_outbreaks_prefix_and_window_filters(self, world, client):
        built = world[0]
        body = client.outbreaks(prefix=built.scripted["stuck"])
        assert body["count"] == 1
        detected = body["outbreaks"][0]["detected_at"]
        assert client.outbreaks(since=detected + 1)["count"] == 1
        assert client.outbreaks(until=detected)["count"] == 0

    def test_zombies_listing(self, world, client):
        built = world[0]
        zombies = client.zombies()["zombies"]
        assert [z["prefix"] for z in zombies] == sorted([
            built.scripted["stuck"], built.scripted["resurrection_rib"]])
        assert all(z["segment_count"] > 0 for z in zombies)

    def test_zombie_detail(self, world, client):
        built = world[0]
        body = client.zombie(built.scripted["stuck"])
        assert body["lifespan"]["duration_seconds"] > 0
        assert len(body["outbreaks"]) == 1
        # The latest lifespan record supersedes the earlier ones.
        assert body["lifespan"]["visible"] is False

    def test_zombie_unknown_prefix_is_404(self, client):
        with pytest.raises(ObservatoryError) as excinfo:
            client.zombie("192.0.2.0/24")
        assert excinfo.value.status == 404

    def test_resurrections_both_scales(self, world, client):
        built = world[0]
        body = client.resurrections()
        scales = {(e["prefix"], e["scale"]) for e in body["resurrections"]}
        assert (built.scripted["resurrection_updates"], "updates") in scales
        assert (built.scripted["resurrection_rib"], "rib") in scales

    def test_bad_parameter_is_400(self, server):
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/outbreaks?since=yesterday")
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ObservatoryError) as excinfo:
            client._get("/nope")
        assert excinfo.value.status == 404


class TestMetrics:
    def test_prometheus_exposition(self, client):
        text = client.metrics()
        lines = text.splitlines()
        assert any(line.startswith("observatory_events_total ")
                   for line in lines)
        assert 'observatory_events{kind="outbreak"} 2' in lines
        assert any(line.startswith("observatory_ingest_records_total ")
                   for line in lines)
        assert any(line.startswith("observatory_archive_cache_misses_total ")
                   for line in lines)
        assert any(line.startswith("observatory_archive_files_considered_total ")
                   for line in lines)
        for line in lines:
            assert line.startswith("#") or " " in line

    def test_request_counter_moves(self, client):
        def value():
            for line in client.metrics().splitlines():
                if line.startswith("observatory_http_requests_total "):
                    return int(line.split()[-1])
        first = value()
        assert value() == first + 1

    def test_back_to_back_scrapes_of_an_idle_store_agree(self, world):
        """A scrape refreshes the views for the per-kind counts, but
        does not count that refresh: on an idle store two scrapes report
        the same numbers."""
        app = ObservatoryApp(world[3])
        app.handle("/outbreaks", {})
        first = app.render_metrics()
        assert app.render_metrics() == first
        assert "observatory_view_refreshes_total 1" in first.splitlines()


class TestLiveIngest:
    def test_queries_during_ingest(self, tmp_path):
        """The server answers while the store is still being appended to
        (same process), and results grow as ingest progresses."""
        built = build_synthetic_archive(tmp_path / "archive")
        config = load_scenario(built.scenario_path)
        store = EventStore(tmp_path / "store")
        ingest = ObservatoryIngest(
            Archive(built.root), store, tmp_path / "ckpt.json",
            config["intervals"], config["start"], config["end"])
        app = ObservatoryApp(store)

        def get(path):
            return json.loads(app.respond(path, {})[2])

        assert get("/healthz")["events"] == 0
        ingest.run(max_records=90)
        mid = get("/healthz")["events"]
        ingest.run()
        ingest.finish()
        assert get("/healthz")["events"] > mid > 0
        assert get("/outbreaks")["count"] == 2

    def test_readonly_store_serves_other_writer(self, tmp_path):
        """Cross-process shape: the server reads a store directory that a
        different EventStore instance is appending to."""
        writer = EventStore(tmp_path / "store")
        writer.append("outbreak", 10, {"prefix": "2a0d::/48"})
        writer.sync()
        app = ObservatoryApp(EventStore(tmp_path / "store", readonly=True))
        assert json.loads(app.respond("/outbreaks", {})[2])["count"] == 1
        writer.append("outbreak", 20, {"prefix": "2a0d::/48"})
        writer.sync()
        assert json.loads(app.respond("/outbreaks", {})[2])["count"] == 2


class TestObservatoryCli:
    def test_synth_ingest_query_compact(self, tmp_path, capsys):
        archive = str(tmp_path / "archive")
        store = str(tmp_path / "store")
        assert main(["observatory", "synth", archive]) == 0
        assert main(["observatory", "ingest", archive, store,
                     "--max-records", "40"]) == 0
        assert main(["observatory", "ingest", archive, store]) == 0
        capsys.readouterr()
        assert main(["observatory", "query", store, "outbreaks"]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 2 and all(r["kind"] == "outbreak" for r in rows)
        assert main(["observatory", "query", store, "zombies"]) == 0
        zombies = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert all(z["segment_count"] > 0 for z in zombies)
        assert main(["observatory", "compact", store]) == 0
        assert "compacted" in capsys.readouterr().out

    def test_compact_refuses_a_path_with_no_manifest(self, tmp_path, capsys):
        absent = tmp_path / "absent"
        assert main(["observatory", "compact", str(absent)]) == 2
        captured = capsys.readouterr()
        assert "not an event store (no manifest)" in captured.err
        assert "compacted" not in captured.out
        assert not absent.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--serve-port", "8599", "--max-records", "5"], "--serve-port"),
        (["--max-restarts", "3"], "--max-restarts"),
        (["--supervise", "--max-records", "5"], "--max-records")])
    def test_flag_of_the_other_mode_exits_2(self, tmp_path, capsys, flags,
                                            named):
        """``--serve-port`` / ``--max-restarts`` need ``--supervise`` and
        ``--max-records`` does not combine with it: each is refused by
        name instead of silently ignored, before anything is ingested."""
        archive, store = tmp_path / "archive", tmp_path / "store"
        assert main(["observatory", "synth", str(archive), "--days", "1"]) == 0
        capsys.readouterr()
        code = main(["observatory", "ingest", str(archive), str(store),
                     *flags])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not store.exists()

    def test_missing_archive_exits_2(self, tmp_path, capsys):
        code = main(["observatory", "ingest", str(tmp_path / "absent"),
                     str(tmp_path / "store")])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario" in err and "Traceback" not in err


class TestClientRobustness:
    """Satellite: connect/read timeouts, bounded retry with backoff, and
    a clear error type when the server is unreachable."""

    def test_unreachable_server_raises_clear_error(self):
        from repro.observatory import ObservatoryUnreachable

        sleeps = []
        client = ObservatoryClient("http://127.0.0.1:9",
                                   connect_timeout=0.5,
                                   retries=2, backoff=0.1,
                                   sleep=sleeps.append)
        with pytest.raises(ObservatoryUnreachable) as excinfo:
            client.healthz()
        assert excinfo.value.attempts == 3
        assert sleeps == [0.1, 0.2]  # exponential backoff between attempts

    def test_4xx_is_not_retried(self, server):
        sleeps = []
        client = ObservatoryClient(server.url, retries=3, sleep=sleeps.append)
        with pytest.raises(ObservatoryError) as excinfo:
            client.zombie("2001:db8:ffff::/48")
        assert excinfo.value.status == 404
        assert sleeps == []

    def test_5xx_retried_until_success(self):
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        failures = [2]  # first two requests answer 503

        class Flaky(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # noqa: A002
                pass

            def do_GET(self):  # noqa: N802
                if failures[0] > 0:
                    failures[0] -= 1
                    payload = b'{"error": "warming up"}'
                    self.send_response(503)
                else:
                    payload = b'{"status": "ok"}'
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Flaky)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            sleeps = []
            client = ObservatoryClient(url, retries=3, backoff=0.05,
                                       sleep=sleeps.append)
            assert client.healthz() == {"status": "ok"}
            assert len(sleeps) == 2
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_5xx_exhaustion_raises_observatory_error(self):
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class AlwaysDown(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # noqa: A002
                pass

            def do_GET(self):  # noqa: N802
                payload = b'{"error": "down for maintenance"}'
                self.send_response(503)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), AlwaysDown)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            client = ObservatoryClient(url, retries=1, backoff=0.01,
                                       sleep=lambda seconds: None)
            with pytest.raises(ObservatoryError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
            assert "maintenance" in excinfo.value.message
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_malformed_json_raises_protocol_error(self):
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from repro.observatory import ObservatoryProtocolError

        class BrokenProxy(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # noqa: A002
                pass

            def do_GET(self):  # noqa: N802
                payload = b"<html>502 Bad Gateway</html>" + b"x" * 200
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), BrokenProxy)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            sleeps = []
            client = ObservatoryClient(url, retries=3, backoff=0.05,
                                       sleep=sleeps.append)
            with pytest.raises(ObservatoryProtocolError) as excinfo:
                client.healthz()
            # A malformed body is a protocol violation, not a transient
            # transport fault: it must not be retried.
            assert sleeps == []
            assert excinfo.value.url == url + "/healthz"
            assert excinfo.value.body.startswith("<html>")
            assert isinstance(excinfo.value.cause, ValueError)
            assert "Bad Gateway" in str(excinfo.value)
            assert len(str(excinfo.value)) < len(excinfo.value.body) + 120
        finally:
            httpd.shutdown()
            httpd.server_close()
