"""Pre-outbreak forensics: the bounded last-announcement ring, the
durable forensics snapshot events, the ``/outbreaks/<id>/forensics``
endpoint (wire fidelity, ETag/304, 404s), kill-resume byte-identity
with the ring in the checkpoint, federation single-owner routing with
the shard-down 503 path, and the doctor's semantic sweep."""

import hashlib
import json
from urllib.parse import quote

import pytest
from helpers import ann, interval, sess_down, wd

from repro.bgp import ASPath
from repro.observatory import (
    AsyncObservatoryServer,
    EventStore,
    FederatedObservatoryServer,
    LastAnnouncementRing,
    MaterializedViews,
    ObservatoryIngest,
    ObservatoryClient,
    PARTIAL_HEADER,
    ShardWorker,
    build_synthetic_archive,
    fsck,
    load_scenario,
    outbreak_id,
    outbreak_prefix,
    render_forensics,
    shard_for,
)
from repro.observatory.server import ObservatoryApp, forensics_outbreak_id
from repro.ris import Archive, ArchiveWriter
from repro.utils.timeutil import HOUR, MINUTE, ts
from test_observatory_federation import fetch, no_retries_no_breaker

ORIGIN = 65000


def forensics_path(identifier):
    return "/outbreaks/" + quote(identifier, safe="") + "/forensics"


class TestOutbreakIds:
    def test_round_trip(self):
        payload = {"prefix": "2001:db8::/32", "announce_time": 1717293600,
                   "collector": "rrc00", "peer_address": "2001:db8::2"}
        identifier = outbreak_id(payload)
        assert outbreak_prefix(identifier) == "2001:db8::/32"
        # The separator is URL-unreserved and absent from every component.
        assert "~" not in payload["prefix"]
        assert identifier.count("~") == 3

    @pytest.mark.parametrize("bad", ["", "nope", "a~b", "a~b~c~d~e"])
    def test_malformed_ids_yield_no_prefix(self, bad):
        assert outbreak_prefix(bad) == ""

    def test_route_parser(self):
        assert forensics_outbreak_id("/outbreaks/x~1~c~p/forensics") \
            == "x~1~c~p"
        assert forensics_outbreak_id(
            "/outbreaks/10.0.0.0%2F24~1~c~p/forensics") == "10.0.0.0/24~1~c~p"
        assert forensics_outbreak_id("/outbreaks//forensics") is None
        assert forensics_outbreak_id("/outbreaks") is None
        assert forensics_outbreak_id("/outbreaks/x") is None


class TestLastAnnouncementRing:
    PREFIX = "2001:db8::/32"

    def test_announcement_then_withdrawal_keeps_the_path(self):
        ring = LastAnnouncementRing()
        ring.observe(ann(100, self.PREFIX, 3, 2, 1))
        ring.observe(wd(200, self.PREFIX))
        [entry] = ring.snapshot_for(self.PREFIX)
        assert entry["path"] == "3 2 1"
        assert entry["announced_at"] == 100
        assert entry["withdrawn_at"] == 200

    def test_reannouncement_replaces_and_clears_withdrawal(self):
        ring = LastAnnouncementRing()
        ring.observe(ann(100, self.PREFIX, 3, 2, 1))
        ring.observe(wd(200, self.PREFIX))
        ring.observe(ann(300, self.PREFIX, 4, 2, 1))
        [entry] = ring.snapshot_for(self.PREFIX)
        assert entry["path"] == "4 2 1"
        assert entry["withdrawn_at"] is None

    def test_withdrawal_without_announcement_is_ignored(self):
        ring = LastAnnouncementRing()
        ring.observe(wd(200, self.PREFIX))
        assert len(ring) == 0

    def test_session_records_are_ignored(self):
        ring = LastAnnouncementRing()
        ring.observe(ann(100, self.PREFIX, 3, 2, 1))
        ring.observe(sess_down(200))
        [entry] = ring.snapshot_for(self.PREFIX)
        assert entry["withdrawn_at"] is None  # the path survives bounces

    def test_capacity_bound_evicts_least_recently_touched(self):
        ring = LastAnnouncementRing(capacity=3)
        for i in range(5):
            ring.observe(ann(100 + i, self.PREFIX, 3, 2, 1,
                             addr=f"2001:db8::{i + 1}"))
        assert len(ring) == 3
        assert ring.evictions == 2
        addresses = [e["peer_address"]
                     for e in ring.snapshot_for(self.PREFIX)]
        assert addresses == ["2001:db8::3", "2001:db8::4", "2001:db8::5"]

    def test_touching_an_entry_saves_it_from_eviction(self):
        ring = LastAnnouncementRing(capacity=2)
        ring.observe(ann(100, self.PREFIX, 3, 1, addr="2001:db8::a"))
        ring.observe(ann(101, self.PREFIX, 4, 1, addr="2001:db8::b"))
        ring.observe(ann(102, self.PREFIX, 5, 1, addr="2001:db8::a"))
        ring.observe(ann(103, self.PREFIX, 6, 1, addr="2001:db8::c"))
        addresses = [e["peer_address"]
                     for e in ring.snapshot_for(self.PREFIX)]
        assert addresses == ["2001:db8::a", "2001:db8::c"]  # ::b evicted

    def test_prefix_filter_and_excluded_peers(self):
        ring = LastAnnouncementRing(
            prefixes={self.PREFIX},
            excluded_peers=frozenset({("rrc00", "2001:db8::bad")}))
        ring.observe(ann(100, "10.9.0.0/16", 3, 1))
        ring.observe(ann(100, self.PREFIX, 3, 1, addr="2001:db8::bad"))
        ring.observe(ann(100, self.PREFIX, 3, 1, addr="2001:db8::ok"))
        assert [e["peer_address"] for e in ring.snapshot_for(self.PREFIX)] \
            == ["2001:db8::ok"]

    def test_snapshot_round_trip_preserves_order_and_evictions(self):
        ring = LastAnnouncementRing(capacity=3)
        for i in range(5):
            ring.observe(ann(100 + i, self.PREFIX, 3, 2, 1,
                             addr=f"2001:db8::{i + 1}"))
        ring.observe(wd(200, self.PREFIX, addr="2001:db8::4"))
        restored = LastAnnouncementRing.from_snapshot(ring.snapshot())
        assert restored.snapshot() == ring.snapshot()
        assert restored.evictions == ring.evictions
        # Recency order survives: one more insert evicts the same entry.
        for r in (ring, restored):
            r.observe(ann(300, self.PREFIX, 9, 1, addr="2001:db8::z"))
        assert restored.snapshot() == ring.snapshot()

    def test_snapshot_version_is_checked(self):
        with pytest.raises(ValueError, match="snapshot version"):
            LastAnnouncementRing.from_snapshot({"version": 99})


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("forensics-archive")
    built = build_synthetic_archive(root / "archive")
    return built, load_scenario(built.scenario_path)


def make_ingest(scenario, store_dir, checkpoint, checkpoint_every=7):
    built, config = scenario
    return ObservatoryIngest(
        Archive(built.root), EventStore(store_dir), checkpoint,
        config["intervals"], config["start"], config["end"],
        checkpoint_every=checkpoint_every)


@pytest.fixture(scope="module")
def forensic_store(scenario, tmp_path_factory):
    """A fully ingested store (the module-scoped scenario) plus its
    outbreak ids."""
    root = tmp_path_factory.mktemp("forensics-store")
    ingest = make_ingest(scenario, root / "store", root / "ckpt.json")
    ingest.run()
    ingest.finish()
    ingest.store.close()
    store = EventStore(root / "store", readonly=True)
    ids = [event["id"] for event in store.events(kinds=("outbreak",))]
    yield store, ids
    store.close()


class TestSnapshotEvents:
    def test_every_outbreak_gets_a_forensics_snapshot(self, forensic_store):
        store, ids = forensic_store
        snapshots = list(store.events(kinds=("forensics",)))
        assert len(ids) == len(snapshots) > 0
        assert [s["outbreak_id"] for s in snapshots] == ids
        for snapshot in snapshots:
            assert outbreak_prefix(snapshot["outbreak_id"]) \
                == snapshot["prefix"]
            assert snapshot["peers"], "ring excerpt must not be empty"

    def test_snapshot_precedes_nothing_after_the_outbreak(self,
                                                          forensic_store):
        # The forensics event is appended immediately after its outbreak
        # (same detection instant, next seq) so replication/partitioning
        # can never separate them across a watermark.
        store, _ = forensic_store
        events = list(store.events(kinds=("outbreak", "forensics")))
        for outbreak, snapshot in zip(events[0::2], events[1::2]):
            assert outbreak["kind"] == "outbreak"
            assert snapshot["kind"] == "forensics"
            assert snapshot["outbreak_id"] == outbreak["id"]
            assert snapshot["time"] == outbreak["time"]

    def test_ingest_stats_expose_the_ring(self, scenario, tmp_path):
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json")
        ingest.run()
        ingest.finish()
        stats = ingest.stats()
        assert stats["ring_entries"] > 0
        assert stats["ring_evictions"] == 0  # default capacity is ample
        assert ingest.counters["forensics_events"] \
            == ingest.counters["outbreak_events"] > 0
        ingest.store.close()

    def test_doctor_sweeps_forensics_records(self, forensic_store, tmp_path):
        store, ids = forensic_store
        report = fsck(store.root)
        assert report.clean
        assert report.forensics_checked == len(ids)

    def test_doctor_flags_orphaned_snapshot(self, scenario, tmp_path):
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json")
        ingest.run()
        ingest.finish()
        snapshot = next(iter(ingest.store.events(kinds=("forensics",))))
        orphan = {key: value for key, value in snapshot.items()
                  if key not in ("seq", "time", "kind")}
        orphan["outbreak_id"] = "10.255.0.0/24~1~rrc99~2001:db8::dead"
        ingest.store.append("forensics", snapshot["time"], orphan)
        ingest.store.close()
        report = fsck(tmp_path / "store")
        assert not report.clean
        assert any("unknown outbreak" in issue for issue in report.issues)
        # Semantic drift is reported, never "repaired" away.
        assert report.events_lost == 0


class TestWindowBoundariesThroughIngest:
    """The live service judges an interval on the batch detector's
    window — through a real archive — and the forensics snapshot holds
    that window: every record up to and *at* the evaluation instant,
    none after it."""

    P = "2a0d:3dc1:1145::/48"
    T0 = ts(2024, 6, 5)
    EVAL = T0 + 900 + 90 * MINUTE
    OTHER = "2001:db8::9"

    def ingest(self, tmp_path, records, intervals, threshold=90 * MINUTE):
        ArchiveWriter(tmp_path / "archive").write_updates("rrc00", records)
        store = EventStore(tmp_path / "store")
        ingest = ObservatoryIngest(
            Archive(tmp_path / "archive"), store, tmp_path / "ckpt.json",
            intervals, self.T0, self.T0 + 16 * HOUR, threshold=threshold)
        ingest.finish()
        events = list(store.events(kinds=("outbreak", "forensics")))
        store.close()
        return events

    def test_next_announcement_ends_the_window(self, tmp_path):
        """RIS-shaped beacon (4 h cycle, 2 h up) at the 3 h threshold,
        every peer withdrawing within seconds: no outbreak."""
        intervals, records = [], []
        for cycle in range(3):
            start = self.T0 + cycle * 4 * HOUR
            intervals.append(interval(self.P, start, start + 2 * HOUR))
            for index, addr in enumerate(["2001:db8::2", self.OTHER]):
                records += [ann(start + 2 + index, self.P, 25091, 12654,
                                addr=addr, origin_time=start),
                            wd(start + 2 * HOUR + 3 + index, self.P,
                               addr=addr)]
        assert self.ingest(tmp_path, records, intervals, 3 * HOUR) == []

    def test_withdrawal_at_the_evaluation_instant_is_healthy(self, tmp_path):
        outbreak, snapshot = self.ingest(tmp_path, [
            ann(self.T0 + 2, self.P, 25091, 210312, origin_time=self.T0),
            ann(self.T0 + 3, self.P, 25091, 210312, addr=self.OTHER,
                origin_time=self.T0),
            wd(self.EVAL, self.P, addr=self.OTHER),
            wd(self.EVAL + 1, self.P),  # too late: this one is the zombie
        ], [interval(self.P, self.T0)])
        assert outbreak["peer_address"] == "2001:db8::2"
        assert {entry["peer_address"]: entry["withdrawn_at"]
                for entry in snapshot["peers"]} \
            == {"2001:db8::2": None, self.OTHER: self.EVAL}

    def test_reannouncement_at_the_evaluation_instant_is_a_zombie(
            self, tmp_path):
        outbreak, snapshot = self.ingest(tmp_path, [
            ann(self.T0 + 2, self.P, 25091, 210312, origin_time=self.T0),
            wd(self.T0 + 903, self.P),
            ann(self.EVAL, self.P, 25091, 4637, 210312, origin_time=self.T0),
            ann(self.EVAL + 1, self.P, 25091, 1299, 210312,
                origin_time=self.T0),
        ], [interval(self.P, self.T0)])
        assert outbreak["detected_at"] == self.EVAL
        assert outbreak["path"] == "25091 4637 210312"
        (entry,) = snapshot["peers"]
        assert (entry["path"], entry["announced_at"]) \
            == ("25091 4637 210312", self.EVAL)


class TestKillResume:
    @pytest.mark.parametrize("kill_at", [5, 11, 23, 37])
    def test_byte_identity_with_ring_and_snapshots(self, scenario, tmp_path,
                                                   kill_at):
        reference = make_ingest(scenario, tmp_path / "ref-store",
                                tmp_path / "ref-ckpt.json")
        reference.run()
        reference.finish()

        first = make_ingest(scenario, tmp_path / "store",
                            tmp_path / "ckpt.json")
        first.run(max_records=kill_at)
        first.store.close()  # simulated kill: no finish(), no checkpoint
        resumed = make_ingest(scenario, tmp_path / "store",
                              tmp_path / "ckpt.json")
        resumed.run()
        resumed.finish()

        assert resumed.store.raw_bytes() == reference.store.raw_bytes()
        assert list(resumed.store.events(kinds=("forensics",))) \
            == list(reference.store.events(kinds=("forensics",)))
        resumed.store.close()
        reference.store.close()

    def test_checkpoint_carries_the_ring(self, scenario, tmp_path):
        from repro.observatory import load_checkpoint
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json")
        ingest.run(max_records=20)
        ingest.checkpoint()
        document = load_checkpoint(tmp_path / "ckpt.json")
        assert document["ring"]["entries"]
        assert document["ring"] == ingest.ring.snapshot()
        ingest.store.close()

    def test_pre_forensics_checkpoint_restores_fresh_ring(self, scenario,
                                                          tmp_path):
        # Checkpoints written before the ring existed have no "ring"
        # key; resuming from one must not crash.
        from repro.observatory import load_checkpoint, save_checkpoint
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json")
        ingest.run(max_records=20)
        ingest.checkpoint()
        ingest.store.close()
        document = load_checkpoint(tmp_path / "ckpt.json")
        del document["ring"]
        save_checkpoint(tmp_path / "ckpt.json", document)
        resumed = make_ingest(scenario, tmp_path / "store",
                              tmp_path / "ckpt.json")
        assert len(resumed.ring) == 0
        resumed.run()
        resumed.finish()
        resumed.store.close()


class TestEndpoint:
    def test_body_and_revalidation(self, forensic_store):
        store, ids = forensic_store
        app = ObservatoryApp(store)
        status, headers, body = app.respond(forensics_path(ids[0]), {})
        assert status == 200
        document = json.loads(body)
        assert document["outbreak_id"] == ids[0]
        assert document["peers"]
        assert document["root_cause"]["verdict"] in \
            ("suspect", "no-suspect", "no-evidence")
        assert document["root_cause"]["total_paths"] \
            >= document["root_cause"]["rooted_paths"]
        etag = dict(headers)["ETag"]
        status, _, body = app.respond(forensics_path(ids[0]), {}, etag)
        assert status == 304 and body == b""

    def test_body_is_the_rendered_store_event(self, forensic_store):
        store, ids = forensic_store
        app = ObservatoryApp(store)
        for identifier in ids:
            event = [e for e in store.events(kinds=("forensics",))
                     if e["outbreak_id"] == identifier][-1]  # latest wins
            assert app.respond(forensics_path(identifier), {})[2] == \
                json.dumps(render_forensics(event), sort_keys=True).encode()

    def test_unknown_outbreak_is_404(self, forensic_store):
        store, _ = forensic_store
        app = ObservatoryApp(store)
        status, _, body = app.respond(forensics_path("no~such~out~break"),
                                      {})
        assert status == 404
        assert json.loads(body)["error"]

    #: (status, ETag, sha256(body)[:16]) per path, as the parent commit
    #: (90de47d) served them from the same synthetic scenario.
    GOLDEN = [(200, '"0-16-f9a90c5261d01c25"', "1bd5c113c7136b57"),
              (200, '"0-16-21113a37e4bb362d"', "460a420acf720d92"),
              (404, None, "24a98aa4ffe32393")]

    def test_engine_parity_bodies_and_304s(self, forensic_store):
        """The wire carries what ``respond`` returns in-process."""
        store, ids = forensic_store
        oracle = ObservatoryApp(store)
        server = AsyncObservatoryServer(
            EventStore(store.root, readonly=True)).start()
        served = []
        try:
            for identifier in ids + ["no~such~out~break"]:
                path = forensics_path(identifier)
                status, headers, body = fetch(server.url, path)
                expected = oracle.respond(path, {})
                assert (status, body) == expected[::2]
                assert dict(expected[1]).items() <= headers.items()
                etag = headers.get("ETag")
                served.append((status, etag,
                               hashlib.sha256(body).hexdigest()[:16]))
                if etag is not None:
                    status, headers, body = fetch(
                        server.url, path, {"If-None-Match": etag})
                    assert (status, headers["ETag"], body) \
                        == (304, etag, b"")
        finally:
            server.stop()
        assert served == self.GOLDEN

    def test_client_forensics(self, forensic_store):
        store, ids = forensic_store
        server = AsyncObservatoryServer(
            EventStore(store.root, readonly=True)).start()
        try:
            client = ObservatoryClient(server.url)
            document = client.forensics(ids[0])
            assert document["outbreak_id"] == ids[0]
            expected = json.loads(
                fetch(server.url, forensics_path(ids[0]))[2])
            assert document == expected
        finally:
            server.stop()


class TestVerdicts:
    def _event(self, peers):
        payload = {"prefix": "2001:db8::/32", "announce_time": 100,
                   "collector": "rrc00", "peer_address": "2001:db8::2"}
        return {"outbreak_id": outbreak_id(payload), "prefix":
                payload["prefix"], "origin_asn": 1, "collector": "rrc00",
                "peer_address": "2001:db8::2", "peer_asn": 3,
                "announce_time": 100, "withdraw_time": 1000,
                "detected_at": 7000, "seq": 0, "time": 7000, "peers": peers}

    def _peer(self, path, withdrawn_at=None, address="2001:db8::2"):
        return {"prefix": "2001:db8::/32", "collector": "rrc00",
                "peer_address": address, "peer_asn": 3, "path": path,
                "announced_at": 100, "withdrawn_at": withdrawn_at,
                "aggregator_asn": None, "aggregator_address": None}

    def test_all_withdrawn_means_no_evidence(self):
        body = render_forensics(self._event(
            [self._peer("3 2 1", withdrawn_at=900)]))
        assert body["root_cause"]["verdict"] == "no-evidence"
        assert body["root_cause"]["total_paths"] == 0

    def test_unrooted_paths_mean_no_evidence(self):
        body = render_forensics(self._event([self._peer("3 2 9")]))
        root_cause = body["root_cause"]
        assert root_cause["verdict"] == "no-evidence"
        assert root_cause["rooted_paths"] == 0
        assert root_cause["total_paths"] == 1

    def test_rooted_but_unattributable_means_no_suspect(self):
        body = render_forensics(self._event([
            self._peer("5 1", address="2001:db8::5"),
            self._peer("6 1", address="2001:db8::6")]))
        root_cause = body["root_cause"]
        assert root_cause["verdict"] == "no-suspect"
        assert root_cause["suspect"] is None
        assert root_cause["rooted_paths"] == 2

    def test_prepending_peer_does_not_become_the_suspect(self):
        body = render_forensics(self._event([
            self._peer("10 10 2 1", address="2001:db8::a"),
            self._peer("11 2 1", address="2001:db8::b")]))
        root_cause = body["root_cause"]
        assert root_cause["suspect"] == 2
        assert root_cause["verdict"] == "suspect"


def seed_federated_store(root, prefixes_per_shard=2, shards=3):
    """A store whose outbreak/forensics pairs land on every shard."""
    store = EventStore(root)
    ids = []
    wanted = {index: prefixes_per_shard for index in range(shards)}
    octet = 0
    while any(wanted.values()):
        octet += 1
        prefix = f"10.{octet}.0.0/16"
        index = shard_for(prefix, shards)
        if not wanted[index]:
            continue
        wanted[index] -= 1
        announce = 1_700_000_000 + octet * 3600
        payload = {"prefix": prefix, "announce_time": announce,
                   "collector": "rrc00",
                   "peer_address": f"2001:db8::{octet:x}"}
        identifier = outbreak_id(payload)
        ids.append(identifier)
        outbreak = dict(payload, id=identifier, peer_asn=3,
                        withdraw_time=announce + 900,
                        detected_at=announce + 7200,
                        path="3 2 1", stale=True)
        store.append("outbreak", outbreak["detected_at"], outbreak)
        store.append("forensics", outbreak["detected_at"], {
            "outbreak_id": identifier, "prefix": prefix, "origin_asn": 1,
            "collector": "rrc00", "peer_address": payload["peer_address"],
            "peer_asn": 3, "announce_time": announce,
            "withdraw_time": announce + 900,
            "detected_at": announce + 7200,
            "peers": [{"prefix": prefix, "collector": "rrc00",
                       "peer_address": payload["peer_address"],
                       "peer_asn": 3, "path": "3 2 1",
                       "announced_at": announce, "withdrawn_at": None,
                       "aggregator_asn": None,
                       "aggregator_address": None}]})
    store.sync()
    return store, ids


class TestFederation:
    @pytest.fixture()
    def world(self, tmp_path, monkeypatch):
        no_retries_no_breaker(monkeypatch)
        store, ids = seed_federated_store(tmp_path / "store")
        mono = AsyncObservatoryServer(
            EventStore(tmp_path / "store", readonly=True)).start()
        workers = [ShardWorker(tmp_path / "store", index, 3).start()
                   for index in range(3)]
        fed = FederatedObservatoryServer(
            [worker.url for worker in workers]).start()
        yield ids, mono, workers, fed
        fed.stop()
        for worker in workers:
            worker.stop()
        mono.stop()
        store.close()

    def test_snapshot_is_colocated_with_its_outbreak(self, tmp_path):
        """The snapshot's own prefix and the prefix its outbreak ID leads
        with route to the same shard, and that shard's views are the
        only ones holding it."""
        store, ids = seed_federated_store(tmp_path / "store")
        shards = [MaterializedViews(store, shard=(index, 3))
                  for index in range(3)]
        for views in shards:
            views.refresh()
        snapshots = list(store.events(kinds=("forensics",)))
        assert [event["outbreak_id"] for event in snapshots] == ids
        for event in snapshots:
            owner = shard_for(event["prefix"], 3)
            assert shard_for(outbreak_prefix(event["outbreak_id"]), 3) \
                == owner
            assert [views.forensics(event["outbreak_id"]) is not None
                    for views in shards] == [index == owner
                                             for index in range(3)]
        store.close()

    def test_routed_byte_identity_on_every_shard(self, world):
        ids, mono, _, fed = world
        owners = set()
        for identifier in ids:
            owners.add(shard_for(outbreak_prefix(identifier), 3))
            path = forensics_path(identifier)
            mono_status, _, mono_body = fetch(mono.url, path)
            fed_status, fed_headers, fed_body = fetch(fed.url, path)
            assert (fed_status, fed_body) == (mono_status, mono_body)
            assert fed_status == 200
            # The owner names the store's own position, so revalidation
            # against the federation 304s.
            status, _, body = fetch(
                fed.url, path, {"If-None-Match": fed_headers["ETag"]})
            assert status == 304 and body == b""
        assert owners == {0, 1, 2}  # the walk exercised every shard

    def test_unknown_and_malformed_ids_are_404_parity(self, world):
        ids, mono, _, fed = world
        for identifier in ("10.99.0.0%2F16~1~rrc00~2001%3Adb8%3A%3A1",
                           "not-an-outbreak-id"):
            path = "/outbreaks/" + identifier + "/forensics"
            mono_status, _, mono_body = fetch(mono.url, path)
            fed_status, _, fed_body = fetch(fed.url, path)
            assert (fed_status, fed_body) == (mono_status, mono_body)
            assert fed_status == 404

    def test_dead_owner_is_503_with_retry_after(self, world):
        ids, _, workers, fed = world
        by_owner = {shard_for(outbreak_prefix(i), 3): i for i in ids}
        workers[1].stop()
        status, headers, body = fetch(fed.url, forensics_path(by_owner[1]))
        assert status == 503
        assert headers[PARTIAL_HEADER] == "shard-01"
        assert int(headers["Retry-After"]) >= 1
        assert json.loads(body)["error"]
        # An outbreak owned by a living shard still answers in full.
        status, headers, _ = fetch(fed.url, forensics_path(by_owner[0]))
        assert status == 200
        assert PARTIAL_HEADER not in headers


class TestCompaction:
    def test_snapshots_survive_compaction(self, scenario, tmp_path):
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json")
        ingest.run()
        ingest.finish()
        before = list(ingest.store.events(kinds=("forensics",)))
        ingest.store.compact()
        after = list(ingest.store.events(kinds=("forensics",)))
        assert [event["outbreak_id"] for event in after] \
            == [event["outbreak_id"] for event in before]
        ingest.store.close()
