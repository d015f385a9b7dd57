"""Experiment parity of the zombie verdict across detector rewrites.

``GOLDEN`` was captured at the commit before batch ``ZombieDetector``
and ``StreamingDetector`` moved onto one evaluation core
(``python tests/test_core_detector_golden.py`` re-prints the table).
Each digest is the sha256 of a canonical rendering of the complete
:class:`DetectionResult` — every route's interval, peer, peer ASN,
``detected_at``, announcement timestamp and path, ``stale``; the four
count maps; ``visible_intervals`` in order — so a detector change that
moves any number an experiment table is built from moves a digest.
``GOLDEN_ARCHIVE`` pins the encoder side under both: the sha256 of the
campaign archive's ``.gz`` files, re-pinned when the writer stopped
writing ``.idx`` sidecars (the ``.gz`` bytes did not change).
``GOLDEN_STORE`` is the same for the live path: the event-store bytes
after a default-threshold ``ObservatoryIngest`` over the campaign world
written out as a RIS archive.  It was re-captured when the ingest's
resurrection monitor moved onto the batch §5.1 rule; the event list
changed by exactly two ``resurrection`` events (``2a0d:3dc1:43::/48``
and ``2a0d:3dc1:418::/48`` at ``rrc03/2001:db8:fe4d::feed``, withdrawn
and re-announced in second 1718695046 — a session reset the old monitor
read as zero quiet time).

The last two classes are the agreement ROADMAP 2(c) asks for: batch
``detect()`` and the ingest's ``outbreak`` events name the same routes
on the same archive bytes, and batch ``find_late_announcements`` +
``find_resurrections`` give the ingest's ``/resurrections`` rows.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import (
    DetectorConfig,
    LifespanTracker,
    ZombieDetector,
    find_late_announcements,
    find_resurrections,
)
from repro.experiments import campaign_run, replication_run
from repro.observatory import (
    EventStore,
    ObservatoryApp,
    ObservatoryIngest,
    build_synthetic_archive,
    load_scenario,
)
from repro.ris import Archive, ArchiveWriter
from repro.utils.timeutil import DAY, MINUTE

THRESHOLDS = (90, 120, 150, 170, 175, 180)
WORLDS = {
    "campaign": lambda: campaign_run(quick=True),
    "replication": lambda: replication_run("2018", days=4),
}


def _interval(interval):
    return [str(interval.prefix), interval.announce_time,
            interval.withdraw_time, interval.origin_asn, interval.discarded]


def render(result):
    """The complete result as canonical JSON text."""
    def pairs(mapping):
        return sorted([str(prefix), asn, n]
                      for (prefix, asn), n in mapping.items())

    def routers(mapping):
        return sorted([list(key), n] for key, n in mapping.items())

    return json.dumps({
        "outbreaks": [
            [_interval(outbreak.interval),
             [[list(route.peer), route.peer_asn, route.detected_at,
               route.announcement.timestamp,
               str(route.announcement.attributes.as_path), route.stale]
              for route in outbreak.routes]]
            for outbreak in result.outbreaks],
        "visible_intervals": [_interval(i) for i in result.visible_intervals],
        "visible_pairs": pairs(result.visible_pairs),
        "zombie_pairs": pairs(result.zombie_pairs),
        "router_visible": routers(result.router_visible),
        "router_zombies": routers(result.router_zombies),
    }, sort_keys=True)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cases():
    for world in WORLDS:
        for minutes in THRESHOLDS:
            for dedup in (True, False):
                for exclude_noisy in (False, True):
                    yield world, minutes, dedup, exclude_noisy


def case_name(world, minutes, dedup, exclude_noisy):
    return (f"{world}-{minutes}-{'dedup' if dedup else 'raw'}-"
            f"{'quiet' if exclude_noisy else 'all'}")


def detect(world, minutes, dedup, exclude_noisy):
    run = WORLDS[world]()
    config = DetectorConfig(
        threshold=minutes * MINUTE, dedup=dedup,
        excluded_peers=run.noisy_truth if exclude_noisy else frozenset())
    return ZombieDetector(config).detect(run.records, run.intervals)


# -- the campaign world as an on-disk archive -------------------------------

def write_campaign_archive(root):
    """The quick campaign's first three days (the 2-day beacon window
    plus a day for the last evaluations and a few RIB dumps' worth of
    lifespans) as a RIS archive."""
    run = campaign_run(quick=True)
    start, end = run.config.start, run.config.end + DAY
    writer = ArchiveWriter(root)
    by_collector = {}
    for record in run.records:
        if record.timestamp < end:
            by_collector.setdefault(record.collector, []).append(record)
    for collector, records in sorted(by_collector.items()):
        writer.write_updates(collector, records)
    for dump in run.rib_dumps(start, end):
        writer.write_rib(dump)


def archive_digest(root):
    """sha256 over the archive's ``.gz`` files, as written, in path
    order."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*.gz")):
        digest.update(str(path.relative_to(root)).encode() + b"\0"
                      + path.read_bytes())
    return digest.hexdigest()


def ingest_campaign(archive_root, work, threshold=90 * MINUTE):
    run = campaign_run(quick=True)
    store = EventStore(work / "store")
    ingest = ObservatoryIngest(
        Archive(archive_root), store, work / "ckpt.json", run.intervals,
        run.config.start, run.config.end + DAY, threshold=threshold)
    ingest.finish()
    return store


GOLDEN = {'campaign-120-dedup-all': 'c4ad54c09017e06f',
 'campaign-120-dedup-quiet': 'dc3d818d2c37c543',
 'campaign-120-raw-all': 'c4ad54c09017e06f',
 'campaign-120-raw-quiet': 'dc3d818d2c37c543',
 'campaign-150-dedup-all': '790cb6163a753e86',
 'campaign-150-dedup-quiet': '6020d905839b7a07',
 'campaign-150-raw-all': '790cb6163a753e86',
 'campaign-150-raw-quiet': '6020d905839b7a07',
 'campaign-170-dedup-all': 'c214cd7ee031022f',
 'campaign-170-dedup-quiet': 'addea5ad2817d173',
 'campaign-170-raw-all': 'c214cd7ee031022f',
 'campaign-170-raw-quiet': 'addea5ad2817d173',
 'campaign-175-dedup-all': 'd39fbf6c89265ece',
 'campaign-175-dedup-quiet': '37194796b58d482c',
 'campaign-175-raw-all': 'd39fbf6c89265ece',
 'campaign-175-raw-quiet': '37194796b58d482c',
 'campaign-180-dedup-all': 'a0cffb6ca59516fb',
 'campaign-180-dedup-quiet': '50b1c7b81b03d209',
 'campaign-180-raw-all': 'a0cffb6ca59516fb',
 'campaign-180-raw-quiet': '50b1c7b81b03d209',
 'campaign-90-dedup-all': 'ca275b975c6ff205',
 'campaign-90-dedup-quiet': '44cd1b96b747ae44',
 'campaign-90-raw-all': 'ca275b975c6ff205',
 'campaign-90-raw-quiet': '44cd1b96b747ae44',
 'replication-120-dedup-all': '5aef6d33632454e6',
 'replication-120-dedup-quiet': 'c5413cec88a234b8',
 'replication-120-raw-all': '7b2d46946966ad06',
 'replication-120-raw-quiet': '9afe5ea3baf512c1',
 'replication-150-dedup-all': 'dd15e449c7fc2565',
 'replication-150-dedup-quiet': 'ba32737066112235',
 'replication-150-raw-all': '756adcf0a98b082f',
 'replication-150-raw-quiet': '264c03914ee7974d',
 'replication-170-dedup-all': 'd3fdb99356d9656f',
 'replication-170-dedup-quiet': '393bf2523b03e93e',
 'replication-170-raw-all': '40bf2cac2c317700',
 'replication-170-raw-quiet': '2adfc279bbadbf70',
 'replication-175-dedup-all': 'af7a66dcf390569c',
 'replication-175-dedup-quiet': '99e8245bdf7146a1',
 'replication-175-raw-all': '267da8307ef26e3f',
 'replication-175-raw-quiet': 'ee979904c50734e8',
 'replication-180-dedup-all': 'de00ed1fc1139cf3',
 'replication-180-dedup-quiet': '4f79ddae959e0f0d',
 'replication-180-raw-all': 'f6dec8f78bbf888a',
 'replication-180-raw-quiet': '3b1af4fcb1309953',
 'replication-90-dedup-all': '21b9c4f39810ea31',
 'replication-90-dedup-quiet': '46f4196f1ff1228d',
 'replication-90-raw-all': '37323b3ade92b6d5',
 'replication-90-raw-quiet': 'bf26b208cb2765e5'}

GOLDEN_STORE = (
    "b01b217c9d1db6fabc45e3aefe4002d94a7f8a21ba295d71c190319ac4bbd024")

GOLDEN_ARCHIVE = (
    "a0acf136edb6c1626e81861c6fea1c8c74324f4be76e006bb5682aee9f653bea")


@pytest.fixture(scope="module")
def campaign_archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign-archive")
    write_campaign_archive(root)
    return root


@pytest.fixture(scope="module")
def campaign_store(campaign_archive, tmp_path_factory):
    """The default-threshold ingest of the campaign archive, shared by
    the tests that read it (none writes to it)."""
    store = ingest_campaign(campaign_archive,
                            tmp_path_factory.mktemp("campaign-ingest"))
    yield store
    store.close()


class TestGoldenDetectionResult:
    @pytest.mark.parametrize("case", list(cases()),
                             ids=lambda case: case_name(*case))
    def test_digest(self, case):
        assert digest(render(detect(*case))) == GOLDEN[case_name(*case)]


class TestGoldenArchiveBytes:
    def test_archive_bytes(self, campaign_archive):
        assert archive_digest(campaign_archive) == GOLDEN_ARCHIVE


class TestGoldenIngestStore:
    def test_store_bytes(self, campaign_store):
        assert hashlib.sha256(
            campaign_store.raw_bytes()).hexdigest() == GOLDEN_STORE


class TestThreePathsOneVerdict:
    @pytest.mark.parametrize("minutes", [90, 180])
    def test_batch_equals_ingest_outbreak_events(self, campaign_archive,
                                                 campaign_store, tmp_path,
                                                 minutes):
        run = campaign_run(quick=True)
        start, end = run.config.start, run.config.end + DAY
        records = list(Archive(campaign_archive).iter_updates(start, end))
        batch = ZombieDetector(DetectorConfig(
            threshold=minutes * MINUTE)).detect(records, run.intervals)
        expected = sorted(
            (str(route.prefix), route.interval.announce_time,
             route.peer[0], route.peer[1], route.peer_asn,
             route.detected_at, route.stale)
            for outbreak in batch.outbreaks for route in outbreak.routes)
        store = campaign_store if minutes == 90 else ingest_campaign(
            campaign_archive, tmp_path, threshold=minutes * MINUTE)
        events = sorted(
            (p["prefix"], p["announce_time"], p["collector"],
             p["peer_address"], p["peer_asn"], p["detected_at"], p["stale"])
            for p in store.events(kinds=("outbreak",)))
        if store is not campaign_store:
            store.close()
        assert expected and events == expected


def resurrection_rows(archive, intervals, start, end, store,
                      excluded_peers=frozenset()):
    """(batch, served): batch late announcements over the archive's
    updates plus batch dump-scale resurrections over its RIB dumps, and
    the ``/resurrections`` rows of the ingest that wrote ``store``."""
    late = find_late_announcements(archive.iter_updates(start, end),
                                   intervals)
    final_withdrawals = {}
    for interval in intervals:
        if not interval.discarded:
            final_withdrawals[interval.prefix] = max(
                interval.withdraw_time,
                final_withdrawals.get(interval.prefix, 0))
    lifespans = LifespanTracker().track(
        archive.iter_ribs(start, end), final_withdrawals, excluded_peers)
    batch = sorted(
        [("updates", str(e.prefix), e.reannounced_at, e.peer[0], e.peer[1],
          e.peer_asn, e.withdrawn_at, str(e.path)) for e in late]
        + [("rib", str(e.prefix), e.resurrected_at)
           for e in find_resurrections(lifespans.values())])
    rows = ObservatoryApp(store).handle("/resurrections", {})["resurrections"]
    served = sorted(
        (row["scale"], row["prefix"], row["time"], row["collector"],
         row["peer_address"], row["peer_asn"], row["withdrawn_at"],
         row["path"]) if row["scale"] == "updates"
        else ("rib", row["prefix"], row["time"]) for row in rows)
    return batch, served


class TestBatchEqualsIngestResurrections:
    def test_batch_equals_ingest_resurrection_rows(self, campaign_archive,
                                                   campaign_store):
        """The campaign archive: its three days hold late announcements
        and no dump-scale resurrection, on both sides."""
        run = campaign_run(quick=True)
        batch, served = resurrection_rows(
            Archive(campaign_archive), run.intervals, run.config.start,
            run.config.end + DAY, campaign_store)
        assert any(row[0] == "updates" for row in batch)
        assert served == batch

    def test_both_scales_on_the_synthetic_scenario(self, tmp_path):
        """The scripted observatory world resurrects at both scales."""
        built = build_synthetic_archive(tmp_path / "archive")
        config = load_scenario(built.scenario_path)
        store = EventStore(tmp_path / "store")
        ObservatoryIngest(
            Archive(built.root), store, tmp_path / "ckpt.json",
            config["intervals"], config["start"], config["end"],
            excluded_peers=config["excluded_peers"]).finish()
        batch, served = resurrection_rows(
            Archive(built.root), config["intervals"], config["start"],
            config["end"], store, config["excluded_peers"])
        store.close()
        assert {row[0] for row in batch} == {"updates", "rib"}
        assert served == batch


if __name__ == "__main__":
    import pprint
    import tempfile
    from pathlib import Path

    table = {case_name(*case): digest(render(detect(*case)))
             for case in cases()}
    print("GOLDEN = ", end="")
    pprint.pprint(table)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        write_campaign_archive(scratch / "archive")
        print(f'GOLDEN_ARCHIVE = "{archive_digest(scratch / "archive")}"')
        store = ingest_campaign(scratch / "archive", scratch)
        print(f'GOLDEN_STORE = "'
              f'{hashlib.sha256(store.raw_bytes()).hexdigest()}"')
        store.close()
