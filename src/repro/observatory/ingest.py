"""Incremental, checkpointed ingest: archive → detectors → event store.

The engine tails an on-disk RIS archive through the indexed read path
(:class:`repro.ris.Archive`), interleaves the update stream with the
8-hourly RIB dump stream, and feeds three incremental consumers:

* :class:`~repro.core.detector.IntervalEvaluator` — §3.1 zombie
  routes at withdrawal + threshold (``outbreak`` events), read straight
  from its verdicts: the same core batch ``ZombieDetector`` runs;
* :class:`~repro.core.resurrection.ResurrectionMonitor` — update-scale
  §5.1 late announcements (``resurrection`` events), the same core
  batch ``find_late_announcements`` runs;
* :class:`~repro.core.lifespan.LifespanSession` — dump-scale presence /
  lifespans (cumulative ``lifespan`` events, resurrections flagged).

Determinism is the load-bearing property.  The archive merge order is
total (``record_sort_key``), dumps are fed by the fixed rule "every dump
with timestamp <= the next record's timestamp goes first", and every
event append is a pure function of the consumed stream position.  So a
checkpoint of (stream watermarks, snapshots, events-appended) plus
:meth:`EventStore.truncate` back to the checkpoint makes a killed and
resumed ingest produce a byte-identical store to an uninterrupted one —
the property the round-trip tests assert.

The engine is also the one writer of alert events: every ``outbreak``
is appended with the ``forensics`` snapshot that documents it, and
every late announcement as one ``resurrection`` event.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Union

from repro.beacons.schedule import BeaconInterval
from repro.core.detector import DetectorConfig, IntervalEvaluator
from repro.core.lifespan import LifespanSession
from repro.core.outbreaks import ZombieRoute
from repro.core.resurrection import (
    DEFAULT_MIN_OFFSET,
    LateAnnouncement,
    ResurrectionMonitor,
)
from repro.core.state import PeerKey
from repro.mrt.tabledump import RibDump
from repro.net.prefix import Prefix
from repro.observatory.checkpoint import load_checkpoint, save_checkpoint
from repro.observatory.forensics import (
    LastAnnouncementRing,
    forensics_payload,
    outbreak_id,
)
from repro.observatory.store import EventStore
from repro.ris.archive import Archive
from repro.utils.timeutil import MINUTE

__all__ = ["ObservatoryIngest"]


class ObservatoryIngest:
    """One ingest session over the window ``[start, end)``.

    Constructing the engine either starts fresh (registering every
    beacon interval with the detector and the monitor, and writing the
    zero-record checkpoint every later restart restores to) or — when
    ``checkpoint_path`` holds a checkpoint — resumes: the detector,
    monitor and lifespan session are restored from their snapshots, the
    event store is rolled back to the checkpointed event count, and the
    archive streams are re-opened at the watermarks.
    """

    def __init__(self, archive: Archive, store: EventStore,
                 checkpoint_path: Union[str, Path],
                 intervals: Iterable[BeaconInterval],
                 start: int, end: int,
                 threshold: int = 90 * MINUTE, dedup: bool = True,
                 excluded_peers: frozenset[PeerKey] = frozenset(),
                 min_offset: int = DEFAULT_MIN_OFFSET,
                 checkpoint_every: int = 1000):
        self.archive = archive
        self.store = store
        self.checkpoint_path = Path(checkpoint_path)
        self.intervals = sorted(
            (i for i in intervals if not i.discarded),
            key=lambda i: (i.announce_time, str(i.prefix)))
        self.start = start
        self.end = end
        self.threshold = threshold
        self.dedup = dedup
        self.excluded_peers = excluded_peers
        self.min_offset = min_offset
        self.checkpoint_every = checkpoint_every

        self.records_ingested = 0
        self.dumps_ingested = 0
        self.finished = False
        self.counters: dict[str, int] = {
            "outbreak_events": 0,
            "forensics_events": 0,
            "resurrection_events": 0,
            "lifespan_events": 0,
            "rib_resurrection_events": 0,
            "checkpoints_written": 0,
        }
        self._updates_watermark: Optional[int] = None
        self._updates_at_watermark = 0
        self._ribs_watermark: Optional[int] = None
        self._ribs_at_watermark = 0
        self._updates: Optional[Iterator] = None
        self._dumps: Optional[Iterator[RibDump]] = None
        self._next_dump: Optional[RibDump] = None

        document = load_checkpoint(self.checkpoint_path)
        if document is not None:
            self._restore(document)
        else:
            self._fresh()

    # -- construction -----------------------------------------------------

    def _fresh(self) -> None:
        self.detector = IntervalEvaluator(DetectorConfig(
            threshold=self.threshold, dedup=self.dedup,
            excluded_peers=self.excluded_peers))
        self.monitor = ResurrectionMonitor(self.min_offset)
        for interval in self.intervals:
            self.detector.add_interval(interval)
            self.monitor.add_interval(interval)
        self.session = LifespanSession(
            self._final_withdrawals(), excluded_peers=self.excluded_peers,
            min_stuck=self.threshold)
        self.ring = LastAnnouncementRing(
            prefixes=self._watched_prefixes(),
            excluded_peers=self.excluded_peers)
        # Anchor recovery before the first record: a pass killed ahead
        # of its first periodic checkpoint must restore to *this* store
        # position, not start fresh again on top of what it appended.
        self.checkpoint()

    def _watched_prefixes(self) -> set[str]:
        return {str(interval.prefix) for interval in self.intervals}

    def _final_withdrawals(self) -> dict[Prefix, int]:
        out: dict[Prefix, int] = {}
        for interval in self.intervals:
            current = out.get(interval.prefix, 0)
            out[interval.prefix] = max(current, interval.withdraw_time)
        return out

    def _restore(self, document: dict[str, Any]) -> None:
        if document["window"] != [self.start, self.end]:
            raise ValueError(
                f"checkpoint window {document['window']} does not match "
                f"configured window {[self.start, self.end]}")
        self.detector = IntervalEvaluator.from_snapshot(document["detector"])
        self.monitor = ResurrectionMonitor.from_snapshot(document["monitor"])
        self.session = LifespanSession.from_snapshot(document["lifespans"])
        updates = document["updates"]
        self._updates_watermark = updates["watermark"]
        self._updates_at_watermark = updates["at_watermark"]
        self.records_ingested = updates["ingested"]
        ribs = document["ribs"]
        self._ribs_watermark = ribs["watermark"]
        self._ribs_at_watermark = ribs["at_watermark"]
        self.dumps_ingested = ribs["ingested"]
        self.finished = document["finished"]
        self.counters.update(document["counters"])
        ring = document.get("ring")  # absent in pre-forensics checkpoints
        if ring is not None:
            self.ring = LastAnnouncementRing.from_snapshot(
                ring, prefixes=self._watched_prefixes(),
                excluded_peers=self.excluded_peers)
        else:
            self.ring = LastAnnouncementRing(
                prefixes=self._watched_prefixes(),
                excluded_peers=self.excluded_peers)
        # Roll the store back to the exact checkpointed position; the
        # re-ingested suffix then re-emits the dropped events verbatim.
        self.store.truncate(document["events_appended"])

    # -- stream positioning ----------------------------------------------

    def _update_stream(self) -> Iterator:
        watermark = self._updates_watermark
        skip = self._updates_at_watermark if watermark is not None else 0
        first = self.start if watermark is None else watermark
        for record in self.archive.iter_updates(first, self.end):
            if skip and record.timestamp == watermark:
                skip -= 1
                continue
            yield record

    def _dump_stream(self) -> Iterator[RibDump]:
        watermark = self._ribs_watermark
        skip = self._ribs_at_watermark if watermark is not None else 0
        first = self.start if watermark is None else watermark
        for dump in self.archive.iter_ribs(first, self.end):
            if skip and dump.timestamp == watermark:
                skip -= 1
                continue
            yield dump

    def _advance_dump(self) -> None:
        if self._dumps is None:
            self._dumps = self._dump_stream()
        self._next_dump = next(self._dumps, None)

    def _feed_dumps(self, limit: Optional[int]) -> None:
        """Ingest every pending dump with timestamp <= ``limit``
        (all remaining dumps when ``limit`` is None)."""
        if self._dumps is None:
            self._advance_dump()
        while self._next_dump is not None and (
                limit is None or self._next_dump.timestamp <= limit):
            self._ingest_dump(self._next_dump)
            self._advance_dump()

    # -- ingestion --------------------------------------------------------

    def _ingest_record(self, record) -> None:
        # Detector first, ring second: a forensics snapshot reflects
        # every record *before* the one whose arrival triggered the
        # evaluation.  That is the interval's whole window — records
        # stamped at the evaluation instant are inside it, so they are
        # in the ring — and nothing past it.
        for _, _, routes in self.detector.observe(record):
            for route in routes:
                self._append_outbreak(route)
        self.ring.observe(record)
        late = self.monitor.observe(record)
        if late is not None:
            self._append_resurrection(late)
        if record.timestamp == self._updates_watermark:
            self._updates_at_watermark += 1
        else:
            self._updates_watermark = record.timestamp
            self._updates_at_watermark = 1
        self.records_ingested += 1

    def _ingest_dump(self, dump: RibDump) -> None:
        deltas = self.session.observe(dump)
        self._append_lifespans(deltas)
        if dump.timestamp == self._ribs_watermark:
            self._ribs_at_watermark += 1
        else:
            self._ribs_watermark = dump.timestamp
            self._ribs_at_watermark = 1
        self.dumps_ingested += 1

    def _append_outbreak(self, route: ZombieRoute) -> None:
        path = route.zombie_path
        payload = {
            "prefix": str(route.prefix),
            "collector": route.peer[0],
            "peer_address": route.peer[1],
            "peer_asn": route.peer_asn,
            "announce_time": route.interval.announce_time,
            "withdraw_time": route.interval.withdraw_time,
            "detected_at": route.detected_at,
            "path": str(path) if path is not None else None,
            "stale": route.stale,
        }
        payload["id"] = outbreak_id(payload)
        self.store.append("outbreak", route.detected_at, payload)
        self.counters["outbreak_events"] += 1
        # Freeze the pre-outbreak ring state right next to the outbreak
        # it documents: same deterministic stream position, so the
        # kill-resume byte-identity proof covers it unchanged.
        self.store.append(
            "forensics", route.detected_at,
            forensics_payload(payload, route.interval.origin_asn, self.ring))
        self.counters["forensics_events"] += 1

    def _append_resurrection(self, late: LateAnnouncement) -> None:
        self.store.append("resurrection", late.reannounced_at, {
            "prefix": str(late.prefix),
            "collector": late.peer[0],
            "peer_address": late.peer[1],
            "peer_asn": late.peer_asn,
            "withdrawn_at": late.withdrawn_at,
            "resurrected_at": late.reannounced_at,
            "quiet_seconds": late.quiet_seconds,
            "path": str(late.path),
        })
        self.counters["resurrection_events"] += 1

    def _append_lifespans(self, deltas) -> None:
        for delta in deltas:
            lifespan = self.session.lifespan_for(delta.prefix)
            payload = {
                "prefix": str(delta.prefix),
                "visible": delta.visible,
                "started_segment": delta.started_segment,
                "resurrection": delta.resurrection,
                "peers": sorted([c, a] for c, a in delta.peers),
                "withdraw_time": lifespan.withdraw_time,
                "first_seen": lifespan.first_seen,
                "last_seen": lifespan.last_seen,
                "duration_seconds": lifespan.duration_seconds,
                "segment_count": len(lifespan.segments),
                "resurrection_count": lifespan.resurrection_count,
            }
            self.store.append("lifespan", delta.instant, payload)
            self.counters["lifespan_events"] += 1
            if delta.resurrection:
                self.counters["rib_resurrection_events"] += 1

    # -- driving ----------------------------------------------------------

    def run(self, max_records: Optional[int] = None) -> int:
        """Consume up to ``max_records`` further update records (all of
        them when None), feeding dumps as their instants are passed;
        returns how many records were ingested.  A periodic checkpoint
        is written every ``checkpoint_every`` records."""
        if self._updates is None:
            self._updates = self._update_stream()
        ingested = 0
        while max_records is None or ingested < max_records:
            record = next(self._updates, None)
            if record is None:
                break
            self._feed_dumps(record.timestamp)
            self._ingest_record(record)
            ingested += 1
            if self.checkpoint_every \
                    and self.records_ingested % self.checkpoint_every == 0:
                self.checkpoint()
        return ingested

    def finish(self) -> None:
        """Drain both streams, commit the trailing lifespan instant,
        evaluate every detector deadline up to the window end, and
        checkpoint.  Idempotent."""
        if self.finished:
            return
        self.run()
        self._feed_dumps(None)
        self._append_lifespans(self.session.finalize())
        for _, _, routes in self.detector.advance(self.end):
            for route in routes:
                self._append_outbreak(route)
        self.finished = True
        self.checkpoint()

    def checkpoint(self) -> None:
        """Persist the complete resumable state (atomic)."""
        document = {
            "window": [self.start, self.end],
            "threshold": self.threshold,
            "min_offset": self.min_offset,
            "intervals": [i.to_json() for i in self.intervals],
            "updates": {"watermark": self._updates_watermark,
                        "at_watermark": self._updates_at_watermark,
                        "ingested": self.records_ingested},
            "ribs": {"watermark": self._ribs_watermark,
                     "at_watermark": self._ribs_at_watermark,
                     "ingested": self.dumps_ingested},
            "events_appended": self.store.next_seq,
            "finished": self.finished,
            "detector": self.detector.snapshot(),
            "monitor": self.monitor.snapshot(),
            "lifespans": self.session.snapshot(),
            "ring": self.ring.snapshot(),
            "counters": dict(self.counters),
        }
        save_checkpoint(self.checkpoint_path, document)
        self.store.sync()
        self.counters["checkpoints_written"] += 1

    def stats(self) -> dict[str, Any]:
        """Ingest counters for ``/metrics``."""
        return {
            "records_ingested": self.records_ingested,
            "dumps_ingested": self.dumps_ingested,
            "events_appended": self.store.next_seq,
            "pending_evaluations": self.detector.pending_evaluations,
            "finished": self.finished,
            "ring_entries": len(self.ring),
            "ring_evictions": self.ring.evictions,
            **self.counters,
        }
