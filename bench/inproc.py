"""The in-process legs: simulate, study, rescan, ingest, compact.

Each leg calls the program's public API directly from this process
(pinned to the generator CPU, with nothing else of ours running), times
every call as one :class:`meter.Meter` slice, and checks what came back.
A leg works in *rounds* — one pass, or one group of rescans — so that
``run.interleave`` can spread every leg's rounds over the whole measured
phase: a burst of host noise then costs each metric one round, not one
metric all of its rounds.

With ``--trace 1`` the same calls run under span wrappers bound on the
instance or the importing module for the length of a round
(``spans.Tracer.wrap``).
"""

from __future__ import annotations

import gc
import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import repro.observatory.colseg as colseg_module
import repro.observatory.ingest as ingest_module
import repro.ris.archive as archive_module
from repro.bgp.messages import UpdateRecord
from repro.bgpstream import compile_filter
from repro.core import (
    DetectorConfig,
    LifespanTracker,
    ZombieDetector,
    find_resurrections,
)
from repro.observatory import EventStore, ObservatoryIngest
from repro.ris import Archive
from repro.utils.timeutil import DAY, HOUR

from common import Context, Outcome
from meter import Meter
from stats import median, summary
from worlds import (StoreInfo, World, build_world, tree_digest,
                    write_archive)

__all__ = ["Fixture", "SimLeg", "StudyLeg", "RescanLeg", "IngestLeg",
           "study_pass", "compact_leg"]

#: Update-window and dump-window lengths of one timed slice.
UPDATE_WINDOW = 8 * HOUR
DUMP_WINDOW = 5 * DAY
#: Records per ``ObservatoryIngest.run(max_records=…)`` slice.
INGEST_SLICE = 1000
#: A killed ingest pass dies when ``records_ingested`` reaches
#: KILL_FIRST, then every KILL_EVERY records after that — never on a
#: multiple of the default checkpoint_every=1000, so every resume
#: replays, and never before the first checkpoint exists (README.md,
#: "Known defects").
KILL_FIRST = 1250
KILL_EVERY = 410
#: Decoded files the rescan archive may keep (holds the whole window).
RESCAN_CACHE_FILES = 1024
#: Rescans per calibrated slice (one rescan is ~20 ms).
RESCAN_GROUP = 5


@dataclass
class Fixture:
    """The archive every read-side leg works on, built in set-up."""

    world: World
    root: Path
    digest: str
    archive_bytes: int
    files: int


class Leg:
    """One leg of the measured phase: ``start`` once, ``step`` per
    round, ``finish`` to report.  ``minimum`` rounds always run."""

    name = "leg"
    minimum = 1
    #: run exactly this many rounds, whatever the clock says.
    fixed_rounds: Optional[int] = None

    def __init__(self, ctx: Context, out: Outcome):
        self.ctx = ctx
        self.out = out
        self.rounds = 0

    def start(self) -> Any:
        return None

    def step(self) -> Any:
        raise NotImplementedError

    def finish(self) -> Any:
        raise NotImplementedError


# -- simulate --------------------------------------------------------------

class SimLeg(Leg):
    """World → archive passes; every pass must reproduce the set-up
    pass's archive byte for byte."""

    name = "sim"

    def __init__(self, ctx: Context, out: Outcome, fixture: Fixture):
        super().__init__(ctx, out)
        self.fixture = fixture
        self.meter = Meter(ctx.gen_cpu)
        self.records = 0

    def _timed(self, name: str, fn: Callable[[], Any]) -> Any:
        """The ``timed(name, fn)`` hook of :mod:`worlds`: one slice
        (and, traced, one span) per piece of generator work."""
        def run() -> Any:
            with self.ctx.tracer.span(name):
                return fn()
        return self.meter.timed(run)

    def step(self) -> None:
        tracer = self.ctx.tracer
        self.rounds += 1
        tracer.group = f"sim#{self.rounds}"
        tracer.wrap(archive_module, "write_updates_file", "mrt.encode")
        tracer.wrap(archive_module, "encode_rib_dump", "mrt.encode")
        root = self.ctx.workdir / f"sim-pass-{self.rounds}"
        try:
            world = build_world(self.ctx.seed, self.ctx.world_spec,
                                self._timed)
            files = write_archive(world, root, self._timed)
        finally:
            tracer.unwrap_all()
        self.meter.end_pass()
        digest, size = tree_digest(root, suffixes=(".gz",))
        if self.out.check(digest == self.fixture.digest,
                          f"sim pass {self.rounds}: archive bytes differ "
                          f"from the set-up pass"):
            self.records += len(world.records)
        tracer.count("topology.ases", world.ases)
        tracer.count("simulator.events", world.sim_events)
        tracer.count("simulator.rib_dumps", len(world.dumps))
        tracer.count("ris.files_written", files)
        tracer.count("ris.archive_bytes", size)
        tracer.count("sim.passes")
        shutil.rmtree(root)

    def finish(self) -> None:
        if self.records:
            self.out.metrics["sim_records_per_s"] = \
                self.records / self.meter.norm_s
            self.out.raw["sim_records_per_s"] = \
                self.records / self.meter.wall_s
        self.out.details["sim"] = {**self.meter.details(),
                                   "records": self.records}


# -- study -----------------------------------------------------------------

def _windows(start: int, end: int, step: int) -> list[tuple[int, int]]:
    edges = []
    while start < end:
        edges.append((start, min(start + step, end)))
        start += step
    return edges


def _study_digest(result, lifespans, resurrections) -> str:
    """A stable fingerprint of one study pass's findings."""
    digest = hashlib.sha256()
    for outbreak in result.outbreaks:
        digest.update(repr((str(outbreak.prefix),
                            outbreak.interval.announce_time,
                            sorted(str(r.peer) for r in outbreak.routes)
                            )).encode())
    for prefix in sorted(lifespans, key=str):
        spans = lifespans[prefix].segments
        digest.update(repr((str(prefix), [(s.start, s.end, sorted(s.peers))
                                          for s in spans])).encode())
    for event in resurrections:
        digest.update(repr((str(event.prefix), event.disappeared_after,
                            event.resurrected_at)).encode())
    return digest.hexdigest()


def study_pass(ctx: Context, fixture: Fixture, meter: Meter,
               workers: int = 1) -> dict[str, Any]:
    """One cold batch study: archive bytes → outbreaks + lifespans +
    resurrections.  Fresh ``Archive`` (cold cache) every pass."""
    world = fixture.world
    spec = world.spec
    tracer = ctx.tracer
    archive = Archive(fixture.root, workers=workers)
    tracer.wrap(archive, "iter_updates", "ris.iter_updates@study",
                iterator=True)
    tracer.wrap(archive, "iter_ribs", "ris.iter_ribs@study", iterator=True)
    records: list = []
    beacons_end = spec.end + UPDATE_WINDOW
    for lo, hi in (_windows(world.start, beacons_end, UPDATE_WINDOW)
                   + [(beacons_end, spec.horizon)]):
        meter.timed(lambda: records.extend(archive.iter_updates(lo, hi)))
    detector = ZombieDetector(DetectorConfig(dedup=True))
    tracer.wrap(detector, "detect", "core.detect")
    result = meter.timed(lambda: detector.detect(records, world.intervals))
    dumps: list = []
    for lo, hi in _windows(spec.start, spec.horizon, DUMP_WINDOW):
        meter.timed(lambda: dumps.extend(archive.iter_ribs(lo, hi)))
    tracker = LifespanTracker()
    tracer.wrap(tracker, "track", "core.lifespan")

    def lifespan_study() -> tuple[dict, list]:
        lifespans = tracker.track(dumps, world.final_withdrawals)
        with tracer.span("core.resurrection"):
            return lifespans, find_resurrections(lifespans.values())

    lifespans, resurrections = meter.timed(lifespan_study)
    meter.end_pass()
    return {"records": records, "result": result, "lifespans": lifespans,
            "resurrections": resurrections, "scan": archive.stats()["scan"],
            "rib_entries": sum(len(entries) for dump in dumps
                               for entries in dump.entries.values()),
            "fingerprint": _study_digest(result, lifespans, resurrections)}


class StudyLeg(Leg):
    """Cold study passes; every pass must find what the first found.
    ``first`` keeps the first pass's findings for the other legs."""

    name = "study"

    def __init__(self, ctx: Context, out: Outcome, fixture: Fixture):
        super().__init__(ctx, out)
        self.fixture = fixture
        self.meter = Meter(ctx.gen_cpu)
        self.counted = 0
        self.first: dict[str, Any] = {}

    def start(self) -> None:
        self.step()  # the legs started after this one read ``first``

    def step(self) -> None:
        tracer = self.ctx.tracer
        self.rounds += 1
        tracer.group = f"study#{self.rounds}"
        tracer.wrap(archive_module, "read_updates_file", "mrt.decode@study",
                    iterator=True)
        try:
            found = study_pass(self.ctx, self.fixture, self.meter)
        finally:
            tracer.unwrap_all()
        if not self.first:
            self.first = found
        if self.out.check(found["fingerprint"] == self.first["fingerprint"]
                          and len(found["records"])
                          == len(self.fixture.world.records),
                          f"study pass {self.rounds}: findings differ from "
                          f"the first pass"):
            self.counted += len(found["records"])
        tracer.count("ris.records", len(found["records"]))
        tracer.count("ris.files_opened", found["scan"]["files_decoded"])
        tracer.count("ris.index_skipped_files",
                     found["scan"]["files_skipped"])
        tracer.count("ris.rib_entries", found["rib_entries"])
        tracer.count("study.passes")

    def finish(self) -> None:
        out, meter, first = self.out, self.meter, self.first
        if self.counted:
            out.metrics["study_records_per_s"] = self.counted / meter.norm_s
            out.raw["study_records_per_s"] = self.counted / meter.wall_s
        zombies = sum(1 for l in first["lifespans"].values() if l.is_zombie)
        out.details["study"] = {
            **meter.details(), "records": self.counted,
            "outbreaks": first["result"].outbreak_count,
            "zombie_lifespans": zombies,
            "resurrections": len(first["resurrections"])}
        tracer = self.ctx.tracer
        tracer.count("core.outbreaks", first["result"].outbreak_count)
        tracer.count("core.zombie_lifespans", zombies)
        tracer.count("core.resurrections", len(first["resurrections"]))


# -- rescan ----------------------------------------------------------------

class RescanLeg(Leg):
    """Per-prefix push-down rescans over the full window on a warm
    archive (sidecar indexes + decoded-file cache): the
    ``zombie-record-finder`` question, asked once per outbreak prefix
    and then per beacon prefix.  Each must return exactly what a
    brute-force filter of the full decode returns."""

    name = "rescan"
    minimum = 4

    def __init__(self, ctx: Context, out: Outcome, fixture: Fixture,
                 study: "StudyLeg"):
        super().__init__(ctx, out)
        self.fixture = fixture
        self.study = study
        self.meter = Meter(ctx.gen_cpu)
        self.samples: list[float] = []
        self.raw: list[float] = []
        self.prefixes: list = []
        self.expected: dict[Any, list] = {}

    def start(self) -> None:
        world = self.fixture.world
        found = self.study.first  # the study leg's first pass has run
        for outbreak in found["result"].outbreaks:
            if outbreak.prefix not in self.prefixes:
                self.prefixes.append(outbreak.prefix)
        for interval in world.intervals:
            if not interval.discarded \
                    and interval.prefix not in self.prefixes:
                self.prefixes.append(interval.prefix)
        for record in found["records"]:
            if isinstance(record, UpdateRecord):
                self.expected.setdefault(record.prefix, []).append(record)
        self.archive = Archive(self.fixture.root,
                               cache_size=RESCAN_CACHE_FILES)
        for _ in self.archive.iter_updates(world.start, world.spec.horizon):
            pass  # warm: every file decoded once into the cache
        self.warm = self.archive.stats()

    def _rescan(self, prefix: Any) -> list:
        world = self.fixture.world
        return list(self.archive.iter_updates(
            world.start, world.spec.horizon,
            record_filter=compile_filter(f"prefix exact {prefix}")))

    def step(self) -> None:
        tracer = self.ctx.tracer
        group = [self.prefixes[(self.rounds * RESCAN_GROUP + i)
                               % len(self.prefixes)]
                 for i in range(RESCAN_GROUP)]
        self.rounds += 1
        tracer.group = f"rescan#{self.rounds}"
        tracer.wrap(self.archive, "iter_updates", "ris.iter_updates@rescan",
                    iterator=True)
        try:
            found = self.meter.timed_many(
                [lambda prefix=prefix: self._rescan(prefix)
                 for prefix in group])
        finally:
            tracer.unwrap_all()
        self.meter.end_pass()
        for index, prefix in enumerate(group):
            expected = self.expected.get(prefix, [])
            if self.out.check(found[index] == expected,
                              f"rescan of {prefix}: {len(found[index])} "
                              f"records, brute force finds {len(expected)}"):
                self.samples.append(self.meter.last_norm_s[index] * 1e3)
                self.raw.append(self.meter.last_wall_s[index] * 1e3)

    def finish(self) -> None:
        after, warm = self.archive.stats(), self.warm
        tracer = self.ctx.tracer
        tracer.count("ris.cache_hits",
                     after["cache"]["hits"] - warm["cache"]["hits"])
        tracer.count("ris.cache_misses",
                     after["cache"]["misses"] - warm["cache"]["misses"])
        tracer.count("ris.rescan_files_considered",
                     after["scan"]["files_considered"]
                     - warm["scan"]["files_considered"])
        tracer.count("ris.rescan_files_opened",
                     after["scan"]["files_decoded"]
                     - warm["scan"]["files_decoded"])
        if self.samples:
            self.out.metrics["rescan_p50_ms"] = median(self.samples)
            self.out.raw["rescan_p50_ms"] = median(self.raw)
        self.out.details["rescan"] = {
            **self.meter.details(), "norm_ms": summary(self.samples),
            "prefixes": len(self.prefixes)}


# -- ingest ----------------------------------------------------------------

class IngestLeg(Leg):
    """Archive bytes → durable events, default ``checkpoint_every``.

    Passes alternate: uninterrupted, then killed at ``KILL_FIRST`` and
    every ``KILL_EVERY`` records after it and resumed from the
    checkpoint.  Every pass ends in ``finish()`` and must leave the
    bytes the first pass left.
    """

    name = "ingest"
    minimum = 2

    def __init__(self, ctx: Context, out: Outcome, fixture: Fixture,
                 study: "StudyLeg"):
        super().__init__(ctx, out)
        self.fixture = fixture
        self.study = study
        self.run_meter = Meter(ctx.gen_cpu)
        self.resume_meter = Meter(ctx.gen_cpu)
        self.resume_samples: list[float] = []
        self.processed = 0
        self.replayed = 0
        self.reference: Optional[bytes] = None
        self.last_store: Optional[Path] = None
        self.stats: dict[str, Any] = {}

    def _make(self, store_dir: Path, checkpoint: Path) -> ObservatoryIngest:
        world = self.fixture.world
        tracer = self.ctx.tracer
        archive = Archive(self.fixture.root)
        tracer.wrap(archive, "iter_updates", "ris.iter_updates@ingest",
                    iterator=True)
        tracer.wrap(archive, "iter_ribs", "ris.iter_ribs@ingest",
                    iterator=True)
        store = EventStore(store_dir)
        ingest = ObservatoryIngest(archive, store, checkpoint,
                                   world.intervals, world.start,
                                   world.spec.horizon)
        tracer.wrap(ingest.detector, "observe", "realtime.observe")
        tracer.wrap(ingest.monitor, "observe", "realtime.observe")
        tracer.wrap(ingest.session, "observe", "core.lifespan_observe")
        tracer.wrap(ingest.ring, "observe", "observatory.forensics.ring")
        tracer.wrap(store, "append", "observatory.store.append")
        tracer.wrap(store, "sync", "observatory.store.sync")
        return ingest

    def step(self) -> None:
        tracer = self.ctx.tracer
        self.rounds += 1
        killed = self.rounds % 2 == 0
        tracer.group = f"ingest#{self.rounds}"
        tracer.wrap(ingest_module, "save_checkpoint",
                    "observatory.checkpoint.save")
        tracer.wrap(archive_module, "read_updates_file", "mrt.decode@ingest",
                    iterator=True)
        store_dir = self.ctx.workdir / f"ingest-store-{self.rounds}"
        checkpoint = self.ctx.workdir / f"ingest-ckpt-{self.rounds}.json"
        run_meter, resume_meter = self.run_meter, self.resume_meter
        pass_records = 0

        def construct() -> ObservatoryIngest:
            with tracer.span("observatory.ingest"):
                return self._make(store_dir, checkpoint)

        def resume() -> ObservatoryIngest:
            with tracer.span("observatory.ingest.restore"):
                revived = self._make(store_dir, checkpoint)
            with tracer.span("observatory.ingest"):
                revived.run(max_records=1)
            return revived

        try:
            ingest = run_meter.timed(construct)
            next_kill = KILL_FIRST
            while True:
                limit = INGEST_SLICE
                if killed:
                    limit = min(limit, next_kill - ingest.records_ingested)

                def advance() -> int:
                    with tracer.span("observatory.ingest"):
                        return ingest.run(max_records=limit)

                done = run_meter.timed(advance)
                pass_records += done
                if done < limit:
                    break
                if killed and ingest.records_ingested >= next_kill:
                    # kill -9: no finish(), no close(), no final
                    # checkpoint — the objects are simply gone.
                    before = ingest.records_ingested
                    del ingest
                    gc.collect()
                    ingest = resume_meter.timed(resume)
                    self.resume_samples.append(resume_meter.end_pass())
                    self.replayed += before - (ingest.records_ingested - 1)
                    pass_records += 1
                    next_kill += KILL_EVERY

            def finish() -> None:
                with tracer.span("observatory.ingest"):
                    ingest.finish()

            run_meter.timed(finish)
            run_meter.end_pass()
        finally:
            tracer.unwrap_all()
        produced = ingest.store.raw_bytes()
        if self.reference is None:
            self.reference = produced
        if self.out.check(
                produced == self.reference,
                f"ingest pass {self.rounds} "
                f"({'killed+resumed' if killed else 'uninterrupted'}): "
                f"store bytes differ from the first pass"):
            self.processed += pass_records
        self.stats = stats = ingest.stats()
        tracer.count("observatory.checkpoint.saves",
                     stats["checkpoints_written"])
        tracer.count("observatory.checkpoint.bytes",
                     checkpoint.stat().st_size * stats["checkpoints_written"])
        tracer.count("observatory.forensics.ring_evictions",
                     stats["ring_evictions"])
        tracer.count("realtime.alerts", stats["outbreak_events"]
                     + stats["resurrection_events"])
        tracer.count("ingest.records", pass_records)
        tracer.count("observatory.store.bytes_written", len(produced))
        tracer.count("ingest.passes")
        ingest.store.close()
        if self.last_store is not None:
            shutil.rmtree(self.last_store)
        self.last_store = store_dir

    def finish(self) -> None:
        out, tracer = self.out, self.ctx.tracer
        tracer.count("observatory.ingest.replayed_records", self.replayed)
        # Batch and streaming detectors on the same archive: reported,
        # not gated (gating is ROADMAP item 4b).
        batch = {(str(o.prefix), o.interval.announce_time)
                 for o in self.study.first["result"].outbreaks}
        store = EventStore(self.last_store)
        streamed = {(e["prefix"], e["announce_time"])
                    for e in store.events(kinds=("outbreak",))}
        store.close()
        tracer.count("core.batch_vs_ingest_mismatches",
                     len(batch ^ streamed))
        out.details["batch_vs_ingest_mismatches"] = len(batch ^ streamed)
        if self.processed:
            out.metrics["ingest_records_per_s"] = \
                self.processed / self.run_meter.norm_s
            out.raw["ingest_records_per_s"] = \
                self.processed / self.run_meter.wall_s
        if self.resume_samples:
            out.metrics["resume_s"] = median(self.resume_samples)
            out.raw["resume_s"] = median(self.resume_meter.pass_wall_s)
        out.details["ingest"] = {
            **self.run_meter.details(), "records": self.processed,
            "events": self.stats.get("events_appended"),
            "checkpoints_per_pass": self.stats.get("checkpoints_written"),
            "replayed_records": self.replayed}
        out.details["resume"] = {**self.resume_meter.details(),
                                 "norm_s": summary(self.resume_samples)}


# -- compact ---------------------------------------------------------------

def compact_leg(ctx: Context, info: StoreInfo, out: Outcome) -> None:
    """One ``compact(fmt="columnar")`` of a copy of the serving store,
    for ``store_bytes_per_event``: directory bytes ÷ surviving events.

    The ingest leg's own store holds a few dozen events, where the
    manifest outweighs the events; the serving store holds a thousand,
    in the same four kinds, so the ratio says something about the
    format.  An exact count: the same seed gives the same bytes."""
    root = ctx.workdir / "compact-store"
    shutil.copytree(info.root, root)
    store = EventStore(root, segment_max_records=info.spec.segment_records)
    ctx.tracer.group = "compact"
    ctx.tracer.wrap(store, "compact", "observatory.store.compact")
    ctx.tracer.wrap(colseg_module, "write_segment",
                    "observatory.colseg.write")
    meter = Meter(ctx.gen_cpu)
    try:
        kept = meter.timed(lambda: store.compact(fmt="columnar"))
        meter.end_pass()
    finally:
        ctx.tracer.unwrap_all()
    survivors = sum(1 for _ in store.events())
    store.close()
    _, store_bytes = tree_digest(root)
    _, colseg_bytes = tree_digest(root, suffixes=(".colseg",))
    if out.check(survivors == kept["kept"] and kept["kept"] > 0,
                 f"compaction kept {kept['kept']} events but "
                 f"{survivors} are readable"):
        out.metrics["store_bytes_per_event"] = store_bytes / kept["kept"]
    ctx.tracer.count("observatory.colseg.bytes", colseg_bytes)
    out.details["compact"] = {**meter.details(), **kept,
                              "store_bytes": store_bytes,
                              "colseg_bytes": colseg_bytes}
    shutil.rmtree(root)
