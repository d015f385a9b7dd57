"""Per-layer metrics: the trace-only legs and the roll-up.

``--trace 1`` runs the same legs as an untraced run under span wrappers,
then the extra legs here — measurements only a layer's owner cares
about (an isolated MRT decode replay, the process-pool decode, a view
rebuild, the request sequence replayed in-process through
``ObservatoryApp.respond``, exact call counts under ``cProfile``) and
one untraced study and ingest pass, against which the traced passes
give ``trace.overhead_pct``.  :func:`layer_metrics` then names every
number ``layer.metric``.

Times are seconds per pass (per request where the name says ``ms``),
counts are per pass, so a longer run reports the same numbers.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import replace
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.bgpstream import BGPStream
from repro.mrt.files import read_updates_file
from repro.observatory import (
    EventStore,
    MaterializedViews,
    ObservatoryApp,
    ObservatoryIngest,
)
from repro.ris import Archive

from common import Context, Outcome
from inproc import Fixture, study_pass
from kernel import REF_KERNEL_MS
from meter import Meter, calibrate
from spans import NullTracer, profile_calls_by_package
from stats import median
from worlds import StoreInfo

__all__ = ["traced_extras", "layer_metrics"]

#: Requests of the schedule replayed in-process.
REPLAY_REQUESTS = 200


def _plain_ingest(ctx: Context, fixture: Fixture, tag: str) -> float:
    """One uninterrupted, untraced ingest pass; normalised seconds."""
    world = fixture.world
    store_dir = ctx.workdir / f"extra-store-{tag}"
    checkpoint = ctx.workdir / f"extra-ckpt-{tag}.json"
    meter = Meter(ctx.gen_cpu)
    ingest = meter.timed(lambda: ObservatoryIngest(
        Archive(fixture.root), EventStore(store_dir), checkpoint,
        world.intervals, world.start, world.spec.horizon))
    while meter.timed(lambda: ingest.run(max_records=1000)) == 1000:
        pass
    meter.timed(ingest.finish)
    ingest.store.close()
    shutil.rmtree(store_dir)
    checkpoint.unlink()
    return meter.end_pass()


def traced_extras(ctx: Context, fixture: Fixture, study: dict[str, Any],
                  info: StoreInfo, schedule: list[tuple[str, bool]],
                  out: Outcome) -> None:
    tracer = ctx.tracer
    world = fixture.world
    spec = world.spec
    extras: dict[str, Any] = {}
    plain = replace(ctx, tracer=NullTracer())  # same run, no wrappers

    # -- tracing overhead: the same passes with no wrapper installed ----
    study_meter = Meter(ctx.gen_cpu)
    study_pass(plain, fixture, study_meter)
    extras["untraced_study_norm_s"] = study_meter.norm_s
    extras["untraced_ingest_norm_s"] = _plain_ingest(ctx, fixture, "plain")

    # -- mrt: every update file decoded on its own, nothing else --------
    tracer.group = "extra:mrt"
    files = []
    for collector in Archive(fixture.root).collectors():
        files += [(path, collector) for path in Archive(
            fixture.root).update_files(collector, world.start, spec.horizon)]
    meter = Meter(ctx.gen_cpu)
    decoded = 0
    for offset in range(0, len(files), 40):
        chunk = files[offset:offset + 40]
        decoded += meter.timed(lambda: sum(
            1 for path, collector in chunk
            for _ in read_updates_file(path, collector)))
    extras["mrt.decode_s"] = meter.end_pass()
    extras["mrt.bytes_read"] = sum(path.stat().st_size for path, _ in files)
    out.check(decoded == len(world.records),
              f"isolated decode replay read {decoded} records of "
              f"{len(world.records)}")

    # -- ris: the process-pool decode (ROADMAP: measure or delete) ------
    tracer.group = "extra:workers2"
    meter = Meter(ctx.gen_cpu)
    pooled = study_pass(plain, fixture, meter, workers=2)
    extras["ris.iter_updates_workers2_s"] = meter.norm_s
    out.check(pooled["fingerprint"] == study["fingerprint"],
              "study over the 2-worker decode differs from the sequential "
              "one")

    # -- bgpstream: records -> elems ------------------------------------
    tracer.group = "extra:bgpstream"
    meter = Meter(ctx.gen_cpu)
    stream = BGPStream(Archive(fixture.root), world.start, spec.horizon)
    elems = meter.timed(lambda: sum(1 for _ in stream))
    extras["bgpstream.elems_s"] = meter.end_pass()
    extras["bgpstream.elems"] = elems

    # -- exact call counts, one study + one ingest pass -----------------
    tracer.group = "extra:profile"
    rolled = profile_calls_by_package(lambda: (
        study_pass(plain, fixture, Meter(ctx.gen_cpu)),
        _plain_ingest(ctx, fixture, "profile")))
    # Both passes read every record once.
    extras["calls_per_record"] = {
        label: calls / (2 * len(world.records))
        for label, calls in rolled.items()}

    # -- store and views over the static serving store ------------------
    tracer.group = "extra:store"
    store = EventStore(info.root, readonly=True)
    meter = Meter(ctx.gen_cpu)
    scanned = meter.timed(lambda: sum(1 for _ in store.events()))
    extras["observatory.store.events_scan_s"] = meter.end_pass()
    out.check(scanned == info.stored,
              f"store scan found {scanned} events of {info.stored}")
    meter = Meter(ctx.gen_cpu)
    views = MaterializedViews(store)
    meter.timed(views.refresh)
    extras["observatory.views.rebuild_s"] = meter.end_pass()
    compacted = ctx.workdir / "extra-colseg-store"
    shutil.copytree(info.root, compacted)
    columnar = EventStore(compacted,
                          segment_max_records=info.spec.segment_records)
    columnar.compact(fmt="columnar")
    meter = Meter(ctx.gen_cpu)
    meter.timed(lambda: sum(1 for _ in columnar.events()))
    extras["observatory.colseg.scan_s"] = meter.end_pass()
    columnar.close()
    shutil.rmtree(compacted)

    # -- server: the request sequence replayed through respond() --------
    tracer.group = "extra:respond"
    app = ObservatoryApp(store)
    tracer.wrap(app, "respond", "observatory.server.respond")
    tracer.wrap(app.views, "refresh", "observatory.views.refresh")
    etags: dict[str, str] = {}
    respond_ms: list[float] = []
    statuses: dict[int, int] = {}
    try:
        for offset in range(0, REPLAY_REQUESTS, 20):
            factor = REF_KERNEL_MS / calibrate()
            for target, conditional in schedule[offset:offset + 20]:
                url = urlsplit(target)
                params = parse_qs(url.query)
                etag = etags.get(target) if conditional else None
                t0 = time.perf_counter()
                status, headers, _ = app.respond(url.path, params, etag)
                respond_ms.append((time.perf_counter() - t0) * 1e3 * factor)
                statuses[status] = statuses.get(status, 0) + 1
                for name, value in headers:
                    if name == "ETag":
                        etags[target] = value
    finally:
        tracer.unwrap_all()
    extras["observatory.server.respond_p50_ms"] = median(respond_ms)
    extras["respond_statuses"] = statuses
    store.close()
    out.details["extras"] = extras


def layer_metrics(ctx: Context, out: Outcome) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``, from the spans, the
    counts taken at the same boundaries, and the extra legs."""
    tracer = ctx.tracer
    counts = tracer.counts
    extras = out.details["extras"]
    details = out.details

    def self_s(*names: str) -> float:
        return sum(tracer.self_s(name) for name in names)

    def per(count: str, passes: str) -> float:
        return counts.get(count, 0.0) / max(1.0, counts.get(passes, 0.0))

    sim = max(1.0, counts.get("sim.passes", 0.0))
    study = max(1.0, counts.get("study.passes", 0.0))
    ingest = max(1.0, counts.get("ingest.passes", 0.0))
    ingest_records = max(1.0, counts.get("ingest.records", 0.0))
    static_reads = max(1.0, counts.get("static.reads", 0.0))
    live_requests = max(1.0, counts.get("observatory.server.requests", 0.0))

    ingest_spans = (
        "observatory.ingest", "observatory.ingest.restore",
        "ris.iter_updates@ingest", "ris.iter_ribs@ingest",
        "mrt.decode@ingest", "realtime.observe", "core.lifespan_observe",
        "observatory.forensics.ring", "observatory.store.append",
        "observatory.store.sync", "observatory.checkpoint.save")
    study_spans = ("ris.iter_updates@study", "ris.iter_ribs@study",
                   "mrt.decode@study", "core.detect", "core.lifespan",
                   "core.resurrection")
    ingest_wall = details["ingest"]["wall_s"] + details["resume"]["wall_s"]
    study_wall = details["study"]["wall_s"]
    ingest_attributed = self_s(*ingest_spans)
    study_attributed = self_s(*study_spans)

    # Traced against untraced, per study pass and per ingested record
    # (the traced ingest passes also replay records after each kill).
    records = details["setup"]["records"]
    traced = (details["study"]["norm_s"] / study
              + details["ingest"]["norm_s"] / ingest_records * records)
    untraced = (extras["untraced_study_norm_s"]
                + extras["untraced_ingest_norm_s"])
    overhead = traced / untraced - 1.0

    respond_total = sum(extras["respond_statuses"].values())
    mono_static = counts.get("static.monolith_ms", 0.0)
    fed_p50 = out.metrics.get("fed_read_p50_ms", 0.0)
    layers = {
        # producer side, per sim pass
        "topology.build_s": self_s("topology.build") / sim,
        "topology.ases": per("topology.ases", "sim.passes"),
        "simulator.run_s": self_s("simulator.run",
                                  "simulator.assemble") / sim,
        "simulator.events": per("simulator.events", "sim.passes"),
        "simulator.ribgen_s": self_s("simulator.ribgen") / sim,
        "simulator.rib_dumps": per("simulator.rib_dumps", "sim.passes"),
        "mrt.encode_s": self_s("mrt.encode") / sim,
        "ris.write_s": self_s("ris.write") / sim,
        "ris.files_written": per("ris.files_written", "sim.passes"),
        "ris.archive_bytes": per("ris.archive_bytes", "sim.passes"),
        # archive read path, per study pass
        "ris.iter_updates_s": self_s("ris.iter_updates@study") / study,
        "ris.records": per("ris.records", "study.passes"),
        "ris.files_opened": per("ris.files_opened", "study.passes"),
        "ris.cache_hits": counts.get("ris.cache_hits", 0.0),
        "ris.cache_misses": counts.get("ris.cache_misses", 0.0),
        "ris.index_skipped_files": per("ris.index_skipped_files",
                                       "study.passes"),
        "ris.iter_ribs_s": self_s("ris.iter_ribs@study") / study,
        "ris.rib_entries": per("ris.rib_entries", "study.passes"),
        "ris.iter_updates_workers2_s": extras["ris.iter_updates_workers2_s"],
        "ris.rescan_files_opened_share": (
            counts.get("ris.rescan_files_opened", 0.0)
            / max(1.0, counts.get("ris.rescan_files_considered", 0.0))),
        "mrt.decode_s": extras["mrt.decode_s"],
        "mrt.bytes_read": extras["mrt.bytes_read"],
        "bgpstream.elems_s": extras["bgpstream.elems_s"],
        "bgpstream.elems": extras["bgpstream.elems"],
        # detectors
        "core.detect_s": self_s("core.detect") / study,
        "core.outbreaks": counts.get("core.outbreaks", 0.0),
        "core.lifespan_s": self_s("core.lifespan",
                                  "core.resurrection") / study,
        "core.zombie_lifespans": counts.get("core.zombie_lifespans", 0.0),
        "core.resurrections": counts.get("core.resurrections", 0.0),
        "core.batch_vs_ingest_mismatches": counts.get(
            "core.batch_vs_ingest_mismatches", 0.0),
        "realtime.observe_s": self_s("realtime.observe") / ingest,
        "realtime.alerts": per("realtime.alerts", "ingest.passes"),
        "core.lifespan_observe_s": self_s("core.lifespan_observe") / ingest,
        # ingest, per ingest pass
        "observatory.ingest.self_s": self_s("observatory.ingest") / ingest,
        "observatory.ingest.unattributed_s": max(
            0.0, ingest_wall - ingest_attributed) / ingest,
        "observatory.ingest.decode_s": self_s("mrt.decode@ingest") / ingest,
        "observatory.ingest.read_s": self_s("ris.iter_updates@ingest",
                                            "ris.iter_ribs@ingest") / ingest,
        "observatory.ingest.restore_s": (
            self_s("observatory.ingest.restore")
            / max(1, tracer.calls("observatory.ingest.restore"))),
        "observatory.ingest.replayed_records": counts.get(
            "observatory.ingest.replayed_records", 0.0),
        "observatory.checkpoint.save_s": self_s(
            "observatory.checkpoint.save") / ingest,
        "observatory.checkpoint.saves": tracer.calls(
            "observatory.checkpoint.save") / ingest,
        "observatory.checkpoint.bytes_per_record": counts.get(
            "observatory.checkpoint.bytes", 0.0) / ingest_records,
        "observatory.forensics.ring_s": self_s(
            "observatory.forensics.ring") / ingest,
        "observatory.forensics.ring_evictions": per(
            "observatory.forensics.ring_evictions", "ingest.passes"),
        "observatory.store.append_s": self_s(
            "observatory.store.append") / ingest,
        "observatory.store.appends": tracer.calls(
            "observatory.store.append") / ingest,
        "observatory.store.sync_s": self_s("observatory.store.sync") / ingest,
        "observatory.store.syncs": tracer.calls(
            "observatory.store.sync") / ingest,
        "observatory.store.bytes_written": per(
            "observatory.store.bytes_written", "ingest.passes"),
        "observatory.store.compact_s": self_s("observatory.store.compact"),
        "observatory.store.events_scan_s": extras[
            "observatory.store.events_scan_s"],
        "observatory.colseg.write_s": self_s("observatory.colseg.write"),
        "observatory.colseg.bytes": counts.get("observatory.colseg.bytes",
                                               0.0),
        "observatory.colseg.scan_s": extras["observatory.colseg.scan_s"],
        # serving
        "observatory.views.refresh_s": self_s(
            "observatory.views.refresh") / max(1, respond_total),
        "observatory.views.refreshes": counts.get(
            "observatory.views.refreshes", 0.0),
        "observatory.views.events_folded": counts.get(
            "observatory.views.events_folded", 0.0),
        "observatory.views.rebuild_s": extras["observatory.views.rebuild_s"],
        "observatory.server.respond_p50_ms": extras[
            "observatory.server.respond_p50_ms"],
        "observatory.server.response_cache_hit_share": counts.get(
            "observatory.server.response_cache_hits", 0.0) / live_requests,
        "observatory.server.not_modified_share": counts.get(
            "observatory.server.not_modified", 0.0) / live_requests,
        "observatory.server.bytes_out": counts.get("live.bytes_in", 0.0),
        "observatory.asyncserver.transport_p50_ms": (
            mono_static - extras["observatory.server.respond_p50_ms"]),
        "observatory.asyncserver.responses_dropped": counts.get(
            "observatory.asyncserver.responses_dropped", 0.0),
        "observatory.stream.events_sent": counts.get(
            "observatory.stream.events_sent", 0.0),
        "observatory.stream.lagged": counts.get(
            "observatory.stream.lagged", 0.0),
        "observatory.stream.resets": counts.get(
            "observatory.stream.resets", 0.0),
        "observatory.stream.deliver_p95_ms": counts.get(
            "observatory.stream.deliver_p95_ms", 0.0),
        "generator.late_p90_ms": counts.get("generator.late_p90_ms", 0.0),
        # fleet and federation
        "observatory.fleet.partition_s": tracer.total_s(
            "observatory.fleet.partition") / max(1, tracer.calls(
                "observatory.fleet.partition")),
        "observatory.fleet.start_s": tracer.total_s(
            "observatory.fleet.start") / max(1, tracer.calls(
                "observatory.fleet.start")),
        "observatory.fleet.shard_cpu_ms_per_read": counts.get(
            "observatory.fleet.shard_cpu_ms", 0.0) / static_reads,
        "observatory.federation.edge_cpu_ms_per_read": counts.get(
            "observatory.federation.edge_cpu_ms", 0.0) / static_reads,
        "observatory.federation.shard_requests_per_read": counts.get(
            "observatory.federation.shard_requests", 0.0) / static_reads,
        "observatory.federation.partial_responses": counts.get(
            "observatory.federation.partial_responses", 0.0),
        "observatory.federation.retried_connects": counts.get(
            "observatory.federation.retried_connects", 0.0),
        "observatory.federation.overhead_x": (
            fed_p50 / mono_static if mono_static else 0.0),
        "observatory.federation.cold_overhead_x": counts.get(
            "static.cold_overhead_x", 0.0),
        # the trace itself
        "trace.study_attributed_share": study_attributed / study_wall,
        "trace.ingest_attributed_share": ingest_attributed / ingest_wall,
        "trace.overhead_pct": overhead * 100.0,
    }
    for label, calls in extras["calls_per_record"].items():
        layers[f"calls_per_record.{label}"] = calls
    return layers
