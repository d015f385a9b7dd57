"""Orchestration of one benchmark run: set-up, the interleaved measured
phase, the report.  ``run.py`` is the command; this is what it runs once
it knows the program under test is there to import."""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import shutil
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.observatory import partition_store

import meter
from common import Context, Outcome
from inproc import (Fixture, IngestLeg, RescanLeg, SimLeg, StudyLeg,
                    compact_leg)
from kernel import REF_KERNEL_MS
from layers import layer_metrics, traced_extras
from serving import (Calibration, ClosedLeg, Helper, Http, LiveSession,
                     OpenLeg, Servers, StaticLeg, wait_ready)
from spans import NullTracer, Tracer
from stats import median
from worlds import (FULL_STORE, FULL_WORLD, QUICK_STORE, QUICK_WORLD,
                    build_store, build_world, combine_hashes, tree_digest,
                    url_schedule, write_archive)

__all__ = ["shares", "interleave", "run"]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Share of ``--seconds`` each leg gets when no leg is favoured, and the
#: legs each workload favours: their share is multiplied by ``FAVOUR``
#: and the lot renormalised.  The favoured legs get the most rounds and
#: so the tightest numbers; every other leg still gets enough rounds to
#: report its metrics within bounds.
BASE_SHARE = {"sim": 0.13, "study": 0.10, "rescan": 0.09, "ingest": 0.17,
              "static": 0.15, "open": 0.26, "closed": 0.10}
FAVOURED = {
    "sim_world": ("sim",),
    "archive_backfill": ("study", "rescan", "ingest"),
    "serve_live": ("open", "closed"),
    "fleet_read": ("static",),
}
FAVOUR = 1.6


def shares(workload: str) -> dict[str, float]:
    weight = {leg: part * (FAVOUR if leg in FAVOURED[workload] else 1.0)
              for leg, part in BASE_SHARE.items()}
    total = sum(weight.values())
    return {leg: part / total for leg, part in weight.items()}


#: Times the whole set-up is built per run; ``setup_s`` is the median.
SETUP_REPEATS = 2
SHARDS = 3
#: Share of ``--seconds`` the shared legs get in a traced run.
TRACED_SHARE = 0.7


def _pin() -> tuple[Optional[int], Optional[int]]:
    """Pin this process to the generator CPU; returns (generator CPU,
    system-under-test CPU).  With one CPU both share it; without
    affinity support nothing is pinned."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})
    except (AttributeError, OSError):
        return None, None
    return cpus[0], cpus[1] if len(cpus) > 1 else cpus[0]


def _header(args: argparse.Namespace, gen_cpu: Optional[int],
            sut_cpu: Optional[int]) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit, "python": platform.python_version(),
        "cpu_model": model, "kernel": platform.release(),
        "nproc": os.cpu_count(),
        "affinity": {"generator_cpu": gen_cpu, "sut_cpu": sut_cpu},
        "steal_share_since_boot": meter.steal_share(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        "ref_kernel_ms": REF_KERNEL_MS,
    }


async def _set_up(ctx, servers, rep_dir: Path) -> dict[str, Any]:
    """Everything before the first measured slice: world, archive,
    store, request schedule, shard partition, monolith, fleet, warm-up.
    Each phase is scaled by a kernel run at its boundary."""
    phases: dict[str, float] = {}
    wall: dict[str, float] = {}

    @contextmanager
    def phase(name: str) -> Iterator[None]:
        before = meter.calibrate()
        t0 = time.perf_counter()
        yield
        wall[name] = time.perf_counter() - t0
        around = (before + meter.calibrate(fresh=True)) / 2.0
        phases[name] = wall[name] * REF_KERNEL_MS / around

    with phase("world"):
        world = build_world(ctx.seed, ctx.world_spec)
    with phase("archive"):
        root = rep_dir / "archive"
        files = write_archive(world, root)
        digest, size = tree_digest(root, suffixes=(".gz",))
    with phase("store"):
        info = build_store(ctx.seed, rep_dir / "store", ctx.store_spec)
        schedule, schedule_digest = url_schedule(ctx.seed, info)
    with phase("partition"):
        with ctx.tracer.span("observatory.fleet.partition"):
            partition_store(info.root, rep_dir / "fleet", SHARDS)
    with phase("servers"):
        with ctx.tracer.span("observatory.fleet.start"):
            servers.start_monolith(info.root)
            servers.start_fleet(info.root, rep_dir / "fleet", SHARDS)
            await wait_ready(servers.ports["monolith"])
            await servers.wait_fleet(rep_dir / "fleet", SHARDS)
            servers.pin()
    with phase("warmup"):
        # Lazy set-up the users do not pay per request: the first
        # request of each kind builds the views on every server.
        for port in (servers.ports["monolith"], servers.ports["fleet"]):
            conn = await Http(port).open()
            try:
                for target in ("/zombies?limit=1", "/outbreaks?limit=1",
                               "/resurrections?limit=1"):
                    await conn.get(target)
            finally:
                await conn.close()
    return {
        "fixture": Fixture(world, root, digest, size, files),
        "info": info, "schedule": schedule,
        "hashes": {"archive": digest, "store": info.digest,
                   "schedule": schedule_digest},
        "setup_s": sum(phases.values()), "phases": phases, "wall": wall,
    }


async def interleave(legs: list, seconds: float, share: dict[str, float]
                     ) -> dict[str, float]:
    """Run the legs' rounds interleaved, for their shares of ``seconds``.

    The next round always goes to the leg furthest behind its share of
    the clock, so every leg's rounds are spread over the whole phase:
    the host's noisy spells last seconds, and a leg run in one piece
    would sit wholly inside or wholly outside one.  A leg gets another
    round only while a round of its average length still fits the time
    left (its ``minimum`` rounds always run); a leg with ``fixed_rounds``
    runs exactly that many.  Returns wall seconds per leg."""
    used = {leg.name: 0.0 for leg in legs}
    seconds *= sum(share[leg.name] for leg in legs)
    started = time.perf_counter()

    async def timed(leg, call) -> None:
        t0 = time.perf_counter()
        result = call()
        if asyncio.iscoroutine(result):
            await result
        used[leg.name] += time.perf_counter() - t0

    def wants(leg) -> bool:
        if leg.fixed_rounds is not None:
            return leg.rounds < leg.fixed_rounds
        if leg.rounds < leg.minimum:
            return True
        average = used[leg.name] / leg.rounds
        return time.perf_counter() - started + average <= seconds

    for leg in legs:
        await timed(leg, leg.start)
    while True:
        ready = [leg for leg in legs if wants(leg)]
        if not ready:
            break
        behind = min(ready, key=lambda leg: (leg.rounds >= leg.minimum,
                                             used[leg.name]
                                             / share[leg.name]))
        await timed(behind, behind.step)
    for leg in legs:
        await timed(leg, leg.finish)
    return used


async def run(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    gen_cpu, sut_cpu = _pin()
    workdir = BENCH_DIR / "out" / f"run-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    ctx = Context(
        seed=args.seed,
        world_spec=QUICK_WORLD if args.quick else FULL_WORLD,
        store_spec=QUICK_STORE if args.quick else FULL_STORE,
        workdir=workdir, gen_cpu=gen_cpu, sut_cpu=sut_cpu,
        tracer=Tracer() if args.trace else NullTracer())
    header = _header(args, gen_cpu, sut_cpu)
    out = Outcome()
    servers = Servers(ctx)
    helper = Helper(ctx)
    started = time.perf_counter()
    try:
        servers.start_keep_awake()
        # -- set-up, SETUP_REPEATS times; the last one is kept ----------
        setups = []
        for repeat in range(1 if args.quick else SETUP_REPEATS):
            if setups:
                servers.stop_all()
                shutil.rmtree(workdir / f"setup-{repeat - 1}")
            ctx.tracer.group = f"setup#{repeat}"
            setups.append(await _set_up(ctx, servers,
                                        workdir / f"setup-{repeat}"))
        built = setups[-1]
        for earlier in setups[:-1]:
            out.check(earlier["hashes"] == built["hashes"],
                      "the same seed generated different inputs")
        fixture, info, schedule = (built["fixture"], built["info"],
                                   built["schedule"])
        out.hashes = built["hashes"]
        out.metrics["setup_s"] = median([s["setup_s"] for s in setups])
        out.raw["setup_s"] = median([sum(s["wall"].values())
                                     for s in setups])
        out.details["setup"] = {
            "repeats": len(setups),
            "norm_s": [s["setup_s"] for s in setups],
            "phases_norm_s": built["phases"], "phases_wall_s": built["wall"],
            "records": len(fixture.world.records),
            "rib_dumps": len(fixture.world.dumps),
            "archive_files": fixture.files,
            "archive_bytes": fixture.archive_bytes,
            "store_events_appended": info.events,
            "store_events_stored": info.stored,
            "store_prefixes": len(info.prefixes),
            "schedule_urls": len(schedule),
            "distinct_urls": len({target for target, _ in schedule})}
        await helper.start()

        # -- the measured phase -----------------------------------------
        # A traced run also runs the extra legs of layers.py, so the
        # shared legs get less of the clock.
        seconds = args.seconds * (TRACED_SHARE if ctx.traced else 1.0)
        share = shares(args.workload)
        measured = time.perf_counter()
        calibration = Calibration(helper)
        study = StudyLeg(ctx, out, fixture)
        used = await interleave([
            study,  # first: the other legs check against its findings
            SimLeg(ctx, out, fixture),
            RescanLeg(ctx, out, fixture, study),
            IngestLeg(ctx, out, fixture, study),
            StaticLeg(ctx, out, servers, calibration, schedule),
        ], seconds, share)
        compact_leg(ctx, info, out)
        if ctx.traced:
            lap = time.perf_counter()
            traced_extras(ctx, fixture, study.first, info, schedule, out)
            used["traced_extras"] = time.perf_counter() - lap
        # The fleet tails the source store; it is done, and must not
        # compete with the monolith for the CPU once appends start.
        servers.stop("fleet")
        session = LiveSession(ctx, out, servers, calibration, info,
                              schedule)
        await session.open()
        try:
            used.update(await interleave([
                OpenLeg(ctx, out, session, seconds * share["open"]),
                ClosedLeg(ctx, out, session, seconds * share["closed"]),
            ], seconds, share))
        finally:
            await session.close()
        out.details["legs_wall_s"] = used
        out.details["measured_wall_s"] = time.perf_counter() - measured
    finally:
        await helper.stop()
        servers.stop_all()
        servers.stop_keep_awake()
        shutil.rmtree(workdir, ignore_errors=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = servers.peak_child_rss_mb()
    out.metrics["peak_rss_mb"] = max(own, children)
    out.details["peak_rss_mb"] = {"benchmark_process": own,
                                  "largest_server_process": children}
    out.details["kernel_ms"] = {
        "ref": REF_KERNEL_MS,
        "in_process_median": median(meter.SAMPLES_MS),
        "helper_median": median(helper.samples_ms)
        if helper.samples_ms else None}
    out.details["total_wall_s"] = time.perf_counter() - started

    if ctx.traced:
        out.layers = layer_metrics(ctx, out)
        ctx.tracer.dump(BENCH_DIR / "out" / (
            f"trace-{args.workload}-seed{args.seed}.json"))
    wanted = contract["per_layer" if ctx.traced else "end_to_end"]
    values = out.layers if ctx.traced else out.metrics
    for metric in wanted:
        out.check(metric["name"] in values,
                  f"metric {metric['name']} was not measured")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    report = {
        "header": header,
        "workload_hash": combine_hashes(out.hashes),
        "input_hashes": out.hashes,
        "correct": out.correct, "attempted": out.attempted,
        "failed": out.failed, "violations": out.violations,
        "metrics": metrics, "raw_wall_metrics": out.raw,
        "details": out.details,
    }
    (BENCH_DIR / "out" / (f"result-{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")).write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str),
        encoding="utf-8")
    print(json.dumps(report, indent=1, sort_keys=True, default=str))
    print(json.dumps({"correct": out.correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


