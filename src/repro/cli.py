"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``report``       regenerate every table/figure (paper-vs-measured text)
``campaign``     run the 2024 beacon campaign and print §5 results
``replication``  run the §3 replication periods and print Tables 1-4
``detect``       run the revised detector over an on-disk RIS archive
``observatory``  the long-running detection service (§6):
                 ``synth`` / ``ingest`` / ``serve`` / ``tail`` /
                 ``query`` / ``forensics`` / ``compact`` / ``doctor`` /
                 ``fleet {serve,status,worker}``

Anticipated operator errors (missing paths, malformed times, bad
filters) exit with code 2 and a one-line message, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A First Look into Long-lived BGP "
                    "Zombies' (IMC 2025)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="regenerate all tables/figures")
    report.add_argument("--quick", action="store_true",
                        help="small world and short windows (~30 s)")
    report.add_argument("--days", type=int, default=6,
                        help="days per replication period (default 6)")

    campaign = sub.add_parser("campaign", help="2024 beacon campaign (§5)")
    campaign.add_argument("--full", action="store_true",
                          help="full 18-day campaign at paper scale")

    replication = sub.add_parser("replication",
                                 help="replication of the previous study (§3)")
    replication.add_argument("--days", type=int, default=5)
    replication.add_argument("--period", choices=["2018", "2017-oct",
                                                  "2017-mar", "all"],
                             default="all")

    detect = sub.add_parser(
        "detect", help="detect zombies in an on-disk RIS archive")
    detect.add_argument("archive", help="archive root directory")
    detect.add_argument("--from-time", required=True,
                        help="window start, e.g. '2024-06-04 00:00'")
    detect.add_argument("--until-time", required=True)
    detect.add_argument("--beacons", choices=["ris", "zombie-24h",
                                              "zombie-15d", "campaign"],
                        default="campaign",
                        help="which beacon schedule defines the intervals")
    detect.add_argument("--threshold-minutes", type=int, default=90)
    detect.add_argument("--no-dedup", action="store_true",
                        help="disable Aggregator double-count elimination")
    detect.add_argument("--filter", default=None,
                        help="BGPStream filter pushed down into the read "
                             "path, e.g. 'peer 25091 and ipversion 6'")
    detect.add_argument("--on-error", choices=["strict", "skip", "quarantine"],
                        default="skip",
                        help="poison-record policy: fail fast, skip and "
                             "count (default), or skip and preserve raw "
                             "bytes in a .quarantine sidecar")

    observatory = sub.add_parser(
        "observatory", help="long-running zombie detection service (§6)")
    obs = observatory.add_subparsers(dest="observatory_command", required=True)

    synth = obs.add_parser(
        "synth", help="build a scripted synthetic campaign archive")
    synth.add_argument("archive", help="archive root directory to create")
    synth.add_argument("--days", type=int, default=2,
                       help="beacon days to script (default 2)")

    ingest = obs.add_parser(
        "ingest", help="tail an archive into the event store (resumable)")
    ingest.add_argument("archive", help="archive root directory")
    ingest.add_argument("store", help="event store directory")
    ingest.add_argument("--checkpoint", default=None,
                        help="checkpoint file (default <store>/checkpoint.json)")
    ingest.add_argument("--scenario", default=None,
                        help="scenario.json describing window + intervals "
                             "(default <archive>/scenario.json)")
    ingest.add_argument("--checkpoint-every", type=int, default=1000,
                        help="records between periodic checkpoints")
    ingest.add_argument("--max-records", type=int, default=None,
                        help="stop after N records (resume later); not "
                             "with --supervise")
    ingest.add_argument("--on-error",
                        choices=["strict", "skip", "quarantine"],
                        default="skip",
                        help="poison-record policy for the decode path "
                             "(default skip)")
    ingest.add_argument("--supervise", action="store_true",
                        help="run under the crash-restarting supervisor "
                             "(restores from the checkpoint after a crash)")
    ingest.add_argument("--max-restarts", type=int, default=None,
                        help="with --supervise: consecutive crashes "
                             "tolerated before the supervisor gives up "
                             "(default 5)")
    ingest.add_argument("--serve-port", type=int, default=None,
                        help="with --supervise: also serve /healthz and "
                             "/metrics on this port while ingesting")

    doctor = obs.add_parser(
        "doctor", help="fsck an event store: verify and repair segments")
    doctor.add_argument("store", help="event store directory")
    doctor.add_argument("--check", action="store_true",
                        help="report only; do not repair anything")

    serve = obs.add_parser(
        "serve", help="serve the JSON/metrics API over an event store")
    serve.add_argument("store", help="event store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8480)

    tail = obs.add_parser(
        "tail", help="follow a served observatory's live event stream")
    tail.add_argument("url", help="observatory base URL")
    tail.add_argument("--what", choices=["events", "outbreaks",
                                         "resurrections"],
                      default="events",
                      help="which stream to follow (default events)")
    tail.add_argument("--cursor", default=None,
                      help="resume token '<generation>:<next_seq>' from "
                           "a previous run")
    tail.add_argument("--from-seq", type=int, default=None,
                      help="replay history from this seq before going "
                           "live (default: live tail only)")
    tail.add_argument("--max-events", type=int, default=None,
                      help="exit after printing N events")
    tail.add_argument("--state", default=None,
                      help="persist the resume token to this file after "
                           "every event; an existing file resumes the "
                           "stream exactly where the last run stopped")
    tail.add_argument("--no-reconnect", action="store_true",
                      help="exit at the first disconnect instead of "
                           "resuming with the last token")
    tail.add_argument("--idle-timeout", type=float, default=60.0,
                      help="declare the server dead after this many "
                           "seconds without frames (heartbeats count)")

    query = obs.add_parser("query", help="the rows GET /<what> returns, "
                                         "answered offline from a store")
    query.add_argument("store", help="event store directory")
    query.add_argument("what", choices=["outbreaks", "resurrections",
                                        "zombies"])
    query.add_argument("--prefix", default=None)
    query.add_argument("--since", type=int, default=None)
    query.add_argument("--until", type=int, default=None)
    query.add_argument("--limit", type=int, default=None,
                       help="print at most N rows; a resume cursor goes "
                            "to stderr when more remain")
    query.add_argument("--cursor", default=None,
                       help="resume strictly after this cursor (from a "
                            "previous --limit run)")

    forensics = obs.add_parser(
        "forensics", help="the pre-outbreak snapshot for one outbreak: "
                          "per-peer last paths, aggregator clock decode, "
                          "suspect AS")
    forensics.add_argument("target",
                           help="observatory base URL (http://...) — "
                                "monolith or federated — or an event "
                                "store directory")
    forensics.add_argument("outbreak",
                           help="outbreak ID (the 'id' field of an "
                                "/outbreaks row)")

    compact = obs.add_parser(
        "compact", help="fold superseded lifespan events in a store")
    compact.add_argument("store", help="event store directory")
    compact.add_argument("--format", dest="fmt",
                         choices=["columnar", "jsonl"], default="columnar",
                         help="rewrite sealed history in this segment "
                              "format (default: columnar — binary "
                              "mmap-read .colseg files)")

    fleet = obs.add_parser(
        "fleet", help="sharded observatory: a supervised shard fleet plus "
                      "a fault-tolerant federated query tier")
    flt = fleet.add_subparsers(dest="fleet_command", required=True)

    fserve = flt.add_parser(
        "serve", help="serve a store from N shard workers and the "
                      "federated scatter-gather API in front of them")
    fserve.add_argument("store", help="event store every shard reads")
    fserve.add_argument("fleet_root", help="directory for worker logs")
    fserve.add_argument("--shards", type=int, default=3)
    fserve.add_argument("--host", default="127.0.0.1")
    fserve.add_argument("--port", type=int, default=8490,
                        help="federated query port (shard worker ports "
                             "are OS-assigned)")
    fserve.add_argument("--restart-backoff", type=float, default=0.2,
                        help="base delay before respawning a dead shard "
                             "(doubles per consecutive crash)")

    fstatus = flt.add_parser(
        "status", help="fleet-wide health of a running federated server")
    fstatus.add_argument("url", help="federated observatory base URL")

    fworker = flt.add_parser(
        "worker", help="one shard worker (normally spawned by the fleet "
                       "supervisor, not by hand)")
    fworker.add_argument("store", help="event store to serve a slice of")
    fworker.add_argument("--index", type=int, required=True)
    fworker.add_argument("--count", type=int, required=True)
    fworker.add_argument("--host", default="127.0.0.1")
    fworker.add_argument("--port", type=int, default=0)

    return parser


def _cmd_report(args) -> int:
    from repro.reporting import generate

    generate(quick=args.quick, days=args.days)
    return 0


def _cmd_campaign(args) -> int:
    from repro.experiments import (
        build_figure2,
        build_figure3,
        build_table5,
        campaign_run,
        render_figure2,
        render_figure3,
        render_table5,
    )

    run = campaign_run(quick=not args.full)
    print(f"{run.announcement_count} announcements, "
          f"{len(run.records)} records")
    print(render_figure2(build_figure2(
        run, thresholds_minutes=(90, 120, 150, 170, 175, 180))))
    print(render_table5(build_table5(run)))
    print(render_figure3(build_figure3(run)))
    return 0


def _cmd_replication(args) -> int:
    from repro.experiments import (
        build_table1,
        build_table2,
        build_table4,
        render_table1,
        render_table2,
        render_table4,
        replication_run,
        replication_runs,
    )

    if args.period == "all":
        runs = replication_runs(days=args.days)
    else:
        runs = [replication_run(args.period, days=args.days)]
    print(render_table1(build_table1(runs)))
    print(render_table2(build_table2(runs)))
    for run in runs:
        if run.config.name == "2018":
            print(render_table4(build_table4(run)))
    return 0


def _cmd_detect(args) -> int:
    from repro.beacons import (
        PaperCampaign,
        RecycleApproach,
        RISBeaconSchedule,
        ZombieBeaconSchedule,
    )
    from repro.core import DetectorConfig, ZombieDetector
    from repro.ris import Archive
    from repro.utils.timeutil import MINUTE, from_iso

    start = from_iso(args.from_time)
    end = from_iso(args.until_time)
    schedules = {
        "ris": RISBeaconSchedule(),
        "zombie-24h": ZombieBeaconSchedule(RecycleApproach.DAILY),
        "zombie-15d": ZombieBeaconSchedule(RecycleApproach.FIFTEEN_DAYS),
        "campaign": PaperCampaign(),
    }
    schedule = schedules[args.beacons]
    intervals = list(schedule.intervals(start, end))
    if not intervals:
        print("no beacon intervals in the window", file=sys.stderr)
        return 1
    record_filter = None
    if args.filter:
        from repro.bgpstream import FilterError, compile_filter

        try:
            record_filter = compile_filter(args.filter)
        except FilterError as exc:
            print(f"bad --filter: {exc}", file=sys.stderr)
            return 2
    archive = Archive(args.archive, error_policy=args.on_error)
    records = list(archive.iter_updates(
        start, end + args.threshold_minutes * MINUTE + 3600,
        record_filter=record_filter))
    _print_decode_stats(archive)
    config = DetectorConfig(threshold=args.threshold_minutes * MINUTE,
                            dedup=not args.no_dedup)
    result = ZombieDetector(config).detect(records, intervals)
    print(f"intervals: {len(intervals)}, visible: {result.visible_count}, "
          f"outbreaks: {result.outbreak_count} "
          f"({result.outbreak_fraction():.2%})")
    for outbreak in result.outbreaks:
        subpath = " ".join(str(a) for a in outbreak.common_subpath())
        print(f"  {outbreak} | common subpath [{subpath}]")
    return 0


def _cmd_observatory(args) -> int:
    handlers = {
        "synth": _cmd_observatory_synth,
        "ingest": _cmd_observatory_ingest,
        "serve": _cmd_observatory_serve,
        "tail": _cmd_observatory_tail,
        "query": _cmd_observatory_query,
        "forensics": _cmd_observatory_forensics,
        "compact": _cmd_observatory_compact,
        "doctor": _cmd_observatory_doctor,
        "fleet": _cmd_observatory_fleet,
    }
    return handlers[args.observatory_command](args)


def _cmd_observatory_synth(args) -> int:
    from repro.observatory import build_synthetic_archive

    scenario = build_synthetic_archive(args.archive, days=args.days)
    print(f"wrote {scenario.record_count} records, "
          f"{len(scenario.intervals)} beacon intervals under {scenario.root}")
    print(f"scenario: {scenario.scenario_path}")
    for name, prefix in sorted(scenario.scripted.items()):
        print(f"  scripted {name}: {prefix}")
    return 0


def _load_scenario_for(args):
    from pathlib import Path

    from repro.observatory import load_scenario

    path = Path(args.scenario) if args.scenario \
        else Path(args.archive) / "scenario.json"
    if not path.exists():
        raise FileNotFoundError(f"no scenario file at {path} "
                                f"(pass --scenario explicitly)")
    return load_scenario(path)


def _cmd_observatory_ingest(args) -> int:
    from pathlib import Path

    from repro.observatory import EventStore, ObservatoryIngest
    from repro.ris import Archive

    # A flag of the other mode would be silently ignored: refuse it.
    if args.supervise and args.max_records is not None:
        print("ingest: --max-records does not combine with --supervise",
              file=sys.stderr)
        return 2
    if not args.supervise:
        for flag, value in (("--serve-port", args.serve_port),
                            ("--max-restarts", args.max_restarts)):
            if value is not None:
                print(f"ingest: {flag} needs --supervise", file=sys.stderr)
                return 2
    scenario = _load_scenario_for(args)
    checkpoint = Path(args.checkpoint) if args.checkpoint \
        else Path(args.store) / "checkpoint.json"
    store = EventStore(args.store)

    def make_ingest() -> ObservatoryIngest:
        return ObservatoryIngest(
            Archive(args.archive, error_policy=args.on_error),
            store, checkpoint, scenario["intervals"],
            scenario["start"], scenario["end"],
            threshold=scenario.get("threshold", 90 * 60),
            min_offset=scenario.get("min_offset", 120 * 60),
            excluded_peers=scenario.get("excluded_peers", frozenset()),
            checkpoint_every=args.checkpoint_every)

    if args.supervise:
        return _run_supervised(args, store, make_ingest)
    ingest = make_ingest()
    ingested = ingest.run(max_records=args.max_records)
    if args.max_records is None:
        ingest.finish()
    else:
        ingest.checkpoint()
    store.close()
    stats = ingest.stats()
    print(f"ingested {ingested} records this run "
          f"({stats['records_ingested']} total, "
          f"{stats['dumps_ingested']} dumps); "
          f"{stats['events_appended']} events in store; "
          f"finished={stats['finished']}")
    _print_decode_stats(ingest.archive)
    return 0


def _print_decode_stats(archive) -> None:
    decode = archive.decode_stats
    if not decode.clean:
        print(f"decode: {decode.records_skipped} record(s) skipped, "
              f"{decode.bytes_quarantined} byte(s) quarantined, "
              f"{decode.resyncs} resync(s), "
              f"{decode.files_with_errors} file(s) with errors",
              file=sys.stderr)


def _run_supervised(args, store, make_ingest) -> int:
    import signal
    import threading

    from repro.observatory import ObservatorySupervisor
    from repro.observatory.asyncserver import AsyncObservatoryServer

    options = {} if args.max_restarts is None \
        else {"max_restarts": args.max_restarts}
    supervisor = ObservatorySupervisor(make_ingest, **options)
    server = None
    stop = threading.Event()
    if args.serve_port is not None:
        # /healthz + /metrics, plus live /stream/* of exactly what
        # this supervised ingest appends; served until SIGTERM/SIGINT,
        # so the finished state stays readable.
        server = AsyncObservatoryServer(store, port=args.serve_port,
                                        supervisor=supervisor).start()
        print(f"observatory daemon serving on {server.url}", flush=True)

        def on_signal(signum, frame):
            stop.set()
            if not supervisor.finished:
                raise KeyboardInterrupt  # stop the ingest where it is

        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, on_signal)
    try:
        try:
            ok = supervisor.run()
        except KeyboardInterrupt:
            if server is None:
                raise
            ok = False
        stats = supervisor.stats()
        records = supervisor.ingest.records_ingested \
            if supervisor.ingest is not None else 0
        print(f"supervised ingest: state={stats['state']} "
              f"restarts={stats['restarts']} batches={stats['batches']} "
              f"records={records} "
              f"records_skipped={stats['records_skipped']} "
              f"bytes_quarantined={stats['bytes_quarantined']} "
              f"finished={stats['finished']}", flush=True)
        if stats["last_error"]:
            print(f"last error: {stats['last_error']}", file=sys.stderr)
        if supervisor.ingest is not None:
            _print_decode_stats(supervisor.ingest.archive)
        while server is not None and not stop.is_set():
            stop.wait(0.2)
    finally:
        if server is not None:
            server.stop()
        store.close()
    return 0 if ok else 1


def _doctor_exit(report, check: bool) -> int:
    """Print one fsck report and return its exit code."""
    mode = "check" if check else "repair"
    print(f"doctor ({mode}): {report.segments_checked} segment(s), "
          f"{report.events_checked} event(s) checked")
    for issue in report.issues:
        print(f"  ISSUE: {issue}", file=sys.stderr)
    for action in report.actions:
        print(f"  fixed: {action}")
    if report.clean:
        print("store is clean")
        return 0
    if report.unrecoverable:
        print(f"unrecoverable damage: {report.events_lost} event(s) lost",
              file=sys.stderr)
        return 1
    # Issues found; in repair mode they were all fixed without loss —
    # unless nothing could be done at all (e.g. the path is not a store).
    return 1 if check or not report.actions else 0


def _cmd_observatory_doctor(args) -> int:
    from repro.observatory import fsck

    return _doctor_exit(fsck(args.store, repair=not args.check), args.check)


def _cmd_observatory_serve(args) -> int:
    from repro.observatory import EventStore
    from repro.observatory.asyncserver import AsyncObservatoryServer

    store = EventStore(args.store, readonly=True)
    server = AsyncObservatoryServer(store, host=args.host, port=args.port)
    print(f"observatory listening on http://{args.host}:{args.port} "
          f"(streaming on /stream/*)", flush=True)
    try:
        # Installs SIGTERM/SIGINT handlers itself: on either it drains
        # in-flight requests, sends SSE subscribers a final frame, and
        # returns.
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_observatory_fleet(args) -> int:
    handlers = {
        "serve": _cmd_observatory_fleet_serve,
        "status": _cmd_observatory_fleet_status,
        "worker": _cmd_observatory_fleet_worker,
    }
    return handlers[args.fleet_command](args)


def _cmd_observatory_fleet_serve(args) -> int:
    from repro.observatory.federation import FederatedObservatoryServer
    from repro.observatory.fleet import ShardFleet

    fleet = ShardFleet(args.store, args.fleet_root, shards=args.shards,
                       host=args.host, backoff=args.restart_backoff)
    fleet.start()
    print(f"fleet: {args.shards} shard worker(s) over {args.store}, "
          f"logs under {args.fleet_root}", flush=True)
    server = FederatedObservatoryServer(
        fleet.shard_urls(), host=args.host, port=args.port, fleet=fleet)
    print(f"federated observatory listening on "
          f"http://{args.host}:{args.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        fleet.stop()
    return 0


def _cmd_observatory_fleet_status(args) -> int:
    import json

    from repro.observatory import ObservatoryClient

    client = ObservatoryClient(args.url)
    body = client.healthz()
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0 if body.get("status") == "ok" else 1


def _cmd_observatory_fleet_worker(args) -> int:
    from repro.observatory.fleet import ShardWorker

    worker = ShardWorker(args.store, args.index, args.count,
                         host=args.host, port=args.port)
    return worker.run_forever()


def _cmd_observatory_tail(args) -> int:
    import json

    from repro.observatory import (ObservatoryClient, ObservatoryError,
                                   ObservatoryUnreachable)

    cursor = args.cursor
    state_path = None
    if args.state is not None:
        from pathlib import Path

        state_path = Path(args.state)
        if cursor is None and state_path.exists():
            cursor = state_path.read_text().strip() or None
    client = ObservatoryClient(args.url)
    if args.max_events is not None and args.max_events <= 0:
        return 0  # nothing to wait for
    printed = 0
    try:
        for event in client.stream(args.what, cursor=cursor,
                                   from_seq=args.from_seq,
                                   reconnect=not args.no_reconnect,
                                   idle_timeout=args.idle_timeout):
            if event.get("kind") == "reset":
                # History behind us was rewritten (truncate/compact):
                # flag it out-of-band so stdout stays a pure event feed.
                print(f"reset: generation={event['generation']} "
                      f"next_seq={event['next_seq']}", file=sys.stderr)
            else:
                print(json.dumps(event, sort_keys=True), flush=True)
                printed += 1
            if state_path is not None and client.stream_token is not None:
                tmp = state_path.with_suffix(state_path.suffix + ".tmp")
                tmp.write_text(client.stream_token)
                tmp.replace(state_path)
            if args.max_events is not None and printed >= args.max_events:
                break
    except KeyboardInterrupt:
        pass
    except (ObservatoryError, ObservatoryUnreachable) as exc:
        print(f"tail: {exc}", file=sys.stderr)
        return 2
    if client.stream_token is not None:
        print(f"resume token: {client.stream_token}", file=sys.stderr)
    return 0


def _respond_offline(store_dir: str, path: str,
                     params: dict) -> tuple[int, dict]:
    """``(status, body)`` of one GET answered by the same
    :meth:`ObservatoryApp.respond` a server runs, on a readonly store."""
    import json

    from repro.observatory import EventStore, ObservatoryApp

    store = EventStore(store_dir, readonly=True)
    try:
        status, _, payload = ObservatoryApp(store).respond(path, params)
    finally:
        store.close()
    return status, json.loads(payload)


def _cmd_observatory_query(args) -> int:
    import json

    from repro.observatory.server import LISTINGS

    path = "/" + args.what
    listing = LISTINGS[path]
    accepted = {"limit", "cursor"} | {name for name, _ in listing.params}
    params = {}
    for name in ("prefix", "since", "until", "limit", "cursor"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in accepted:
            print(f"query {args.what}: --{name} is not a parameter of "
                  f"{path}", file=sys.stderr)
            return 2
        params[name] = [str(value)]
    status, body = _respond_offline(args.store, path, params)
    if status != 200:
        print(f"query {args.what}: {body['error']}", file=sys.stderr)
        return 2 if status < 500 else 1
    for row in body[listing.name]:
        print(json.dumps(row, sort_keys=True))
    if body.get("next_cursor") is not None:
        print(f"next cursor: {body['next_cursor']}", file=sys.stderr)
    return 0


def _cmd_observatory_forensics(args) -> int:
    import json

    if args.target.startswith(("http://", "https://")):
        from repro.observatory import (ObservatoryClient, ObservatoryError,
                                       ObservatoryUnreachable)

        client = ObservatoryClient(args.target)
        try:
            body = client.forensics(args.outbreak)
        except (ObservatoryError, ObservatoryUnreachable) as exc:
            print(f"forensics: {exc}", file=sys.stderr)
            return 2
    else:
        from urllib.parse import quote

        status, body = _respond_offline(
            args.target,
            f"/outbreaks/{quote(args.outbreak, safe='')}/forensics", {})
        if status != 200:
            print(f"forensics: {body['error']}", file=sys.stderr)
            return 2 if status < 500 else 1
    print(json.dumps(body, sort_keys=True))
    return 0


def _cmd_observatory_compact(args) -> int:
    from repro.observatory import EventStore

    # A readonly open refuses a path with no manifest; the writable
    # open below would create an empty store there instead.
    EventStore(args.store, readonly=True).close()
    store = EventStore(args.store)
    result = store.compact(fmt=args.fmt)
    formats = store.stats()["by_format"]
    store.close()
    mix = ", ".join(f"{count} {fmt}" for fmt, count in sorted(formats.items()))
    print(f"compacted: kept {result['kept']}, dropped {result['dropped']} "
          f"superseded lifespan event(s); segments: {mix or 'none'}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "report": _cmd_report,
        "campaign": _cmd_campaign,
        "replication": _cmd_replication,
        "detect": _cmd_detect,
        "observatory": _cmd_observatory,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (`... | head`): exit quietly, and
        # hand stdout a dead fd so the interpreter's shutdown flush
        # doesn't print its own traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the shell convention


if __name__ == "__main__":
    raise SystemExit(main())
