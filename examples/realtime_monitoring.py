#!/usr/bin/env python
"""Live zombie monitoring (the paper's §6 operator platform).

Replays a simulated campaign's RIS stream *incrementally*, one record at
a time, through the zombie evaluation core and the resurrection
monitor — the two consumers a real deployment runs against live
BGPStream.  (``python -m repro observatory ingest`` runs the same two
over an archive and writes their verdicts to the event store.)

Run:  python examples/realtime_monitoring.py
"""

from collections import Counter

from repro.bgp import record_sort_key
from repro.core import DetectorConfig, IntervalEvaluator, ResurrectionMonitor
from repro.experiments import campaign_run
from repro.utils.timeutil import MINUTE


def main() -> None:
    run = campaign_run(quick=True)
    print(f"replaying {len(run.records)} records from "
          f"{run.announcement_count} beacon announcements...\n")

    detector = IntervalEvaluator(DetectorConfig(
        threshold=90 * MINUTE, excluded_peers=run.noisy_truth))
    # The monitor knows the beacon schedule: a window ends at the
    # prefix's next announcement, so the beacon's own re-announcements
    # are never mistaken for resurrections.
    monitor = ResurrectionMonitor(min_offset=120 * MINUTE)
    for interval in run.intervals:
        detector.add_interval(interval)
        monitor.add_interval(interval)

    by_kind: Counter = Counter()
    by_prefix: Counter = Counter()

    def zombies(verdicts):
        for _, _, routes in verdicts:
            for route in routes:
                emit("zombie", route, f"ALERT {route} at {route.detected_at}")

    def emit(kind, alert, text):
        if sum(by_kind.values()) < 8:
            print(f"  {text}")
        by_kind[kind] += 1
        by_prefix[str(alert.prefix)] += 1

    for record in sorted(run.records, key=record_sort_key):
        zombies(detector.observe(record))
        late = monitor.observe(record)
        if late is not None:
            emit("resurrection", late,
                 f"ALERT resurrection {late.prefix} @ {late.peer[0]}/"
                 f"{late.peer[1]} (AS{late.peer_asn}) "
                 f"+{late.offset_minutes:.0f} min via {late.path}")
    zombies(detector.flush())

    print(f"\nalerts emitted: {sum(by_kind.values())}")
    for kind, count in sorted(by_kind.items()):
        print(f"  {kind}: {count}")
    print("most alerted prefixes:")
    for prefix, count in by_prefix.most_common(5):
        print(f"  {prefix}: {count}")


if __name__ == "__main__":
    main()
