"""Real-time (streaming) zombie detection — the paper's §6 vision.

"Real-time detection of a zombie outbreak and identification of the AS
causing it will notify the network operators of the infected ASes" —
this module implements that pipeline as an incremental consumer of the
RIS record stream:

* :class:`StreamingDetector` is the alert-producing face of
  :class:`repro.core.detector.IntervalEvaluator`, the one implementation
  of the revised methodology (specified in that module's docstring and
  shared with the offline ``ZombieDetector``): each zombie route becomes
  a :class:`ZombieAlert` the moment the stream passes the end of the
  interval's window — no batch reprocessing.

The §5.1 half needs no face of its own:
:class:`repro.core.resurrection.ResurrectionMonitor` is incremental
already and returns each late announcement from the record that makes
it.  Alerts reach the event store (and from there every ``/stream/*``
subscriber) through one writer, ``repro.observatory.ObservatoryIngest``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.beacons.schedule import BeaconInterval
from repro.bgp.attributes import ASPath
from repro.bgp.messages import Record
from repro.core.detector import DetectorConfig, IntervalEvaluator, Verdict
from repro.core.state import PeerKey
from repro.net.prefix import Prefix
from repro.utils.timeutil import MINUTE

__all__ = ["ZombieAlert", "StreamingDetector"]

#: Detector snapshot document version (2: the document became the
#: evaluation core's).
SNAPSHOT_VERSION = 2


@dataclass(frozen=True)
class ZombieAlert:
    """A stuck route detected live."""

    prefix: Prefix
    peer: PeerKey
    peer_asn: int
    interval: BeaconInterval
    detected_at: int
    path: Optional[ASPath]
    stale: bool

    def __str__(self) -> str:
        collector, address = self.peer
        return (f"ALERT zombie {self.prefix} @ {collector}/{address} "
                f"(AS{self.peer_asn}) at {self.detected_at}"
                f"{' [old announcement]' if self.stale else ''}")


class StreamingDetector:
    """Incremental revised-methodology detector.

    Usage::

        detector = StreamingDetector(threshold=90*60)
        detector.add_intervals(schedule.intervals(start, end))
        for record in stream:              # in record_sort_key order
            for alert in detector.observe(record):
                notify(alert)
        alerts += detector.advance(end_of_stream_time)
    """

    def __init__(self, threshold: int = 90 * MINUTE, dedup: bool = True,
                 excluded_peers: frozenset[PeerKey] = frozenset()):
        #: the evaluation core; its ``config`` is the detector's.
        self.core = IntervalEvaluator(DetectorConfig(
            threshold=threshold, dedup=dedup, excluded_peers=excluded_peers))
        self._alert_count = 0

    def add_interval(self, interval: BeaconInterval) -> None:
        self.core.add_interval(interval)

    def add_intervals(self, intervals: Iterable[BeaconInterval]) -> None:
        for interval in intervals:
            self.core.add_interval(interval)

    @property
    def pending_evaluations(self) -> int:
        return self.core.pending_evaluations

    @property
    def alerts_emitted(self) -> int:
        return self._alert_count

    def observe(self, record: Record) -> list[ZombieAlert]:
        """Ingest one record and return the alerts of every interval
        whose window ended before it."""
        return self._alerts(self.core.observe(record))

    def advance(self, now: int) -> list[ZombieAlert]:
        """Declare the stream observed through ``now``; judge every
        interval whose window has ended by then."""
        return self._alerts(self.core.advance(now))

    def flush(self) -> list[ZombieAlert]:
        """Evaluate everything still pending (end of stream)."""
        return self._alerts(self.core.flush())

    def _alerts(self, verdicts: list[Verdict]) -> list[ZombieAlert]:
        alerts = [ZombieAlert(prefix=route.prefix, peer=route.peer,
                              peer_asn=route.peer_asn, interval=interval,
                              detected_at=route.detected_at,
                              path=route.zombie_path, stale=route.stale)
                  for interval, _, routes in verdicts for route in routes]
        self._alert_count += len(alerts)
        return alerts

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The core's snapshot document plus the alert counter."""
        return {"version": SNAPSHOT_VERSION,
                "alert_count": self._alert_count, **self.core.snapshot()}

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "StreamingDetector":
        """Rebuild a detector from a :meth:`snapshot` document."""
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported StreamingDetector snapshot version: "
                f"{snapshot.get('version')!r}")
        detector = cls()
        detector.core = IntervalEvaluator.from_snapshot(snapshot)
        detector._alert_count = snapshot["alert_count"]
        return detector
