"""The zombie observatory: a long-running detection service.

The paper's §6 closes with the vision of an operator platform that
watches the RIS stream continuously.  This package is that platform in
miniature:

* :mod:`repro.observatory.ingest` tails an on-disk archive through the
  indexed read path, feeds the streaming detector / resurrection monitor
  / lifespan session, and checkpoints everything so a restarted process
  resumes exactly where it left off;
* :mod:`repro.observatory.store` is the durable, append-only event
  store the ingest writes and the query layer reads;
* :mod:`repro.observatory.colseg` is the sealed binary columnar
  segment format ``observatory compact --format=columnar`` rewrites
  history into: per-kind column groups, mmap reads, per-column min/max
  pruning (DESIGN.md §13);
* :mod:`repro.observatory.server` / :mod:`repro.observatory.client`
  expose the store over a JSON HTTP API with Prometheus-style metrics,
  ETag/304 revalidation, and cursor pagination;
* :mod:`repro.observatory.stream` /
  :mod:`repro.observatory.asyncserver` are the push side: an asyncio
  HTTP server (what ``observatory serve`` runs) whose
  ``/stream/*`` SSE endpoints tail the store live, with resume tokens,
  a shared fan-out hub, and drop-to-cursor backpressure (DESIGN.md
  §14);
* :mod:`repro.observatory.views` keeps the read model every API route
  is answered from (latest lifespan per prefix, outbreak and
  resurrection rows, merged resurrection timeline, forensics
  snapshots) fresh incrementally off the store's
  ``(generation, next_seq)`` watermark;
* :mod:`repro.observatory.supervisor` wraps the ingest in a watchdog
  that restarts it from the last checkpoint across crashes and exposes
  a healthy/degraded/stalled state machine;
  :mod:`repro.observatory.restart` is the restart policy it shares
  with the shard fleet;
* :mod:`repro.observatory.doctor` is the store fsck behind
  ``observatory doctor``: torn/bit-rotted/orphaned segment detection
  and manifest repair;
* :mod:`repro.observatory.fleet` /
  :mod:`repro.observatory.federation` split serving of the one store
  by prefix over a supervised worker fleet (each worker folds only the
  prefixes it owns) and scatter-gather queries across it with
  per-shard deadlines, retries, circuit breakers, and explicit partial
  results (DESIGN.md §15);
* :mod:`repro.observatory.synthetic` builds a small scripted campaign
  archive so the whole loop can be exercised without real RIS data.
"""

from repro.observatory.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.observatory.client import (
    ObservatoryClient,
    ObservatoryError,
    ObservatoryProtocolError,
    ObservatoryUnreachable,
)
from repro.observatory.asyncserver import AsyncObservatoryServer
from repro.observatory.colseg import ColsegError, ColumnarSegment
from repro.observatory.doctor import FsckReport, fsck
from repro.observatory.federation import (
    PARTIAL_HEADER,
    CircuitBreaker,
    FederatedObservatoryServer,
)
from repro.observatory.fleet import (
    ShardFleet,
    ShardWorker,
    partition_store,
)
from repro.observatory.forensics import (
    LastAnnouncementRing,
    outbreak_id,
    outbreak_prefix,
    render_forensics,
)
from repro.observatory.ingest import ObservatoryIngest
from repro.observatory.server import ObservatoryApp
from repro.observatory.store import EventStore, file_sha256
from repro.observatory.supervisor import ObservatorySupervisor
from repro.observatory.synthetic import (
    SyntheticScenario,
    build_synthetic_archive,
    load_scenario,
)
from repro.observatory.stream import StreamHub, StreamStats
from repro.observatory.views import MaterializedViews, shard_for
from repro.utils.asynchttp import AsyncHTTPTransport

__all__ = [
    "AsyncHTTPTransport",
    "AsyncObservatoryServer",
    "CHECKPOINT_VERSION",
    "CircuitBreaker",
    "ColsegError",
    "ColumnarSegment",
    "EventStore",
    "FederatedObservatoryServer",
    "FsckReport",
    "LastAnnouncementRing",
    "MaterializedViews",
    "ObservatoryApp",
    "ObservatoryClient",
    "ObservatoryError",
    "ObservatoryIngest",
    "ObservatoryProtocolError",
    "ObservatorySupervisor",
    "ObservatoryUnreachable",
    "PARTIAL_HEADER",
    "ShardFleet",
    "ShardWorker",
    "StreamHub",
    "StreamStats",
    "SyntheticScenario",
    "build_synthetic_archive",
    "file_sha256",
    "fsck",
    "load_checkpoint",
    "load_scenario",
    "outbreak_id",
    "outbreak_prefix",
    "partition_store",
    "render_forensics",
    "save_checkpoint",
    "shard_for",
]
