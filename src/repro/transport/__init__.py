"""Archive transport: HTTP mirroring between collectors and consumers.

The paper's pipeline consumes the RIPE RIS raw-data archive over HTTP;
this package is that missing link for our reproduction.  It puts an
on-disk archive (the exact ``rrcNN/YYYY.MM/updates.*.gz`` layout)
behind a mirror server and teaches the rest of the stack to consume it
remotely:

* :mod:`repro.transport.manifest` — signed per-collector-month checksum
  manifests plus a signed root index (the trust anchor for every byte
  a mirror accepts);
* :mod:`repro.transport.server` — :class:`ArchiveServer`, the mirror
  server (``ETag``/``If-None-Match``, ``Range`` resume, ``HEAD``, gzip
  passthrough) on the repository's one asyncio HTTP engine,
  :class:`repro.utils.asynchttp.AsyncHTTPTransport`;
* :mod:`repro.transport.client` — :class:`ArchiveMirror`, the
  fault-tolerant sync client: concurrent collector-month workers,
  exponential backoff + jitter, resumable partial downloads, SHA-256
  verification, quarantine of corrupt bytes, and atomic publication so
  concurrent readers never see torn files;
* :mod:`repro.transport.faults` — :class:`FaultyProxy`, a deterministic
  fault-injecting proxy on the same engine (drops, truncations, 5xx,
  stalls, corruption) so every robustness path is exercised in tests
  and CI.

``python -m repro mirror {serve,sync,watch,verify,proxy}`` drives the
whole loop from the command line; a synced mirror is a plain archive
directory, so :class:`repro.ris.Archive` and the observatory ingest
open it with no further configuration.
"""

from repro.transport.client import (
    ArchiveMirror,
    IntegrityError,
    SyncReport,
    TransportError,
)
from repro.transport.faults import FaultPlan, FaultyProxy
from repro.transport.manifest import (
    DEFAULT_KEY,
    ManifestError,
    build_archive_index,
    build_month_manifest,
    sha256_file,
    sign_document,
    verify_document,
)
from repro.transport.server import ArchiveServer

__all__ = [
    "ArchiveMirror",
    "ArchiveServer",
    "DEFAULT_KEY",
    "FaultPlan",
    "FaultyProxy",
    "IntegrityError",
    "ManifestError",
    "SyncReport",
    "TransportError",
    "build_archive_index",
    "build_month_manifest",
    "sha256_file",
    "sign_document",
    "verify_document",
]
