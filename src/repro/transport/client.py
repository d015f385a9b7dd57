"""Fault-tolerant archive mirror: sync a remote archive to local disk.

:class:`ArchiveMirror` pulls an archive served by
:class:`~repro.transport.server.ArchiveServer` (or anything speaking the
same manifest protocol) into a local directory tree that
:class:`repro.ris.Archive` opens transparently.  The machinery is the
part real archive mirroring needs:

* **concurrency** — a thread pool over collector-months; files within a
  month download sequentially so resume bookkeeping stays simple;
* **retries** — :func:`~repro.utils.backoff.backoff_delay` with seeded
  jitter between attempts; 5xx, timeouts, connection drops and
  truncated bodies are retryable, 4xx is not;
* **resume** — interrupted downloads leave a partial file under
  ``.mirror/partial/`` and the next attempt continues it with a
  ``Range: bytes=N-`` request (falling back to a full refetch when the
  server answers 200);
* **integrity** — every completed download is SHA-256-verified against
  the signed month manifest; mismatches are moved to
  ``.mirror/quarantine/`` (never left in the tree) and refetched;
* **atomicity** — verified files are fsynced and ``os.replace``d into
  the archive tree, so a concurrent :class:`~repro.ris.Archive` reader
  (or a tailing :class:`~repro.observatory.ingest.ObservatoryIngest`)
  never sees a partially written file;
* **incrementality** — the last fully synced manifest per month is
  cached under ``.mirror/state/``; unchanged files (same checksum) are
  skipped without hashing or touching them.

Downloaded files get their mtime set to the manifest's ``mtime_ns``, so
mirrored ``.idx`` sidecars remain *fresh* for the indexed read path
(sidecar staleness is detected via the data file's size + mtime).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Union
from urllib.error import HTTPError, URLError
from urllib.parse import quote
from urllib.request import Request, urlopen

from repro.transport.manifest import (
    DEFAULT_KEY,
    INDEX_NAME,
    MANIFEST_NAME,
    ManifestError,
    parse_document,
    sha256_file,
)
from repro.utils.backoff import backoff_delay

__all__ = ["ArchiveMirror", "SyncReport", "TransportError", "IntegrityError"]

_CHUNK = 1 << 16

#: Seconds one request may wait on the server (connect, then each read).
TIMEOUT = 10.0
#: Retry schedule (seconds): attempt *n* waits ``min(BACKOFF_CAP,
#: BACKOFF * 2**n)`` plus up to ``BACKOFF`` of jitter.
BACKOFF, BACKOFF_CAP = 0.25, 4.0
#: Seed of the jitter RNG: the same faults give the same pauses.
JITTER_SEED = 0


class TransportError(Exception):
    """A transfer failed after exhausting its retry budget."""


class IntegrityError(TransportError):
    """A download kept failing checksum verification."""


@dataclass
class SyncReport:
    """What one :meth:`ArchiveMirror.sync` pass did."""

    months_synced: int = 0
    files_checked: int = 0
    files_downloaded: int = 0
    files_skipped: int = 0
    files_refreshed: int = 0
    bytes_downloaded: int = 0
    bytes_resumed: int = 0
    retries: int = 0
    quarantined: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "SyncReport") -> None:
        """Fold a per-month report into this aggregate (single-threaded:
        each worker fills its own report, the coordinator merges): every
        counter adds, the failure lists concatenate."""
        for name in (f.name for f in fields(self)):
            setattr(self, name, getattr(self, name) + getattr(other, name))


class _Truncated(Exception):
    """Body ended before Content-Length — retryable, partial is kept."""


class ArchiveMirror:
    """Mirror ``base_url`` into ``dest`` (both survive re-use)."""

    def __init__(self, base_url: str, dest: Union[str, Path],
                 workers: int = 4, retries: int = 4, key: bytes = DEFAULT_KEY,
                 collectors: Optional[Iterable[str]] = None,
                 sleep: Callable[[float], None] = time.sleep):
        if "://" not in base_url:  # accept bare host:port
            base_url = "http://" + base_url
        self.base_url = base_url.rstrip("/")
        self.dest = Path(dest)
        self.workers = max(1, int(workers))
        self.retries = max(0, int(retries))
        self.key = key
        self.collectors = frozenset(collectors) if collectors else None
        self._sleep = sleep
        self._rng = random.Random(JITTER_SEED)
        self.mirror_dir = self.dest / ".mirror"
        self.state_dir = self.mirror_dir / "state"
        self.partial_dir = self.mirror_dir / "partial"
        self.quarantine_dir = self.mirror_dir / "quarantine"

    # -- low-level HTTP ---------------------------------------------------

    def _url(self, *parts: str) -> str:
        return self.base_url + "".join("/" + quote(p, safe="") for p in parts)

    def _pause(self, attempt: int, report: SyncReport) -> None:
        report.retries += 1
        self._sleep(backoff_delay(attempt, BACKOFF, BACKOFF_CAP, BACKOFF,
                                  self._rng))

    def _fetch_json(self, url: str, report: SyncReport) -> dict[str, Any]:
        """GET + parse + verify a signed document, with retries."""
        last: Exception = TransportError(url)
        for attempt in range(self.retries + 1):
            if attempt:
                self._pause(attempt - 1, report)
            try:
                with urlopen(Request(url), timeout=TIMEOUT) as response:
                    payload = response.read()
                return parse_document(payload, self.key)
            except HTTPError as exc:
                exc.read()
                if exc.code < 500:
                    raise TransportError(f"{url}: HTTP {exc.code}") from None
                last = exc
            except (URLError, OSError, http.client.HTTPException,
                    ManifestError, socket.timeout) as exc:
                last = exc
        raise TransportError(f"{url}: {last}") from None

    def _fetch_to(self, url: str, handle, offset: int) -> tuple[int, int]:
        """Stream ``url`` into an open file positioned for append.

        Returns ``(status, expected_total)`` where ``expected_total`` is
        the full object size implied by the response.  Raises
        :class:`_Truncated` when the body ends early (bytes already
        received stay in the file for the next resume attempt).
        """
        request = Request(url)
        if offset:
            request.add_header("Range", f"bytes={offset}-")
        with urlopen(request, timeout=TIMEOUT) as response:
            status = response.status
            length = response.headers.get("Content-Length")
            expected_body = int(length) if length is not None else None
            if status == 200 and offset:
                # Server ignored the range: restart from scratch.
                handle.seek(0)
                handle.truncate()
                offset = 0
            total = (offset + expected_body
                     if expected_body is not None else None)
            received = 0
            while True:
                try:
                    chunk = response.read(_CHUNK)
                except http.client.IncompleteRead as exc:
                    if exc.partial:
                        handle.write(exc.partial)
                    handle.flush()
                    raise _Truncated(url) from None
                if not chunk:
                    break
                handle.write(chunk)
                received += len(chunk)
            handle.flush()
            if expected_body is not None and received < expected_body:
                raise _Truncated(url)
            return status, total if total is not None else offset + received

    # -- single-file sync -------------------------------------------------

    def _quarantine(self, partial: Path, label: str) -> None:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        for n in range(10_000):
            target = self.quarantine_dir / f"{label}.{n}"
            if not target.exists():
                os.replace(partial, target)
                return
        partial.unlink()  # pragma: no cover - pathological

    def _sync_entry(self, collector: str, month: str, name: str,
                    entry: dict[str, Any], cached: Optional[dict[str, Any]],
                    report: SyncReport) -> None:
        report.files_checked += 1
        final = self.dest / collector / month / name
        previous = (cached or {}).get(name)
        if previous is not None and final.exists() \
                and previous["sha256"] == entry["sha256"] \
                and final.stat().st_size == entry["size"]:
            if previous["mtime_ns"] != entry["mtime_ns"]:
                # Upstream rewrote the file byte-identically; keep local
                # mtimes aligned so .idx sidecars stay fresh.
                os.utime(final, ns=(entry["mtime_ns"], entry["mtime_ns"]))
                report.files_refreshed += 1
            report.files_skipped += 1
            return
        self._download((collector, month, name), entry, report)

    # -- per-month sync ---------------------------------------------------

    def _state_path(self, collector: str, month: str) -> Path:
        return self.state_dir / collector / f"{month}.json"

    def _load_state(self, collector: str, month: str
                    ) -> Optional[dict[str, Any]]:
        path = self._state_path(collector, month)
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def _save_state(self, collector: str, month: str,
                    files: dict[str, Any]) -> None:
        path = self._state_path(collector, month)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(files, sort_keys=True))
        os.replace(tmp, path)

    def _sync_month(self, collector: str, month: str) -> SyncReport:
        report = SyncReport()
        try:
            manifest = self._fetch_json(
                self._url(collector, month, MANIFEST_NAME), report)
        except TransportError as exc:
            report.failures.append(str(exc))
            return report
        cached = self._load_state(collector, month)
        for name, entry in sorted(manifest["files"].items()):
            try:
                self._sync_entry(collector, month, name, entry, cached, report)
            except TransportError as exc:
                report.failures.append(str(exc))
        if report.ok:
            self._save_state(collector, month, manifest["files"])
            report.months_synced += 1
        return report

    def _sync_extra(self, name: str, entry: dict[str, Any],
                    report: SyncReport) -> None:
        report.files_checked += 1
        final = self.dest / name
        if final.exists() and final.stat().st_size == entry["size"] \
                and sha256_file(final) == entry["sha256"]:
            report.files_skipped += 1
            return
        self._download((name,), entry, report)

    def _download(self, parts: tuple[str, ...], entry: dict[str, Any],
                  report: SyncReport) -> None:
        """Fetch the file at ``parts`` under the archive root (a month
        file, or an extra at the root) with resume/verify/quarantine,
        then publish it atomically into the archive tree."""
        url = self._url(*parts)
        final = self.dest.joinpath(*parts)
        partial = self.partial_dir.joinpath(*parts)
        partial.parent.mkdir(parents=True, exist_ok=True)
        last: Exception = TransportError(url)
        for attempt in range(self.retries + 1):
            if attempt:
                self._pause(attempt - 1, report)
            offset = partial.stat().st_size if partial.exists() else 0
            if offset > entry["size"]:
                # Garbage partial (e.g. from an older manifest): restart.
                partial.unlink()
                offset = 0
            try:
                with open(partial, "ab") as handle:
                    self._fetch_to(url, handle, offset)
                    os.fsync(handle.fileno())
            except HTTPError as exc:
                exc.read()
                if exc.code < 500:
                    raise TransportError(f"{url}: HTTP {exc.code}") from None
                last = exc
                continue
            except (_Truncated, URLError, OSError,
                    http.client.HTTPException, socket.timeout) as exc:
                last = exc
                continue
            if offset:
                report.bytes_resumed += offset
            if sha256_file(partial) != entry["sha256"]:
                self._quarantine(partial, "-".join(parts))
                report.quarantined += 1
                last = IntegrityError(f"{url}: checksum mismatch")
                continue
            final.parent.mkdir(parents=True, exist_ok=True)
            os.replace(partial, final)
            os.utime(final, ns=(entry["mtime_ns"], entry["mtime_ns"]))
            report.files_downloaded += 1
            report.bytes_downloaded += entry["size"] - offset
            return
        raise TransportError(f"{url}: giving up after "
                             f"{self.retries + 1} attempt(s): {last}")

    # -- public API -------------------------------------------------------

    def sync(self, strict: bool = False) -> SyncReport:
        """One full pass: index → extras → every collector-month on the
        thread pool.  With ``strict=True`` a non-empty failure list
        raises :class:`TransportError` (the report is attached)."""
        report = SyncReport()
        self.dest.mkdir(parents=True, exist_ok=True)
        index = self._fetch_json(self.base_url + "/" + INDEX_NAME, report)
        for name, entry in sorted(index.get("extras", {}).items()):
            try:
                self._sync_extra(name, entry, report)
            except TransportError as exc:
                report.failures.append(str(exc))
        months = [(collector, month)
                  for collector, month_list in sorted(index["collectors"].items())
                  if self.collectors is None or collector in self.collectors
                  for month in month_list]
        if self.workers == 1 or len(months) <= 1:
            for collector, month in months:
                report.merge(self._sync_month(collector, month))
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                futures = [pool.submit(self._sync_month, collector, month)
                           for collector, month in months]
                for future in futures:
                    report.merge(future.result())
        if strict and not report.ok:
            error = TransportError(
                f"sync finished with {len(report.failures)} failure(s): "
                + "; ".join(report.failures[:3]))
            error.report = report  # type: ignore[attr-defined]
            raise error
        return report

    def watch(self, interval: float, cycles: Optional[int] = None,
              on_report: Optional[Callable[[SyncReport], None]] = None
              ) -> list[SyncReport]:
        """Repeated sync passes, ``interval`` seconds apart; ``cycles``
        bounds the loop (None = forever).  Failures are retried on the
        next cycle rather than aborting the watch."""
        reports = []
        n = 0
        while cycles is None or n < cycles:
            report = self.sync()
            reports.append(report)
            if on_report is not None:
                on_report(report)
            n += 1
            if cycles is None or n < cycles:
                self._sleep(interval)
        return reports

    def verify(self, repair: bool = False) -> dict[str, list[str]]:
        """Re-hash every mirrored file against the cached manifests.

        Returns ``{"verified": [...], "missing": [...], "corrupt": [...]}``
        with ``collector/month/name`` paths.  The incremental sync skip
        never re-hashes on-disk files (that would defeat incrementality),
        so this is the scrub that catches local bit-rot.  With
        ``repair=True`` corrupt files are moved to the quarantine
        directory — the next :meth:`sync` then refetches them."""
        verified: list[str] = []
        missing: list[str] = []
        corrupt: list[str] = []
        if not self.state_dir.exists():
            return {"verified": verified, "missing": missing,
                    "corrupt": corrupt}
        for state_path in sorted(self.state_dir.glob("*/*.json")):
            collector = state_path.parent.name
            month = state_path.stem
            files = json.loads(state_path.read_text())
            for name, entry in sorted(files.items()):
                rel = f"{collector}/{month}/{name}"
                path = self.dest / collector / month / name
                if not path.exists():
                    missing.append(rel)
                elif sha256_file(path) != entry["sha256"]:
                    corrupt.append(rel)
                    if repair:
                        self._quarantine(path, f"{collector}-{month}-{name}")
                else:
                    verified.append(rel)
        return {"verified": verified, "missing": missing, "corrupt": corrupt}
