"""RIS-style HTTP mirror server over an on-disk archive.

Exposes an archive root in the exact ``rrcNN/YYYY.MM/updates.*.gz``
layout the RIPE RIS raw-data service uses, plus the transport metadata
a fault-tolerant mirror needs::

    GET /healthz                               liveness + collector count
    GET /index.json                            signed archive index
    GET /<collector>/<YYYY.MM>/manifest.json   signed per-month manifest
    GET /<collector>/<YYYY.MM>/<file>          file bytes
    GET /<file>                                top-level extras (scenario.json)

File responses are production-shaped:

* strong ``ETag`` (the file's SHA-256) with ``If-None-Match`` → 304;
* ``Range: bytes=N-`` / ``bytes=N-M`` / ``bytes=-N`` → 206 with
  ``Content-Range`` (416 when unsatisfiable) — the resume primitive;
* gzip **passthrough**: ``.gz`` archive files are already compressed,
  so bytes go on the wire verbatim (``Content-Type: application/gzip``)
  and checksums match the on-disk file exactly.

Manifests and ETags are cached keyed by directory/file fingerprints
(name, size, mtime), so repeated sync polls are cheap and a rewritten
archive invalidates naturally.

The wire side is :class:`repro.utils.asynchttp.AsyncHTTPTransport` —
the same engine as the observatory's, so ``HEAD``, keep-alive and the
SIGTERM graceful drain come from there; :meth:`ArchiveServer.respond`
is the synchronous, transport-neutral part and runs on the executor.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from pathlib import Path
from typing import Any, Optional, Union

from repro.transport.manifest import (
    DEFAULT_KEY,
    INDEX_NAME,
    MANIFEST_NAME,
    build_archive_index,
    build_month_manifest,
    sha256_file,
)
from repro.utils.asynchttp import AsyncHTTPTransport

__all__ = ["ArchiveServer"]

_MONTH_RE = re.compile(r"^\d{4}\.\d{2}$")
_SAFE_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class _RangeError(Exception):
    """Unsatisfiable or malformed Range header."""


def _parse_range(header: str, size: int) -> Optional[tuple[int, int]]:
    """``(start, end)`` inclusive for a single-range header, or None for
    whole-file requests.  Raises :class:`_RangeError` when unsatisfiable."""
    if not header:
        return None
    match = re.match(r"^bytes=(\d*)-(\d*)$", header.strip())
    if match is None:
        raise _RangeError(header)
    first, last = match.group(1), match.group(2)
    if first == "" and last == "":
        raise _RangeError(header)
    if first == "":  # suffix range: last N bytes
        length = int(last)
        if length == 0:
            raise _RangeError(header)
        start = max(0, size - length)
        end = size - 1
    else:
        start = int(first)
        end = int(last) if last else size - 1
        end = min(end, size - 1)
    if start >= size or start > end:
        raise _RangeError(header)
    return start, end


class ArchiveServer(AsyncHTTPTransport):
    """Serve one archive root; ``port=0`` binds an ephemeral port."""

    def __init__(self, root: Union[str, Path], host: str = "127.0.0.1",
                 port: int = 0, key: bytes = DEFAULT_KEY):
        super().__init__(host=host, port=port)
        self.root = Path(root)
        if not self.root.is_dir():
            raise FileNotFoundError(f"archive root does not exist: {self.root}")
        self.key = key
        self.requests_served = 0
        self._etag_lock = threading.Lock()
        self._etags: dict[tuple[str, int, int], str] = {}
        self._manifest_lock = threading.Lock()
        self._manifests: dict[str, tuple[tuple, bytes]] = {}

    async def _dispatch(self, path: str, params: dict,
                        headers: dict[str, str],
                        writer: asyncio.StreamWriter,
                        keep_alive: bool) -> bool:
        self.requests_served += 1
        loop = asyncio.get_running_loop()
        try:
            status, fields, body = await loop.run_in_executor(
                None, self.respond, path, headers.get("if-none-match"),
                headers.get("range"))
        except FileNotFoundError:
            status, fields, body = self._json(
                {"error": f"no such resource: {path}"}, 404)
        except PermissionError:
            status, fields, body = self._json(
                {"error": "path not allowed"}, 403)
        await self._send(writer, status, [
            *fields.items(), ("Content-Length", str(len(body)))], body,
            keep_alive)
        return keep_alive

    # -- routing ----------------------------------------------------------

    def respond(self, path: str, if_none_match: Optional[str] = None,
                range_header: Optional[str] = None
                ) -> tuple[int, dict[str, str], bytes]:
        """(status, headers, body) for one GET; raises FileNotFoundError /
        PermissionError for ``_dispatch`` to translate."""
        parts = [p for p in path.split("?")[0].split("/") if p]
        if not parts:
            raise FileNotFoundError(path)
        if any(not _SAFE_NAME_RE.match(p) for p in parts):
            raise PermissionError(path)
        if parts == ["healthz"]:
            return self._json(self._healthz())
        if parts == [INDEX_NAME]:
            return self._signed_json(f"index:{self.root}",
                                     self._index_fingerprint(),
                                     lambda: build_archive_index(self.root,
                                                                 self.key))
        if len(parts) == 3 and parts[2] == MANIFEST_NAME:
            collector, month = parts[0], parts[1]
            directory = self.root / collector / month
            if not _MONTH_RE.match(month) or not directory.is_dir():
                raise FileNotFoundError(path)
            return self._signed_json(
                f"month:{collector}/{month}", self._dir_fingerprint(directory),
                lambda: build_month_manifest(self.root, collector, month,
                                             self.key))
        if len(parts) == 3:
            target = self.root / parts[0] / parts[1]
            if not _MONTH_RE.match(parts[1]):
                raise FileNotFoundError(path)
            return self._file(target / parts[2], if_none_match, range_header)
        if len(parts) == 1:  # top-level extras (scenario.json, ...)
            target = self.root / parts[0]
            if target.is_dir():
                raise FileNotFoundError(path)
            return self._file(target, if_none_match, range_header)
        raise FileNotFoundError(path)

    def _healthz(self) -> dict[str, Any]:
        collectors = [p.name for p in self.root.iterdir() if p.is_dir()
                      and not p.name.startswith(".")]
        return {"status": "ok", "collectors": len(collectors),
                "requests_served": self.requests_served}

    # -- responses --------------------------------------------------------

    @staticmethod
    def _json(body: dict[str, Any], status: int = 200
              ) -> tuple[int, dict[str, str], bytes]:
        payload = json.dumps(body, sort_keys=True).encode()
        return status, {"Content-Type": "application/json"}, payload

    def _signed_json(self, cache_key: str, fingerprint: tuple, build
                     ) -> tuple[int, dict[str, str], bytes]:
        """Serve a signed document, rebuilt only when its fingerprint
        (the underlying directory listing) changed."""
        with self._manifest_lock:
            cached = self._manifests.get(cache_key)
            if cached is not None and cached[0] == fingerprint:
                payload = cached[1]
            else:
                payload = json.dumps(build(), sort_keys=True).encode()
                self._manifests[cache_key] = (fingerprint, payload)
        return 200, {"Content-Type": "application/json"}, payload

    def _dir_fingerprint(self, directory: Path) -> tuple:
        entries = []
        for path in sorted(directory.iterdir()):
            if path.is_file() and not path.name.startswith("."):
                stat = path.stat()
                entries.append((path.name, stat.st_size, stat.st_mtime_ns))
        return tuple(entries)

    def _index_fingerprint(self) -> tuple:
        entries = []
        for path in sorted(self.root.iterdir()):
            if path.name.startswith("."):
                continue
            if path.is_dir():
                months = tuple(sorted(p.name for p in path.iterdir()
                                      if p.is_dir() and _MONTH_RE.match(p.name)))
                entries.append((path.name, months))
            elif path.is_file():
                stat = path.stat()
                entries.append((path.name, stat.st_size, stat.st_mtime_ns))
        return tuple(entries)

    def _etag(self, path: Path) -> str:
        stat = path.stat()
        key = (str(path), stat.st_size, stat.st_mtime_ns)
        with self._etag_lock:
            cached = self._etags.get(key)
        if cached is not None:
            return cached
        etag = f'"{sha256_file(path)}"'
        with self._etag_lock:
            self._etags[key] = etag
        return etag

    def _file(self, path: Path, if_none_match: Optional[str],
              range_header: Optional[str]) -> tuple[int, dict[str, str], bytes]:
        if not path.is_file():
            raise FileNotFoundError(path)
        etag = self._etag(path)
        content_type = ("application/gzip" if path.suffix == ".gz"
                        else "application/json" if path.suffix == ".idx"
                        else "application/octet-stream")
        headers = {"Content-Type": content_type, "ETag": etag,
                   "Accept-Ranges": "bytes"}
        if if_none_match is not None and etag in {
                tag.strip() for tag in if_none_match.split(",")}:
            return 304, headers, b""
        data = path.read_bytes()
        try:
            span = _parse_range(range_header or "", len(data))
        except _RangeError:
            headers["Content-Range"] = f"bytes */{len(data)}"
            return 416, headers, b""
        if span is None:
            return 200, headers, data
        start, end = span
        headers["Content-Range"] = f"bytes {start}-{end}/{len(data)}"
        return 206, headers, data[start:end + 1]
