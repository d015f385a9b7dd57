"""Append-only event store: the observatory's durable output.

Layout (one directory per store)::

    <root>/manifest.json        atomic (write-temp + rename) manifest
    <root>/seg-00000000.jsonl   segment files, named by first seq
    <root>/seg-00000000.colseg  sealed binary columnar segments

Events are JSON lines with a monotonically increasing ``seq``; each
append is flushed so a crash loses at most a partially written trailing
line, which recovery (and every reader) tolerates by ignoring it.  The
manifest carries a per-segment index — seq and time range, event kinds,
format, seal hash and (capped) prefix/peer sets.  Scans skip a sealed
segment by its kinds and seq range only (the readers are tailing
followers: kind filters and ``min_seq`` watermarks); the rest of the
index is recorded for the doctor and keeps the on-disk bytes stable.
Sealed segments are immutable; the active (last) segment is always
re-scanned on open, which is what makes the store readable by a
concurrent process while an ingest appends to it.

Two segment formats coexist behind one manifest.  The *active* segment
is always JSONL — a torn trailing line is the whole crash story, and
recovery is a truncate.  ``compact(fmt="columnar")`` rewrites history
into sealed binary columnar segments (:mod:`repro.observatory.colseg`):
per-kind column groups read via ``mmap``, so a scan skips the groups
of other kinds and those wholly below its watermark.
Readers hold a small LRU of open columnar segments keyed by the
manifest's seal hash, which makes repeated scans of sealed history
entirely in-memory.

:meth:`EventStore.truncate` drops every event with ``seq >=`` a bound —
the recovery primitive behind the checkpointed ingest: roll the store
back to the checkpoint's event count, then re-emission is deterministic.
:meth:`EventStore.compact` folds superseded ``lifespan`` events (each is
a cumulative per-prefix summary, so only the latest per prefix matters)
while preserving the surviving events' bytes and seqs.

Both rewriting operations bump the manifest's ``generation``, which is
how watermark-based readers tell "the store grew" apart from "history
behind my watermark changed": an unchanged generation plus a higher
``next_seq`` means everything below the watermark is exactly as it was,
so reading ``events(min_seq=...)`` is a complete delta.
:class:`TailCursor` is that protocol, written once — the materialized
views (one per shard worker too), the SSE hub and its subscribers'
catch-up all follow a store through it.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence, Union

from repro.observatory import colseg
from repro.observatory.colseg import ColsegError, ColumnarSegment

__all__ = ["EventStore", "MANIFEST_VERSION", "TailCursor", "file_sha256",
           "read_manifest", "write_manifest"]

MANIFEST_VERSION = 1

#: Above this many distinct values, a segment's prefix/peer index is
#: dropped (``None`` = "may contain anything") to bound manifest size.
INDEX_VALUE_CAP = 64

#: Default number of events per segment file.
DEFAULT_SEGMENT_RECORDS = 1024

#: Open columnar segments (mmap + decoded-column cache) kept per store.
#: Sealed segments are immutable, so entries are validated against the
#: manifest's seal hash and never go stale — the cap only bounds memory.
DEFAULT_COLUMNAR_CACHE = 16


@dataclass
class _Segment:
    """In-memory form of one manifest segment entry."""

    name: str
    first_seq: int
    count: int = 0
    #: Highest seq in the segment.  Compaction folds events *inside*
    #: segments, so seqs are gapped and ``first_seq + count`` no longer
    #: bounds them — every "does seq X live here" question must go
    #: through :attr:`end_seq`.
    last_seq: Optional[int] = None
    min_time: Optional[int] = None
    max_time: Optional[int] = None
    kinds: set[str] = field(default_factory=set)
    prefixes: Optional[set[str]] = field(default_factory=set)
    peers: Optional[set[str]] = field(default_factory=set)
    sealed: bool = False
    #: Content hash, recorded at seal time; None while the segment is
    #: active (its bytes are still growing).  ``observatory doctor``
    #: verifies it to catch bit rot in sealed segments.
    sha256: Optional[str] = None
    #: On-disk format: ``"jsonl"`` (line-per-event, the only format the
    #: active segment may use) or ``"columnar"`` (sealed ``.colseg``).
    format: str = "jsonl"

    @property
    def end_seq(self) -> int:
        """One past the highest seq in the segment."""
        if self.last_seq is not None:
            return self.last_seq + 1
        return self.first_seq + self.count

    def note(self, event: dict[str, Any]) -> None:
        """Fold one event into the index."""
        self.count += 1
        seq = event["seq"]
        self.last_seq = seq if self.last_seq is None \
            else max(self.last_seq, seq)
        time = event.get("time")
        if time is not None:
            self.min_time = time if self.min_time is None else min(self.min_time, time)
            self.max_time = time if self.max_time is None else max(self.max_time, time)
        self.kinds.add(event["kind"])
        if self.prefixes is not None and "prefix" in event:
            self.prefixes.add(event["prefix"])
            if len(self.prefixes) > INDEX_VALUE_CAP:
                self.prefixes = None
        if self.peers is not None:
            peer = event.get("peer_address")
            if peer is not None:
                self.peers.add(peer)
                if len(self.peers) > INDEX_VALUE_CAP:
                    self.peers = None

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "first_seq": self.first_seq,
            "count": self.count,
            "last_seq": self.last_seq,
            "min_time": self.min_time,
            "max_time": self.max_time,
            "kinds": sorted(self.kinds),
            "prefixes": sorted(self.prefixes) if self.prefixes is not None else None,
            "peers": sorted(self.peers) if self.peers is not None else None,
            "sealed": self.sealed,
            "sha256": self.sha256,
            "format": self.format,
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "_Segment":
        return cls(
            name=payload["name"],
            first_seq=payload["first_seq"],
            count=payload["count"],
            last_seq=payload.get("last_seq"),
            min_time=payload["min_time"],
            max_time=payload["max_time"],
            kinds=set(payload["kinds"]),
            prefixes=(set(payload["prefixes"])
                      if payload["prefixes"] is not None else None),
            peers=set(payload["peers"]) if payload["peers"] is not None else None,
            sealed=payload["sealed"],
            sha256=payload.get("sha256"),
            format=payload.get("format", "jsonl"),
        )

    def may_match(self, kinds: Optional[frozenset]) -> bool:
        """Index skip test (only trustworthy for sealed segments)."""
        return self.count > 0 and (kinds is None or bool(self.kinds & kinds))


def _segment_name(first_seq: int, fmt: str = "jsonl") -> str:
    extension = "colseg" if fmt == "columnar" else "jsonl"
    return f"seg-{first_seq:08d}.{extension}"


def file_sha256(path: Union[str, Path]) -> str:
    """Hex sha256 of a file's bytes (streamed)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_manifest(data: bytes) -> tuple[list[_Segment], int, int]:
    """``(segments, next_seq, generation)`` of the manifest bytes
    ``data`` (the caller reads ``manifest.json``).  Raises
    ``ValueError`` / ``KeyError`` / ``TypeError`` when they are not a
    manifest this version understands."""
    payload = json.loads(data)
    if payload.get("version") != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported event store manifest version: "
            f"{payload.get('version')!r}")
    segments = [_Segment.from_json(s) for s in payload["segments"]]
    return segments, payload["next_seq"], payload.get("generation", 0)


def write_manifest(root: Path, segments: Sequence[_Segment],
                   next_seq: int, generation: int) -> None:
    """Atomically replace the manifest under ``root`` (write a temp
    file, fsync, rename)."""
    payload = {
        "version": MANIFEST_VERSION,
        "next_seq": next_seq,
        "generation": generation,
        "segments": [segment.to_json() for segment in segments],
    }
    tmp = root / "manifest.json.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, root / "manifest.json")


def _complete_lines(data: bytes) -> tuple[list[bytes], int]:
    """Split raw segment bytes into complete lines; returns the lines
    and the byte length of the complete region (a partially written
    trailing line — crash artefact or concurrent append — is dropped)."""
    end = data.rfind(b"\n") + 1
    lines = data[:end].split(b"\n")[:-1] if end else []
    return lines, end


class EventStore:
    """Segmented JSON-lines event store (see module docstring).

    ``readonly=True`` opens the store for querying while another process
    appends: every query re-reads the manifest (re-parsing it only when
    its bytes changed) and re-scans unsealed segments, so newly appended
    events become visible without any coordination.
    """

    def __init__(self, root: Union[str, Path],
                 segment_max_records: int = DEFAULT_SEGMENT_RECORDS,
                 readonly: bool = False):
        if segment_max_records <= 0:
            raise ValueError("segment_max_records must be positive")
        self.root = Path(root)
        self.segment_max_records = segment_max_records
        self.readonly = readonly
        self._segments: list[_Segment] = []
        self._next_seq = 0
        self._generation = 0
        self._handle = None
        #: The manifest bytes a readonly store last parsed.
        self._manifest_bytes: Optional[bytes] = None
        #: ``(name, {seq: (start, end)})``: byte spans of the lines read
        #: so far from the unsealed segment (see ``_iter_segment``).
        self._active_lines: Optional[tuple[str, dict[int, tuple[int, int]]]] = None
        #: name -> (seal sha256, open ColumnarSegment); LRU-bounded.
        self._columnar_cache: "OrderedDict[str, tuple[Optional[str], ColumnarSegment]]" = OrderedDict()
        if readonly:
            if not (self.root / "manifest.json").exists():
                raise FileNotFoundError(
                    f"not an event store (no manifest): {self.root}")
            self._load_manifest()
        else:
            self.root.mkdir(parents=True, exist_ok=True)
            if (self.root / "manifest.json").exists():
                self._load_manifest()
                self._recover_active()
            else:
                self._sync_manifest()

    # -- manifest ---------------------------------------------------------

    def _load_manifest(self) -> None:
        data = (self.root / "manifest.json").read_bytes()
        # Identical bytes parse to identical state, so a reader polling
        # an unchanged store skips the parse.  A writer's in-memory
        # state is authoritative and never reloaded.
        if self.readonly and data == self._manifest_bytes:
            return
        self._segments, self._next_seq, self._generation = \
            read_manifest(data)
        if self.readonly:
            # Only after the state: a concurrent reader that sees these
            # bytes must also see what they parse to.
            self._manifest_bytes = data

    def _sync_manifest(self) -> None:
        write_manifest(self.root, self._segments, self._next_seq,
                       self._generation)

    def _recover_active(self) -> None:
        """Rebuild the active segment's index by scanning its file,
        dropping any partially written trailing line."""
        if not self._segments:
            return
        active = self._segments[-1]
        if active.sealed:
            # A fully-columnar store (every chunk sealed by compaction)
            # has no mutable tail: the manifest is authoritative, and
            # the next append opens a fresh JSONL segment.
            return
        path = self.root / active.name
        data = path.read_bytes() if path.exists() else b""
        lines, complete = _complete_lines(data)
        if complete < len(data):
            with open(path, "r+b") as handle:
                handle.truncate(complete)
        rebuilt = _Segment(name=active.name, first_seq=active.first_seq)
        last_seq = active.first_seq - 1
        for line in lines:
            event = json.loads(line)
            rebuilt.note(event)
            last_seq = event["seq"]
        rebuilt.sealed = active.sealed
        rebuilt.sha256 = active.sha256 if active.sealed else None
        self._segments[-1] = rebuilt
        self._next_seq = last_seq + 1

    # -- append path ------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The seq the next appended event will get (== events appended
        over the store's lifetime, net of truncation)."""
        return self._next_seq

    @property
    def generation(self) -> int:
        """Bumped whenever history is rewritten (truncate / compact /
        doctor repair).  Same generation + higher ``next_seq`` ==
        append-only growth."""
        return self._generation

    def position(self) -> tuple[int, int]:
        """``(generation, next_seq)`` — the store's logical position.

        Together the pair uniquely identifies the store's *visible*
        content, which is what the server's ETags and the materialized
        views key on.  A readonly store re-reads the manifest and then
        the active segment's file tail: a concurrent writer flushes
        every append but only syncs the manifest on segment roll /
        ``sync()``, and ``events()`` reads the file tail — so the
        position must advance with every append a reader can see, not
        just with every manifest sync.
        """
        if self.readonly:
            self._load_manifest()
            return self._generation, self._tail_next_seq()
        return self._generation, self._next_seq

    def _tail_next_seq(self) -> int:
        """``next_seq`` as visible in the active segment's file —
        possibly ahead of the manifest's value while a concurrent
        writer is mid-segment.  Reads only the last complete event."""
        if not self._segments:
            return self._next_seq
        active = self._segments[-1]
        if active.sealed:
            return self._next_seq
        event = self._last_event_in_segment(active)
        if event is None:
            return self._next_seq  # empty, torn, or garbled tail
        seq = event.get("seq")
        if not isinstance(seq, int):
            return self._next_seq  # garbled tail: doctor territory
        return max(self._next_seq, seq + 1)

    def _last_event_in_segment(self, segment: _Segment
                               ) -> Optional[dict[str, Any]]:
        """The last *complete* event in a segment's file, or ``None``.

        One probe shared by both formats: a columnar segment answers
        from its footer-indexed last row; a JSONL segment is read
        backwards in windows so only its tail is touched — a partially
        written trailing line (the crash artefact) is skipped, exactly
        as every reader skips it.
        """
        if segment.format == "columnar":
            try:
                return self._columnar(segment).last_event()
            except (ColsegError, OSError):
                return None
        path = self.root / segment.name
        try:
            with open(path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                window = 1 << 16
                while True:
                    start = max(0, size - window)
                    handle.seek(start)
                    data = handle.read(size - start)
                    end = data.rfind(b"\n")
                    prev = data.rfind(b"\n", 0, end) if end != -1 else -1
                    if start == 0 or (end != -1 and prev != -1):
                        break
                    window *= 2  # a line longer than the window
        except OSError:
            return None
        if end == -1:
            return None  # no complete line yet
        try:
            event = json.loads(data[prev + 1:end])
        except ValueError:
            return None  # torn/garbled tail
        return event if isinstance(event, dict) else None

    def _open_segment(self) -> None:
        # Named by the seq of the first event it will hold.
        segment = _Segment(name=_segment_name(self._next_seq),
                           first_seq=self._next_seq)
        self._segments.append(segment)
        self._sync_manifest()
        self._handle = open(self.root / segment.name, "ab")

    def append(self, kind: str, time: int, payload: dict[str, Any]) -> int:
        """Append one event; returns its seq.  Flushed immediately."""
        if self.readonly:
            raise RuntimeError("store opened readonly")
        seq = self._next_seq
        event = {"seq": seq, "time": time, "kind": kind}
        for key, value in payload.items():
            if key not in event:
                event[key] = value
        active = self._segments[-1] if self._segments else None
        if active is None or active.sealed \
                or active.count >= self.segment_max_records:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            if active is not None and not active.sealed:
                active.sealed = True
                path = self.root / active.name
                if path.exists():
                    active.sha256 = file_sha256(path)
            self._open_segment()
            active = self._segments[-1]
        elif self._handle is None:
            self._handle = open(self.root / active.name, "ab")
        line = json.dumps(event, sort_keys=True) + "\n"
        self._handle.write(line.encode("utf-8"))
        self._handle.flush()
        active.note(event)
        self._next_seq = seq + 1
        return seq

    def sync(self) -> None:
        """Flush the active segment and persist the manifest."""
        if self._handle is not None:
            self._handle.flush()
        if not self.readonly:
            self._sync_manifest()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
        self._drop_columnar_cache()
        if not self.readonly:
            self._sync_manifest()

    # -- read path --------------------------------------------------------

    def _columnar(self, segment: _Segment) -> ColumnarSegment:
        """The (cached) open columnar reader for one sealed segment.

        Entries are validated against the manifest's seal hash, so a
        compaction that reuses a name (same first seq, new contents)
        can never serve stale rows; eviction closes the mmap — decoded
        rows already handed out are plain dicts and stay valid.
        """
        cached = self._columnar_cache.get(segment.name)
        if cached is not None:
            sha, reader = cached
            if sha == segment.sha256:
                self._columnar_cache.move_to_end(segment.name)
                return reader
            del self._columnar_cache[segment.name]
            reader.close()
        reader = ColumnarSegment(self.root / segment.name)
        self._columnar_cache[segment.name] = (segment.sha256, reader)
        while len(self._columnar_cache) > DEFAULT_COLUMNAR_CACHE:
            _, (_, evicted) = self._columnar_cache.popitem(last=False)
            evicted.close()
        return reader

    def _drop_columnar_cache(self) -> None:
        while self._columnar_cache:
            _, (_, reader) = self._columnar_cache.popitem()
            reader.close()

    def _iter_segment(self, segment: _Segment,
                      kind_set: Optional[frozenset] = None,
                      min_seq: Optional[int] = None
                      ) -> Iterator[dict[str, Any]]:
        """Stream one segment's events of ``kind_set`` at or above
        ``min_seq``, in seq order.

        JSONL segments are read line by line (never materialized whole),
        stopping at a trailing line with no newline — the torn-write
        artefact every reader tolerates.  Columnar segments hand both
        filters to the column reader, which skips whole kind groups.
        """
        path = self.root / segment.name
        if not path.exists():
            return
        if segment.format == "columnar":
            yield from self._columnar(segment).scan(kinds=kind_set,
                                                    min_seq=min_seq)
            return
        # Lines of the unsealed segment are indexed as they are read,
        # so a follower resumes after the line just below its watermark
        # instead of decoding the segment from its first line again.
        lines = None
        if not segment.sealed and min_seq is not None:
            indexed = self._active_lines
            if indexed is None or indexed[0] != segment.name:
                indexed = self._active_lines = (segment.name, {})
            lines = indexed[1]
        with open(path, "rb") as handle:
            offset = self._resume_offset(handle, lines, min_seq) \
                if lines else 0
            handle.seek(offset)
            for line in handle:
                if not line.endswith(b"\n"):
                    break  # partial trailing line: crash or live writer
                event = json.loads(line)
                start, offset = offset, offset + len(line)
                if lines is not None:
                    lines[event["seq"]] = (start, offset)
                if min_seq is not None and event["seq"] < min_seq:
                    continue
                if kind_set is not None and event["kind"] not in kind_set:
                    continue
                yield event

    @staticmethod
    def _resume_offset(handle, lines: dict[int, tuple[int, int]],
                       min_seq: int) -> int:
        """Where a scan for ``seq >= min_seq`` may start in an indexed
        segment file: right after the line holding ``min_seq - 1`` if
        the indexed span still holds one whole line with that seq —
        lines are in seq order, so none before it is wanted.  Anything
        else (not indexed, or the file was rewritten under the same
        name by a truncate this reader has not seen yet) starts at 0."""
        span = lines.get(min_seq - 1)
        if span is None:
            return 0
        start, end = span
        handle.seek(start)
        line = handle.read(end - start)
        try:
            event = json.loads(line) if line.endswith(b"\n") else None
        except ValueError:
            event = None
        if not isinstance(event, dict) or event.get("seq") != min_seq - 1:
            return 0
        return end

    def events(self, kinds: Optional[Sequence[str]] = None,
               min_seq: Optional[int] = None) -> Iterator[dict[str, Any]]:
        """Iterate events in seq order (a streaming generator: full
        scans and view rebuilds hold one segment's worth of state, not
        the whole store).

        ``kinds`` filters on the event kind, ``min_seq`` on ``seq >=
        min_seq`` — the watermark filter incremental readers use to
        fetch only what was appended since their last pass.  Sealed
        segments holding none of ``kinds``, or ending below ``min_seq``,
        are skipped through the manifest index without being opened
        (the active segment is never skipped — its manifest count may
        trail the file when a concurrent writer is appending).
        """
        if self.readonly:
            # Pick up whatever a concurrent writer has published.
            self._load_manifest()
        kind_set = frozenset(kinds) if kinds is not None else None
        for segment in self._segments:
            if segment.sealed and (
                    (min_seq is not None and segment.end_seq <= min_seq)
                    or not segment.may_match(kind_set)):
                continue
            yield from self._iter_segment(segment, kind_set, min_seq)

    def raw_bytes(self) -> bytes:
        """All segment bytes, concatenated in seq order (for the
        determinism tests: two stores with equal histories are
        byte-identical)."""
        return b"".join((self.root / segment.name).read_bytes()
                        for segment in self._segments
                        if (self.root / segment.name).exists())

    # -- maintenance ------------------------------------------------------

    def truncate(self, next_seq: int) -> int:
        """Drop every event with ``seq >= next_seq``; returns how many
        were dropped.  This is the checkpoint-recovery primitive."""
        if self.readonly:
            raise RuntimeError("store opened readonly")
        if next_seq > self._next_seq:
            raise ValueError(
                f"cannot truncate forward: store has {self._next_seq} "
                f"events, asked for {next_seq}")
        dropped = self._next_seq - next_seq
        if dropped == 0:
            return 0
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        kept: list[_Segment] = []
        for segment in self._segments:
            path = self.root / segment.name
            if segment.first_seq >= next_seq:
                if path.exists():
                    path.unlink()
                continue
            if segment.end_seq <= next_seq:
                kept.append(segment)
                continue
            # Segment straddles the bound: rewrite its surviving prefix.
            # A columnar segment is immutable, so its prefix is rewritten
            # as JSONL (the mutable format) under the jsonl name.
            new_name = _segment_name(segment.first_seq)
            rebuilt = _Segment(name=new_name, first_seq=segment.first_seq)
            tmp = self.root / (new_name + ".tmp")
            with open(tmp, "wb") as handle:
                for event in self._iter_segment(segment):
                    if event["seq"] >= next_seq:
                        break
                    handle.write((json.dumps(event, sort_keys=True)
                                  + "\n").encode("utf-8"))
                    rebuilt.note(event)
            if segment.name != new_name and path.exists():
                path.unlink()
            os.replace(tmp, self.root / new_name)
            kept.append(rebuilt)
        # Reopen the tail for appends — unless it is columnar, which
        # only holds JSON lines' worth of history in binary form; the
        # next append then starts a fresh JSONL segment after it.
        if kept and kept[-1].format == "jsonl":
            kept[-1].sealed = False
            kept[-1].sha256 = None
        self._segments = kept
        self._drop_columnar_cache()
        self._next_seq = next_seq
        self._generation += 1
        self._sync_manifest()
        return dropped

    def compact(self, fmt: str = "jsonl") -> dict[str, int]:
        """Fold superseded ``lifespan`` events.  Each lifespan event
        carries the full cumulative per-prefix summary, so intermediate
        ones add nothing — except segment-boundary markers
        (``started_segment`` / ``resurrection``), which are the §5.1
        dump-scale resurrection history and are preserved.  Every other
        kind survives unchanged (same values, same seqs).

        ``fmt`` picks the rewritten segments' on-disk format.  With
        ``"jsonl"`` (the default) the last chunk is left unsealed so
        appends continue into it, exactly as before.  With
        ``"columnar"`` every chunk becomes a sealed ``.colseg`` file —
        the binary format is immutable — and the next append opens a
        fresh JSONL segment after the history.  Survivors are streamed
        chunk by chunk, so compaction holds at most one segment's worth
        of events in memory.  Returns ``{"kept": n, "dropped": m}``."""
        if self.readonly:
            raise RuntimeError("store opened readonly")
        if fmt not in ("jsonl", "columnar"):
            raise ValueError(f"unknown segment format: {fmt!r}")
        latest: dict[str, int] = {}
        for event in self.events(kinds=("lifespan",)):
            latest[event["prefix"]] = event["seq"]
        # New chunks are staged under temp names while the old files are
        # still being streamed from, then swapped in all at once.
        staged: list[_Segment] = []
        chunk: list[dict[str, Any]] = []
        kept = dropped = 0

        def flush_chunk() -> None:
            nonlocal chunk
            if not chunk:
                return
            name = _segment_name(chunk[0]["seq"], fmt)
            entry = _Segment(name=name, first_seq=chunk[0]["seq"],
                             format=fmt)
            tmp = self.root / (name + ".tmp")
            if fmt == "columnar":
                colseg.write_segment(tmp, chunk)
            else:
                with open(tmp, "wb") as handle:
                    for event in chunk:
                        handle.write((json.dumps(event, sort_keys=True)
                                      + "\n").encode("utf-8"))
            for event in chunk:
                entry.note(event)
            entry.sealed = True
            entry.sha256 = file_sha256(tmp)
            staged.append(entry)
            chunk = []

        for segment in self._segments:
            for event in self._iter_segment(segment):
                if (event["kind"] == "lifespan"
                        and latest.get(event["prefix"]) != event["seq"]
                        and not event.get("started_segment")
                        and not event.get("resurrection")):
                    dropped += 1
                    continue
                kept += 1
                chunk.append(event)
                if len(chunk) >= self.segment_max_records:
                    flush_chunk()
        flush_chunk()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._drop_columnar_cache()
        for segment in self._segments:
            path = self.root / segment.name
            if path.exists():
                path.unlink()
        self._segments = []
        for entry in staged:
            os.replace(self.root / (entry.name + ".tmp"),
                       self.root / entry.name)
            self._segments.append(entry)
        if fmt == "jsonl" and self._segments:
            self._segments[-1].sealed = False
            self._segments[-1].sha256 = None
        self._generation += 1
        self._sync_manifest()
        return {"kept": kept, "dropped": dropped}

    def stats(self) -> dict[str, Any]:
        """Store-level counters for ``/healthz``, ``/metrics`` and
        dashboards — manifest index only, no segment is read."""
        if self.readonly:
            self._load_manifest()
        by_format: dict[str, int] = {}
        events = 0
        for segment in self._segments:
            events += segment.count
            by_format[segment.format] = by_format.get(segment.format, 0) + 1
        return {
            "root": str(self.root),
            "segments": len(self._segments),
            "events": events,
            "next_seq": self._next_seq,
            "generation": self._generation,
            "by_format": by_format,
        }


class TailCursor:
    """One follower's place in a store: the tail protocol, written once.

    ``generation`` is the history the follower has been reading
    (``None`` = not attached yet) and ``seq`` the next seq it owes its
    consumer.  :meth:`poll` reads the published position; :meth:`read`
    yields what lies in ``[seq, end)`` and advances ``seq`` past every
    event it considered.  Works the same on a shared-process store and
    on a readonly store tailing a concurrent writer.
    """

    def __init__(self, store: EventStore, generation: Optional[int] = None,
                 seq: int = 0):
        self.store = store
        self.generation = generation
        self.seq = seq
        #: The published ``next_seq`` as of the last :meth:`poll`.
        self.end = seq

    def poll(self) -> bool:
        """Read the store's position.  True when the follower cannot
        continue from where it was — first attach, a generation change
        (truncate/compact/repair rewrote history) or a position behind
        ``seq`` — in which case the cursor is rewound to seq 0 of the
        new generation; a follower that would rather skip than replay
        sets ``seq = end`` itself."""
        generation, self.end = self.store.position()
        if generation == self.generation and self.end >= self.seq:
            return False
        self.generation, self.seq = generation, 0
        return True

    def read(self, kinds: Optional[Sequence[str]] = None,
             limit: Optional[int] = None) -> Iterator[dict[str, Any]]:
        """The events in ``[seq, end)`` of the last :meth:`poll`, at
        most ``limit`` of them.  An event appended after the position
        was read waits for the next poll: yielding it would put the
        follower past the published position (a spurious rewind next
        time) and ahead of every ETag derived from that position.
        ``seq`` moves past an event once the consumer comes back for
        the next one, and to ``end`` when the span is exhausted — so
        events a ``kinds`` filter hid count as considered."""
        if self.seq >= self.end:
            return
        for event in self.store.events(kinds=kinds, min_seq=self.seq):
            if event["seq"] >= self.end:
                break
            yield event
            self.seq = event["seq"] + 1
            if limit is not None:
                limit -= 1
                if limit <= 0:
                    return
        self.seq = self.end
