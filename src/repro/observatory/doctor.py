"""Event-store fsck: verify, and where possible repair, a store on disk.

The store's own open-time recovery only handles the *expected* crash
artefact (a partially written trailing line in the active segment).
The doctor handles the rest of the failure model:

* **torn segments** — partial trailing lines, in any JSONL segment;
* **bit rot** — a sealed segment whose bytes no longer match the
  sha256 recorded in the manifest at seal time, or a binary columnar
  segment whose envelope, column geometry, checksum, or footer
  min/max no longer hold together (columnar files are deep-checked
  with :meth:`~repro.observatory.colseg.ColumnarSegment.verify`);
* **orphaned files** — segment files on disk the manifest does not
  know about (artefacts of an interrupted truncate/compact);
* **manifest drift** — counts/indexes that disagree with segment
  contents, missing seal hashes, seq discontinuities between segments,
  or a manifest that is itself unreadable;
* **forensics drift** — on a structurally clean store, a semantic
  sweep of the pre-outbreak ``forensics`` snapshot records (DESIGN.md
  §16): required fields present, the snapshot's outbreak id pairs with
  an ``outbreak`` event actually in the store, and the prefix embedded
  in the id agrees with the snapshot's own prefix field.  Semantic
  drift is reported, never repaired — the snapshot is the evidence,
  and rewriting evidence is worse than flagging it.

Repair policy: consistency over completeness.  Torn JSONL tails are
cut back to the last complete line; orphans are moved aside (renamed
with an ``.orphan`` suffix, never deleted); drifted manifest entries
are rebuilt from segment contents; an unreadable manifest is rebuilt
from the segment files themselves.  Damage to *sealed* bytes — bit
rot, a corrupt columnar segment, or a missing sealed segment — cannot
be undone (a binary segment has no salvageable line-prefix), so repair
truncates the store at the first damaged seq to restore a consistent
prefix, and the run reports the loss: :func:`fsck` exits the CLI
nonzero whenever events were (or would be) lost.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from repro.observatory.colseg import ColsegError, ColumnarSegment
from repro.observatory.store import (
    EventStore,
    _complete_lines,
    _Segment,
    file_sha256,
    read_manifest,
    write_manifest,
)
from repro.observatory.forensics import outbreak_prefix

__all__ = ["FsckReport", "fsck"]

_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.(jsonl|colseg)$")


def _segment_files(root: Path) -> list[Path]:
    """Segment files of both formats, name-sorted (== seq-sorted)."""
    return sorted([*root.glob("seg-*.jsonl"), *root.glob("seg-*.colseg")])


def _not_ascending(seqs: list) -> bool:
    return any(b <= a for a, b in zip(seqs, seqs[1:]))


@dataclass
class FsckReport:
    """Everything one fsck pass found (and, under repair, did)."""

    root: str
    repair: bool
    segments_checked: int = 0
    events_checked: int = 0
    #: issue strings, in discovery order — empty means the store is clean.
    issues: list[str] = field(default_factory=list)
    #: repair actions taken (repair mode only).
    actions: list[str] = field(default_factory=list)
    torn_segments: int = 0
    bitrot_segments: int = 0
    missing_segments: int = 0
    orphan_files: int = 0
    drifted_entries: int = 0
    manifest_rebuilt: bool = False
    #: forensics snapshot records semantically swept (clean stores only).
    forensics_checked: int = 0
    #: events dropped (repair) or doomed (check) by unrecoverable damage.
    events_lost: int = 0

    @property
    def clean(self) -> bool:
        return not self.issues

    @property
    def unrecoverable(self) -> bool:
        """True when event data was (or would be) lost — the condition
        the doctor CLI turns into a nonzero exit."""
        return self.events_lost > 0

    def issue(self, text: str) -> None:
        self.issues.append(text)

    def action(self, text: str) -> None:
        self.actions.append(text)

    def as_dict(self) -> dict[str, Any]:
        return {
            "root": self.root,
            "repair": self.repair,
            "clean": self.clean,
            "unrecoverable": self.unrecoverable,
            "segments_checked": self.segments_checked,
            "events_checked": self.events_checked,
            "torn_segments": self.torn_segments,
            "bitrot_segments": self.bitrot_segments,
            "missing_segments": self.missing_segments,
            "orphan_files": self.orphan_files,
            "drifted_entries": self.drifted_entries,
            "manifest_rebuilt": self.manifest_rebuilt,
            "forensics_checked": self.forensics_checked,
            "events_lost": self.events_lost,
            "issues": list(self.issues),
            "actions": list(self.actions),
        }


def _scan_segment(path: Path) -> tuple[Optional[_Segment], list[int], int]:
    """Parse one segment file: returns (rebuilt entry, seqs, torn bytes).

    The entry is built purely from the file's complete lines; ``None``
    when the file has no parseable events at all.  ``torn`` is how many
    trailing bytes are not part of a complete, parseable line.
    """
    data = path.read_bytes()
    lines, complete = _complete_lines(data)
    events = []
    good_end = 0
    offset = 0
    for line in lines:
        try:
            event = json.loads(line)
            if not isinstance(event, dict) or "seq" not in event:
                raise ValueError("not an event object")
        except ValueError:
            break  # treat everything from the first bad line as torn
        events.append(event)
        offset += len(line) + 1
        good_end = offset
    torn = len(data) - good_end
    if not events:
        return None, [], torn
    match = _SEGMENT_RE.match(path.name)
    first_seq = int(match.group(1)) if match else events[0]["seq"]
    entry = _Segment(name=path.name, first_seq=first_seq)
    for event in events:
        entry.note(event)
    return entry, [event["seq"] for event in events], torn


def _scan_columnar(path: Path
                   ) -> tuple[Optional[_Segment], list[int], list[str]]:
    """Deep-check one ``.colseg`` file: returns (rebuilt entry, seqs,
    issue strings).

    Open-time validation covers envelope magic/version, footer shape,
    and column-length agreement; :meth:`ColumnarSegment.verify` adds
    the data-region checksum and footer min/max consistency.  A file
    that fails any of it yields ``(None, [], issues)`` — a binary
    segment has no salvageable prefix the way a torn JSONL file does.
    """
    try:
        reader = ColumnarSegment(path)
    except (ColsegError, OSError) as exc:
        return None, [], [f"unreadable columnar segment {path.name}: {exc}"]
    try:
        issues = [f"{path.name}: {text}" for text in reader.verify()]
        events = list(reader.scan())
    except (ColsegError, ValueError) as exc:
        return None, [], [f"corrupt columnar segment {path.name}: {exc}"]
    finally:
        reader.close()
    if issues:
        return None, [], issues
    if not events:
        return None, [], [f"columnar segment {path.name} holds no events"]
    match = _SEGMENT_RE.match(path.name)
    first_seq = int(match.group(1)) if match else events[0]["seq"]
    entry = _Segment(name=path.name, first_seq=first_seq,
                     format="columnar")
    for event in events:
        entry.note(event)
    entry.sealed = True
    return entry, [event["seq"] for event in events], []


def _truncate_file(path: Path, keep: int) -> None:
    with open(path, "r+b") as handle:
        handle.truncate(keep)


def _load_manifest(root: Path, report: FsckReport
                   ) -> Optional[tuple[list[_Segment], int, int]]:
    if not (root / "manifest.json").exists():
        report.issue("manifest.json is missing")
        return None
    try:
        return read_manifest((root / "manifest.json").read_bytes())
    except (ValueError, KeyError, TypeError) as exc:
        report.issue(f"manifest.json is unreadable: {exc}")
        return None


def fsck(root: Union[str, Path], repair: bool = False) -> FsckReport:
    """Check (and with ``repair=True`` fix) the store under ``root``.

    Always safe on a store no writer currently has open.  Check mode
    never touches the disk; repair mode performs the policy described
    in the module docstring and leaves a store that
    :class:`~repro.observatory.store.EventStore` opens cleanly.  A
    directory with neither a manifest nor a segment file is not a store:
    ``FileNotFoundError``, and nothing is written.
    """
    root = Path(root)
    report = FsckReport(root=str(root), repair=repair)
    if not root.is_dir():
        report.issue(f"not a directory: {root}")
        return report
    if not (root / "manifest.json").exists() and not _segment_files(root):
        # Nothing to check or rebuild from: repairing would make up an
        # empty store where there never was one.
        raise FileNotFoundError(f"not an event store (no manifest): {root}")

    loaded = _load_manifest(root, report)
    if loaded is None:
        return _rebuild_from_files(root, report)
    manifest_segments, next_seq, generation = loaded
    known = {segment.name for segment in manifest_segments}

    # Orphaned segment files: on disk, unknown to the manifest.
    for path in _segment_files(root):
        if path.name in known:
            continue
        report.orphan_files += 1
        report.issue(f"orphaned segment file: {path.name}")
        if repair:
            path.rename(path.with_name(path.name + ".orphan"))
            report.action(f"moved {path.name} aside as {path.name}.orphan")

    surviving: list[_Segment] = []
    damaged_from: Optional[int] = None  # seq where the consistent prefix ends
    expected_seq = None
    for position, entry in enumerate(manifest_segments):
        report.segments_checked += 1
        is_active = position == len(manifest_segments) - 1 \
            and not entry.sealed
        path = root / entry.name
        # Compaction folds events *inside* segments, so seqs are gapped
        # — both across and within segments — and only *order* can be
        # checked: overlap is damage, a gap is not.
        if expected_seq is not None and entry.first_seq < expected_seq:
            report.issue(
                f"overlapping seqs before {entry.name}: previous segment "
                f"ends at {expected_seq - 1}, manifest says first_seq "
                f"{entry.first_seq}")
            damaged_from = expected_seq
            break
        if not path.exists():
            if entry.count == 0 and is_active:
                # A crash between sealing and the first append of a new
                # segment legitimately leaves an empty active entry.
                surviving.append(entry)
                expected_seq = entry.first_seq
                continue
            report.missing_segments += 1
            report.issue(f"missing segment file: {entry.name} "
                         f"({entry.count} events)")
            damaged_from = entry.first_seq
            break
        if entry.sealed and entry.sha256 is not None:
            actual = file_sha256(path)
            if actual != entry.sha256:
                report.bitrot_segments += 1
                report.issue(
                    f"bit rot in sealed segment {entry.name}: sha256 "
                    f"{actual[:12]}… != manifest {entry.sha256[:12]}…")
                damaged_from = entry.first_seq
                break
        if entry.format == "columnar":
            rebuilt, seqs, colseg_issues = _scan_columnar(path)
            if rebuilt is None:
                report.bitrot_segments += 1
                for text in colseg_issues:
                    report.issue(text)
                damaged_from = entry.first_seq
                break
            report.events_checked += rebuilt.count
            if seqs[0] != entry.first_seq or _not_ascending(seqs):
                report.issue(f"non-ascending seqs inside {entry.name}")
                damaged_from = entry.first_seq
                break
            rebuilt.sha256 = entry.sha256
            if rebuilt.to_json() != entry.to_json():
                report.drifted_entries += 1
                report.issue(f"manifest entry for {entry.name} does not "
                             f"match segment contents")
            if entry.sha256 is None:
                report.issue(f"sealed segment {entry.name} has no "
                             f"recorded sha256")
                if repair:
                    rebuilt.sha256 = file_sha256(path)
                    report.action(f"recorded sha256 for {entry.name}")
            surviving.append(rebuilt)
            expected_seq = rebuilt.end_seq
            continue
        rebuilt, seqs, torn = _scan_segment(path)
        if torn:
            report.torn_segments += 1
            report.issue(f"torn segment {entry.name}: {torn} trailing "
                         f"bytes are not a complete event line")
            if entry.sealed:
                # A sealed segment must be complete; losing its tail is
                # real damage (its hash, if any, already failed above).
                damaged_from = (seqs[-1] + 1 if seqs else entry.first_seq)
                if repair:
                    _truncate_file(path, path.stat().st_size - torn)
                    report.action(f"cut {torn} torn bytes from {entry.name}")
                if rebuilt is not None:
                    rebuilt.sealed = False
                    surviving.append(rebuilt)
                break
            if repair:
                _truncate_file(path, path.stat().st_size - torn)
                report.action(f"cut {torn} torn bytes from {entry.name}")
        if rebuilt is None:
            rebuilt = _Segment(name=entry.name, first_seq=entry.first_seq)
        report.events_checked += rebuilt.count
        if seqs and (seqs[0] != entry.first_seq or _not_ascending(seqs)):
            report.issue(f"non-ascending seqs inside {entry.name}")
            damaged_from = entry.first_seq
            break
        expected = entry.to_json()
        rebuilt.sealed = entry.sealed
        rebuilt.sha256 = entry.sha256
        if not torn and rebuilt.to_json() != expected:
            report.drifted_entries += 1
            report.issue(f"manifest entry for {entry.name} does not match "
                         f"segment contents")
        if entry.sealed and entry.sha256 is None:
            report.issue(f"sealed segment {entry.name} has no recorded "
                         f"sha256")
            if repair:
                rebuilt.sha256 = file_sha256(path)
                report.action(f"recorded sha256 for {entry.name}")
        surviving.append(rebuilt)
        expected_seq = rebuilt.end_seq

    if damaged_from is not None:
        doomed = max(0, next_seq - damaged_from)
        report.events_lost += doomed
        if repair:
            kept_names = {segment.name for segment in surviving}
            for entry in manifest_segments:
                if entry.first_seq >= damaged_from \
                        and entry.name not in kept_names:
                    stale = root / entry.name
                    if stale.exists():
                        stale.rename(
                            stale.with_name(stale.name + ".orphan"))
                        report.action(f"moved damaged {entry.name} aside")
            next_seq = damaged_from
            report.action(f"truncated store at seq {damaged_from} "
                          f"({doomed} events lost)")
    else:
        tail_end = surviving[-1].end_seq if surviving else 0
        if next_seq != tail_end:
            report.issue(f"manifest next_seq {next_seq} != end of last "
                         f"segment {tail_end}")
            if repair:
                report.action(f"reset next_seq to {tail_end}")
            next_seq = tail_end

    if repair and not report.clean:
        # Reopen the tail for appends — a columnar tail stays sealed
        # (the binary format is immutable; the store appends after it).
        if surviving and surviving[-1].format == "jsonl":
            surviving[-1].sealed = False
            surviving[-1].sha256 = None
        # A new generation: watermark readers must not trust history
        # they read before the repair.
        write_manifest(root, surviving, next_seq, generation + 1)
        report.action("rewrote manifest.json")
    if report.clean:
        # Only a structurally sound store earns the semantic sweep —
        # on a damaged one every finding would be noise on top of the
        # real (structural) problem.
        _check_forensics(root, report)
    return report


def _check_forensics(root: Path, report: FsckReport) -> None:
    """Semantic sweep of the pre-outbreak forensics records.

    Every ``forensics`` event must carry its identity fields, its
    ``peers`` ring excerpt must be a list, its ``outbreak_id`` must
    pair with an ``outbreak`` event the store actually holds, and the
    prefix embedded in the id must agree with the record's own prefix
    field (federation pins the owning shard off the id, so drift there
    means routed lookups would miss).  Findings are check-level only:
    the snapshot is evidence captured at detection time, and no repair
    can reconstruct it after the fact.
    """
    try:
        store = EventStore(root, readonly=True)
    except (OSError, ValueError):
        return  # structural checks already said everything useful
    try:
        outbreak_ids = set()
        for event in store.events(kinds=("outbreak",)):
            identifier = event.get("id")
            if identifier is not None:
                outbreak_ids.add(identifier)
        for event in store.events(kinds=("forensics",)):
            report.forensics_checked += 1
            where = f"forensics event seq {event.get('seq')}"
            missing = [name for name in ("outbreak_id", "prefix", "peers")
                       if name not in event]
            if missing:
                report.issue(f"{where}: missing field(s) "
                             f"{', '.join(missing)}")
                continue
            if not isinstance(event["peers"], list):
                report.issue(f"{where}: peers is not a list")
            identifier = event["outbreak_id"]
            if identifier not in outbreak_ids:
                report.issue(f"{where}: snapshot for unknown outbreak "
                             f"{identifier!r} (no matching outbreak event)")
            embedded = outbreak_prefix(identifier)
            if not embedded:
                report.issue(f"{where}: malformed outbreak id "
                             f"{identifier!r}")
            elif embedded != event["prefix"]:
                report.issue(f"{where}: prefix {event['prefix']!r} "
                             f"disagrees with outbreak id {identifier!r}")
    finally:
        store.close()


def _rebuild_from_files(root: Path, report: FsckReport) -> FsckReport:
    """Manifest gone or unreadable: reconstruct it from the segment
    files.  Integrity of sealed history can no longer be verified (the
    seal hashes died with the manifest), which the report says out loud."""
    segments: list[_Segment] = []
    expected_seq: Optional[int] = None
    for path in _segment_files(root):
        report.segments_checked += 1
        if path.suffix == ".colseg":
            entry, seqs, colseg_issues = _scan_columnar(path)
            if entry is None:
                report.bitrot_segments += 1
                for text in colseg_issues:
                    report.issue(text)
                if report.repair:
                    path.rename(path.with_name(path.name + ".orphan"))
                    report.action(f"moved corrupt {path.name} aside")
                continue
        else:
            entry, seqs, torn = _scan_segment(path)
            if torn:
                report.torn_segments += 1
                report.issue(f"torn segment {path.name}: {torn} "
                             f"trailing bytes")
                if report.repair:
                    _truncate_file(path, path.stat().st_size - torn)
                    report.action(f"cut {torn} torn bytes from {path.name}")
            if entry is None:
                continue
        # Seq gaps are legitimate (compaction folds events in place),
        # so only *order* violations condemn a file here.
        if expected_seq is not None and entry.first_seq < expected_seq:
            report.issue(f"overlapping seqs before {path.name}: previous "
                         f"file ends at {expected_seq - 1}, this one "
                         f"starts at {entry.first_seq}")
            report.events_lost += entry.count
            if report.repair:
                path.rename(path.with_name(path.name + ".orphan"))
                report.action(f"moved overlapping {path.name} aside")
            continue
        report.events_checked += entry.count
        if seqs[0] != entry.first_seq or _not_ascending(seqs):
            report.issue(f"non-ascending seqs inside {path.name}")
            report.events_lost += entry.count
            if report.repair:
                path.rename(path.with_name(path.name + ".orphan"))
                report.action(f"moved inconsistent {path.name} aside")
            continue
        entry.sealed = True
        if report.repair:
            entry.sha256 = file_sha256(path)
        segments.append(entry)
        expected_seq = entry.end_seq
    report.issue("sealed-history integrity is unverifiable without the "
                 "original manifest hashes")
    if report.repair:
        next_seq = segments[-1].end_seq if segments else 0
        if segments and segments[-1].format == "jsonl":
            segments[-1].sealed = False
            segments[-1].sha256 = None
        write_manifest(root, segments, next_seq,
                        _salvage_generation(root))
        report.manifest_rebuilt = True
        report.action("rebuilt manifest.json from segment files")
    return report


def _salvage_generation(root: Path) -> int:
    """A generation for the rebuilt manifest that is unambiguously new.

    A tailing reader (views/ETags) that knew generation N would miss
    the history rewrite if the rebuilt store landed on a generation it
    had already seen — which hardcoding a constant does for any store
    that was ever truncated/compacted.  Best effort: fish the old value
    out of whatever manifest bytes remain and go one past it; with
    nothing to salvage, fall back to the epoch clock, far above any
    incrementally bumped generation."""
    best = None
    for name in ("manifest.json", "manifest.json.tmp"):
        try:
            text = (root / name).read_text(encoding="utf-8",
                                           errors="replace")
        except OSError:
            continue
        for match in re.findall(r'"generation"\s*:\s*(\d+)', text):
            value = int(match)
            best = value if best is None else max(best, value)
    if best is not None:
        return best + 1
    import time
    return int(time.time())
