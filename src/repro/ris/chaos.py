"""Seeded corruption of on-disk archives, for chaos testing the ingest.

The chaos-smoke CI job and the resilience tests
(``tests/test_ris_chaos.py``) need to damage archive files the way real
collectors do — flipped bytes inside records, garbage runs between
records, files torn mid-record — while knowing *exactly* which records
were destroyed, so a supervised tolerant ingest can be asserted
byte-identical to a clean ingest of the surviving records.

Corruption operates on the decompressed MRT record stream, the layer
the tolerant decoder defends.  Decisions come from a seeded RNG, so a
given archive and seed always produce the same damage.

Three damage kinds:

``flip``      flip a byte the decoder is guaranteed to reject (the BGP
              marker of a message record, the state field of a
              state-change record) — destroys exactly that record;
``garbage``   insert a run of ``0xde 0xad`` filler before a record —
              forces a header resync but destroys nothing;
``truncate``  cut the file mid-way through its final record —
              destroys exactly the final record.

The filler pattern is chosen so no window of it (or of its boundary
with a real header) parses as a plausible MRT header, keeping the
resync cost deterministic.
"""

from __future__ import annotations

import random
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.mrt.bgp4mp import MRTRecordHeader, encode_mrt_record
from repro.mrt.constants import (
    BGP4MP_MESSAGE_AS4,
    BGP4MP_STATE_CHANGE,
    BGP4MP_STATE_CHANGE_AS4,
)
from repro.mrt.files import create_mrt, open_mrt
from repro.mrt.resilient import ErrorPolicy, ResilientReader
from repro.net.prefix import AFI_IPV4
from repro.ris.archive import RIS_LAYOUT, Layout

__all__ = ["ChaosReport", "corrupt_archive", "build_reference_archive"]

_U16_PAIR = struct.Struct("!HH")

#: Garbage filler; no 12-byte window over it is a plausible MRT header.
_FILLER = b"\xde\xad"


@dataclass
class ChaosReport:
    """What :func:`corrupt_archive` did, precisely enough to rebuild the
    expected surviving record stream."""

    files_seen: int = 0
    files_corrupted: int = 0
    records_total: int = 0
    records_destroyed: int = 0
    garbage_runs: int = 0
    garbage_bytes: int = 0
    truncations: int = 0
    #: relative file path -> sorted raw-record indexes destroyed in it.
    destroyed: dict[str, list[int]] = field(default_factory=dict)

    def merge(self, other: "ChaosReport") -> None:
        self.files_seen += other.files_seen
        self.files_corrupted += other.files_corrupted
        self.records_total += other.records_total
        self.records_destroyed += other.records_destroyed
        self.garbage_runs += other.garbage_runs
        self.garbage_bytes += other.garbage_bytes
        self.truncations += other.truncations
        for rel, indexes in other.destroyed.items():
            merged = sorted(set(self.destroyed.get(rel, [])) | set(indexes))
            self.destroyed[rel] = merged


def _raw_records(path: Path) -> list[tuple[MRTRecordHeader, bytes]]:
    """Every record of a clean file, read strictly."""
    with ResilientReader(path, ErrorPolicy.STRICT) as reader, \
            open_mrt(path) as handle:
        return list(reader.iter_raw(handle))


def _poison_record(header: MRTRecordHeader, body: bytes) -> bytes:
    """Flip bytes so the record is structurally intact (header length
    still true) but guaranteed to fail decoding."""
    mutated = bytearray(body)
    if header.subtype in (BGP4MP_STATE_CHANGE, BGP4MP_STATE_CHANGE_AS4):
        # An out-of-range PeerState value: decode raises ValueError.
        mutated[-2:] = b"\xff\xff"
        return bytes(mutated)
    # Message records: corrupt the first BGP marker byte (decode checks
    # the full 16-byte marker before anything else).
    asn_size = 8 if header.subtype == BGP4MP_MESSAGE_AS4 else 4
    _ifindex, afi = _U16_PAIR.unpack_from(body, asn_size)
    addr_len = 4 if afi == AFI_IPV4 else 16
    marker_at = asn_size + 4 + 2 * addr_len
    mutated[marker_at] ^= 0xFF
    return bytes(mutated)


def _rewrite(path: Path, payload: bytes) -> None:
    """Publish the corrupted decompressed stream (deterministic bytes,
    through the archive writer's own container helper)."""
    with create_mrt(path) as handle:
        handle.write(payload)


def corrupt_archive(root: Union[str, Path], *,
                    rate: float = 0.01,
                    garbage_rate: float = 0.0,
                    truncate_rate: float = 0.0,
                    seed: int = 0,
                    predicate: Optional[Callable[[Path], bool]] = None,
                    layout: Layout = RIS_LAYOUT) -> ChaosReport:
    """Damage the update files ``layout`` places under ``root`` in
    place, deterministically.

    ``rate`` is the per-record destruction probability, ``garbage_rate``
    the per-record probability of a garbage run being inserted before
    it, ``truncate_rate`` the per-file probability of tearing the file
    mid-way through its final record.  ``predicate`` (on the file path)
    restricts which files are eligible — the chaos tests use it to
    corrupt the not-yet-ingested half of a window mid-run.  Eligible
    files must be clean: they are read under ``strict``.

    Returns a :class:`ChaosReport`; ``report.destroyed`` is exactly what
    :func:`build_reference_archive` needs to construct the clean archive
    a tolerant ingest of the damaged one must be equivalent to.
    """
    root = Path(root)
    rng = random.Random(seed)
    report = ChaosReport()
    for path in layout.files(root, layout.updates):
        if predicate is not None and not predicate(path):
            continue
        report.files_seen += 1
        raws = _raw_records(path)
        report.records_total += len(raws)
        destroyed: list[int] = []
        pieces: list[bytes] = []
        damaged = False
        for position, (header, body) in enumerate(raws):
            if garbage_rate and rng.random() < garbage_rate:
                run = _FILLER * rng.randint(2, 32)
                pieces.append(run)
                report.garbage_runs += 1
                report.garbage_bytes += len(run)
                damaged = True
            if rate and rng.random() < rate:
                body = _poison_record(header, body)
                destroyed.append(position)
                damaged = True
            pieces.append(encode_mrt_record(
                header.timestamp, header.mrt_type, header.subtype, body))
        if truncate_rate and raws and rng.random() < truncate_rate:
            final = len(raws) - 1
            if final not in destroyed:
                destroyed.append(final)
            tail = pieces[-1]
            pieces[-1] = tail[:12 + max(1, (len(tail) - 12) // 2)]
            report.truncations += 1
            damaged = True
        if damaged:
            _rewrite(path, b"".join(pieces))
            report.files_corrupted += 1
            if destroyed:
                rel = str(path.relative_to(root))
                report.destroyed[rel] = sorted(destroyed)
                report.records_destroyed += len(destroyed)
    return report


def build_reference_archive(clean_root: Union[str, Path],
                            dest_root: Union[str, Path],
                            destroyed: dict[str, list[int]]) -> Path:
    """Copy ``clean_root`` to ``dest_root``, dropping the raw records a
    chaos run destroyed.

    A tolerant ingest of the corrupted archive must observe exactly the
    record stream this archive decodes to — which is what lets the chaos
    tests assert byte-identical event stores.
    """
    clean_root = Path(clean_root)
    dest_root = Path(dest_root)
    if dest_root.exists():
        shutil.rmtree(dest_root)
    shutil.copytree(clean_root, dest_root)
    for rel, indexes in sorted(destroyed.items()):
        path = dest_root / rel
        drop = set(indexes)
        kept: list[bytes] = []
        for position, (header, body) in enumerate(
                _raw_records(clean_root / rel)):
            if position not in drop:
                kept.append(encode_mrt_record(
                    header.timestamp, header.mrt_type, header.subtype, body))
        _rewrite(path, b"".join(kept))
    return dest_root
