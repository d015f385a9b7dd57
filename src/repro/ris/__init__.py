"""RIPE RIS substrate: collectors, peers and the raw-data archive."""

from repro.ris.archive import (
    DEFAULT_CACHE_FILES,
    RIB_DUMP_SECONDS,
    UPDATE_BIN_SECONDS,
    Archive,
    ArchiveWriter,
)
from repro.ris.cache import DecodedFileCache
from repro.ris.chaos import ChaosReport, build_reference_archive, corrupt_archive
from repro.ris.collectors import DEFAULT_COLLECTORS, PeerRegistry, RISPeer
from repro.ris.pushdown import RecordFilter

__all__ = [
    "Archive",
    "ArchiveWriter",
    "UPDATE_BIN_SECONDS",
    "RIB_DUMP_SECONDS",
    "DEFAULT_CACHE_FILES",
    "ChaosReport",
    "DecodedFileCache",
    "build_reference_archive",
    "corrupt_archive",
    "RecordFilter",
    "PeerRegistry",
    "RISPeer",
    "DEFAULT_COLLECTORS",
]
