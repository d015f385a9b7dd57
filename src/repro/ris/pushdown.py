"""Record-level filter push-down for the archive read path.

:class:`RecordFilter` is the archive-side mirror of the BGPStream filter
language (``repro.bgpstream``): the same clause semantics, applied to
decoded :class:`~repro.bgp.messages.Record` objects *before* they are
turned into stream elements — and, one level deeper, to raw MRT records
before path attributes are decoded (see
:func:`repro.mrt.files.read_updates_file`).

The filter is immutable and picklable so it can cross the process
boundary into :mod:`repro.ris.parallel` workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bgp.messages import Record, UpdateRecord
from repro.net.prefix import Prefix

__all__ = ["RecordFilter"]


@dataclass(frozen=True)
class RecordFilter:
    """Pushed-down filter clauses, ANDed together (empty clause = pass).

    Every clause but ``ipversion`` is a set whose members are ORed:
    ``prefix_exact`` holds the prefixes wanted exactly, ``prefix_more``
    the prefixes wanted with their more specifics — as repeated
    ``add_filter('prefix-exact', p)`` calls do in pybgpstream.
    ``elem_types`` uses the stream element letters (``"A"``/``"W"``);
    state records never carry one, so any ``type`` clause excludes them —
    exactly as the element-level oracle
    (``repro.bgpstream.stream._match_elem``) treats ``"S"`` elements.
    """

    peers: frozenset = frozenset()
    collectors: frozenset = frozenset()
    ipversion: Optional[int] = None
    elem_types: frozenset = frozenset()
    prefix_exact: frozenset = frozenset()
    prefix_more: frozenset = frozenset()

    def __bool__(self) -> bool:
        return bool(self.peers or self.collectors or self.elem_types
                    or self.has_prefix_clause)

    @property
    def has_prefix_clause(self) -> bool:
        return bool(self.prefix_exact or self.prefix_more
                    or self.ipversion is not None)

    def match_prefix(self, prefix: Prefix) -> bool:
        if self.ipversion == 4 and not prefix.is_ipv4:
            return False
        if self.ipversion == 6 and not prefix.is_ipv6:
            return False
        if self.prefix_exact and prefix not in self.prefix_exact:
            return False
        if self.prefix_more and not any(
                wanted.contains(prefix) for wanted in self.prefix_more):
            return False
        return True

    def matches_record(self, record: Record) -> bool:
        """Record-level equivalent of element matching (1:1 per record)."""
        if self.peers and record.peer_asn not in self.peers:
            return False
        if self.collectors and record.collector not in self.collectors:
            return False
        if isinstance(record, UpdateRecord):
            elem_type = "A" if record.is_announcement else "W"
            if self.elem_types and elem_type not in self.elem_types:
                return False
            return self.match_prefix(record.prefix)
        # State records: a `type` clause never names them, and they carry
        # no prefix so they cannot satisfy a prefix/ipversion clause.
        if self.elem_types:
            return False
        return not self.has_prefix_clause
