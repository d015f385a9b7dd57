"""pybgpstream-compatible facade over :class:`repro.ris.Archive` (either
layout: a :class:`repro.routeviews.RouteViewsArchive` is one too).

The paper's pipeline is what a real deployment would write against
pybgpstream; this module provides the same element interface so the
detection code ports to live BGPStream unchanged:

>>> stream = BGPStream(archive, from_time="2024-06-04 00:00",
...                    until_time="2024-06-05 00:00",
...                    record_type="updates",
...                    filter="prefix more 2a0d:3dc1::/32")   # doctest: +SKIP
>>> for elem in stream: ...                                   # doctest: +SKIP

Supported filter terms (a practical subset of the BGPStream filter
language): ``prefix exact P``, ``prefix more P`` (P and more specifics),
``peer A``, ``collector C``, ``ipversion 4|6``, ``type updates|withdrawals
|announcements``, joined by ``and``.  Terms of different kinds are
ANDed; repeated terms of one kind are ORed, so ``prefix exact A and
prefix exact B`` streams both prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

from repro.bgp.messages import StateRecord, UpdateRecord
from repro.net.prefix import Prefix
from repro.ris.archive import Archive
from repro.ris.pushdown import RecordFilter
from repro.utils.timeutil import from_iso

__all__ = ["BGPStream", "BGPElem", "FilterError", "compile_filter"]


class FilterError(ValueError):
    """The filter string could not be parsed."""


@lru_cache(maxsize=8192)
def _parse_prefix(text: str) -> Prefix:
    """Parse-once prefix cache: element streams repeat the same prefix
    strings thousands of times, and :class:`Prefix` is immutable."""
    return Prefix(text)


@dataclass(frozen=True)
class BGPElem:
    """One stream element, mirroring pybgpstream's ``BGPElem``.

    ``type`` is ``"A"`` (announcement), ``"W"`` (withdrawal), ``"S"``
    (peer state change) or ``"R"`` (RIB row).  Route details live in
    ``fields`` under pybgpstream's key names (``prefix``, ``as-path``,
    ``next-hop``, ``communities``).
    """

    type: str
    time: int
    collector: str
    peer_asn: int
    peer_address: str
    fields: dict = field(default_factory=dict)

    @property
    def prefix(self) -> Optional[Prefix]:
        raw = self.fields.get("prefix")
        return _parse_prefix(raw) if raw is not None else None

    @property
    def as_path(self) -> Optional[str]:
        return self.fields.get("as-path")


_ELEM_TYPES = {"updates": {"A", "W"}, "announcements": {"A"},
               "withdrawals": {"W"}}


def compile_filter(text: Optional[str]) -> RecordFilter:
    """Compile a BGPStream filter string into a pushed-down
    :class:`~repro.ris.pushdown.RecordFilter` usable directly with
    :meth:`repro.ris.Archive.iter_updates`.  Clauses of different types
    are ANDed; repeated clauses of one type (``prefix exact A and prefix
    exact B``) are ORed, like repeated ``add_filter`` calls in pybgpstream."""
    sets: dict[str, set] = {name: set() for name in (
        "peers", "collectors", "elem_types", "prefix_exact", "prefix_more")}
    ipversion = None
    for clause in (text or "").split(" and "):
        tokens = clause.split()
        if not tokens:
            continue
        keyword, values = tokens[0], tokens[1:]
        try:
            if keyword == "prefix":
                mode, value = values[0], values[1]
                if mode not in ("exact", "more"):
                    raise FilterError(f"unknown prefix mode {mode!r}")
                sets[f"prefix_{mode}"].add(Prefix(value))
            elif keyword in ("peer", "collector"):
                if not values:
                    raise FilterError(f"clause {clause!r} needs a value")
                sets[f"{keyword}s"].update(
                    map(int, values) if keyword == "peer" else values)
            elif keyword == "ipversion":
                ipversion = int(values[0])
            elif keyword == "type":
                sets["elem_types"].update(_ELEM_TYPES[values[0]])
            else:
                raise FilterError(f"unknown filter keyword {keyword!r}")
        except (IndexError, ValueError, KeyError) as exc:
            if isinstance(exc, FilterError):
                raise
            raise FilterError(f"cannot parse clause {clause!r}") from exc
    return RecordFilter(ipversion=ipversion, **{
        name: frozenset(values) for name, values in sets.items()})


def _match_elem(record_filter: RecordFilter, elem: BGPElem) -> bool:
    """The filter on one element — RIB rows; updates are filtered below
    decode in the archive."""
    if record_filter.elem_types and elem.type not in record_filter.elem_types:
        return False
    if record_filter.peers and elem.peer_asn not in record_filter.peers:
        return False
    if record_filter.collectors and elem.collector not in record_filter.collectors:
        return False
    if elem.type in ("A", "W", "R"):
        return record_filter.match_prefix(_parse_prefix(elem.fields["prefix"]))
    # State elems carry no prefix: they cannot match a prefix clause.
    return not record_filter.has_prefix_clause


class BGPStream:
    """Iterate archive data as :class:`BGPElem` objects."""

    def __init__(self, archive: Union[Archive, str],
                 from_time: Union[int, str],
                 until_time: Union[int, str],
                 collectors: Optional[Sequence[str]] = None,
                 record_type: str = "updates",
                 filter: Optional[str] = None,
                 workers: int = 1):
        self.archive = (archive if isinstance(archive, Archive)
                        else Archive(archive, workers=workers))
        self.from_time = from_time if isinstance(from_time, int) else from_iso(from_time)
        self.until_time = until_time if isinstance(until_time, int) else from_iso(until_time)
        if record_type not in ("updates", "ribs"):
            raise ValueError(f"record_type must be 'updates' or 'ribs', got {record_type!r}")
        self.record_type = record_type
        self.collectors = list(collectors) if collectors else None
        self._filter = compile_filter(filter)
        if self.collectors is None and self._filter.collectors:
            self.collectors = sorted(self._filter.collectors)

    def __iter__(self) -> Iterator[BGPElem]:
        if self.record_type == "updates":
            yield from self._iter_updates()
        else:
            yield from self._iter_ribs()

    def _iter_updates(self) -> Iterator[BGPElem]:
        # Filter clauses are pushed down into the archive read path
        # (NLRI prematch, record-level match), so
        # every record that comes back is already a match.
        for record in self.archive.iter_updates(
                self.from_time, self.until_time, self.collectors,
                record_filter=self._filter):
            yield _record_to_elem(record)

    def _iter_ribs(self) -> Iterator[BGPElem]:
        for dump in self.archive.iter_ribs(self.from_time, self.until_time,
                                           self.collectors):
            for prefix in sorted(dump.entries.keys()):
                for peer, entry in dump.routes_for(prefix):
                    elem = BGPElem(
                        type="R",
                        time=dump.timestamp,
                        collector=dump.collector,
                        peer_asn=peer.asn,
                        peer_address=peer.address,
                        fields={
                            "prefix": str(prefix),
                            "as-path": str(entry.attributes.as_path),
                            "next-hop": entry.attributes.next_hop,
                            "originated": entry.originated_time,
                        },
                    )
                    if _match_elem(self._filter, elem):
                        yield elem


def _record_to_elem(record) -> BGPElem:
    if isinstance(record, StateRecord):
        return BGPElem(
            type="S",
            time=record.timestamp,
            collector=record.collector,
            peer_asn=record.peer_asn,
            peer_address=record.peer_address,
            fields={"old-state": record.old_state.name.lower(),
                    "new-state": record.new_state.name.lower()},
        )
    assert isinstance(record, UpdateRecord)
    fields = {"prefix": str(record.prefix)}
    if record.is_announcement:
        attrs = record.attributes
        fields["as-path"] = str(attrs.as_path)
        fields["next-hop"] = attrs.next_hop
        if attrs.communities:
            fields["communities"] = attrs.community_strings()
        if attrs.aggregator is not None:
            fields["aggregator"] = str(attrs.aggregator)
    return BGPElem(
        type="A" if record.is_announcement else "W",
        time=record.timestamp,
        collector=record.collector,
        peer_asn=record.peer_asn,
        peer_address=record.peer_address,
        fields=fields,
    )
