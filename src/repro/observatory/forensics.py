"""Pre-outbreak forensics: the bounded last-announcement ring and the
``/outbreaks/<id>/forensics`` body renderer.

The companion ``zombie-record-finder`` workflow answers "what was each
router's last AS_PATH before the outbreak?" by re-scanning the archive
after the fact — O(archive) per question.  The observatory instead
keeps a bounded per-(peer, prefix) *last-announcement ring* inside the
ingest loop: every update record for a watched beacon prefix refreshes
one entry, and the moment an outbreak event lands the ring is frozen
into a durable ``forensics`` event right next to it in the store.
Serving the question is then O(outbreak): one view lookup plus a render
over the (bounded) per-prefix snapshot.

Determinism is inherited, not re-proven: the ring is a pure function of
the consumed record stream, its snapshot rides in the versioned ingest
checkpoint, and the ``forensics`` append happens in the same
deterministic position as the ``outbreak`` append it documents — so
kill-resume byte-identity holds with the ring enabled.

The ring is insertion-ordered (a plain dict) and capacity-bounded:
every touch moves the entry to the tail, overflow evicts from the head
(least-recently-touched), which keeps both memory and snapshot size
O(capacity) regardless of archive length.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.beacons.aggregator import AggregatorClock
from repro.bgp.attributes import ASPath
from repro.bgp.messages import UpdateRecord
from repro.core.rootcause import build_palm_tree
from repro.core.state import PeerKey

__all__ = ["LastAnnouncementRing", "render_forensics",
           "outbreak_id", "outbreak_prefix", "RING_SNAPSHOT_VERSION"]

#: Ring snapshot document version (bumped on incompatible changes).
RING_SNAPSHOT_VERSION = 1

#: Field separator for minted outbreak IDs.  ``~`` is URL-safe (RFC
#: 3986 unreserved) and cannot appear in a prefix, collector name or
#: peer address, so the ID parses back unambiguously.
_ID_SEPARATOR = "~"


def outbreak_id(payload: dict) -> str:
    """Mint the stable ID of one ``outbreak`` event payload.

    Deterministic in the alert's identity fields — the same outbreak
    gets the same ID across kill-resume, re-ingest and live streaming —
    and it *leads with the prefix*, so the federation tier can derive
    the owning shard from the ID alone (the prefix pins the shard).
    """
    return _ID_SEPARATOR.join((
        payload["prefix"], str(payload["announce_time"]),
        payload["collector"], payload["peer_address"]))


def outbreak_prefix(identifier: str) -> str:
    """The prefix component of a minted outbreak ID ("" if malformed)."""
    parts = identifier.split(_ID_SEPARATOR)
    return parts[0] if len(parts) == 4 else ""

#: Default bound on tracked (peer, prefix) entries.  RIS beacon
#: monitoring is small: #beacon prefixes × #full-feed peers per
#: collector — a few thousand entries covers every deployment in the
#: paper with room to spare.
DEFAULT_RING_CAPACITY = 4096


class LastAnnouncementRing:
    """Bounded per-(peer, prefix) last-announcement state.

    ``observe`` consumes update records in stream order; ``snapshot`` /
    ``from_snapshot`` round-trip the exact state (including recency
    order) for the ingest checkpoint; ``snapshot_for`` freezes one
    prefix's entries for a ``forensics`` event.
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY,
                 prefixes: Optional[Iterable[str]] = None,
                 excluded_peers: frozenset[PeerKey] = frozenset()):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        #: watched prefixes (None = watch everything).
        self.prefixes = frozenset(str(p) for p in prefixes) \
            if prefixes is not None else None
        self.excluded_peers = excluded_peers
        self.evictions = 0
        #: (prefix, collector, peer_address) -> entry, in recency order.
        self._entries: dict[tuple[str, str, str], dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def observe(self, record: Any) -> None:
        """Fold one record (announcements refresh an entry, withdrawals
        stamp ``withdrawn_at``; session records are ignored — the last
        *path* remains forensic evidence even if the session bounced)."""
        if not isinstance(record, UpdateRecord):
            return
        prefix = str(record.prefix)
        if self.prefixes is not None and prefix not in self.prefixes:
            return
        if (record.collector, record.peer_address) in self.excluded_peers:
            return
        key = (prefix, record.collector, record.peer_address)
        if record.is_announcement:
            attributes = record.attributes
            aggregator = attributes.aggregator
            entry = {
                "prefix": prefix,
                "collector": record.collector,
                "peer_address": record.peer_address,
                "peer_asn": record.peer_asn,
                "path": str(attributes.as_path),
                "announced_at": record.timestamp,
                "withdrawn_at": None,
                "aggregator_asn":
                    aggregator.asn if aggregator is not None else None,
                "aggregator_address":
                    aggregator.address if aggregator is not None else None,
            }
        else:
            entry = self._entries.pop(key, None)
            if entry is None:
                return  # withdrawal for a route we never saw announced
            entry["withdrawn_at"] = record.timestamp
        self._entries.pop(key, None)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1

    def snapshot_for(self, prefix: str) -> list[dict[str, Any]]:
        """The frozen per-peer entries for one prefix, recency-ordered
        (an O(capacity) scan — the ring is bounded by construction)."""
        return [dict(entry) for (entry_prefix, _, _), entry
                in self._entries.items() if entry_prefix == prefix]

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe document for the ingest checkpoint; order matters
        (it IS the eviction order) and is preserved verbatim."""
        return {
            "version": RING_SNAPSHOT_VERSION,
            "capacity": self.capacity,
            "evictions": self.evictions,
            "entries": [dict(entry) for entry in self._entries.values()],
        }

    @classmethod
    def from_snapshot(cls, document: dict[str, Any],
                      prefixes: Optional[Iterable[str]] = None,
                      excluded_peers: frozenset[PeerKey] = frozenset()
                      ) -> "LastAnnouncementRing":
        if document.get("version") != RING_SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported ring snapshot version: "
                f"{document.get('version')!r}")
        ring = cls(document["capacity"], prefixes=prefixes,
                   excluded_peers=excluded_peers)
        ring.evictions = document["evictions"]
        for entry in document["entries"]:
            key = (entry["prefix"], entry["collector"],
                   entry["peer_address"])
            ring._entries[key] = dict(entry)
        return ring


def forensics_payload(alert_payload: dict[str, Any], origin_asn: int,
                      ring: LastAnnouncementRing) -> dict[str, Any]:
    """The durable ``forensics`` event body for one outbreak event.

    Carries ``prefix`` so the shard router co-locates it with its
    outbreak, and the full ring snapshot for that prefix so serving
    never needs the archive again.
    """
    return {
        "outbreak_id": alert_payload["id"],
        "prefix": alert_payload["prefix"],
        "origin_asn": origin_asn,
        "collector": alert_payload["collector"],
        "peer_address": alert_payload["peer_address"],
        "peer_asn": alert_payload["peer_asn"],
        "announce_time": alert_payload["announce_time"],
        "withdraw_time": alert_payload["withdraw_time"],
        "detected_at": alert_payload["detected_at"],
        "peers": ring.snapshot_for(alert_payload["prefix"]),
    }


def render_forensics(event: dict[str, Any]) -> dict[str, Any]:
    """The ``/outbreaks/<id>/forensics`` body for one stored event.

    A pure function of the event, so the monolithic server and every
    federation shard render byte-identical answers.
    Peers that never withdrew by snapshot time are the zombie-path
    candidates fed to the palm tree; ``rooted_paths``/``total_paths``
    let the caller tell "no suspect" from "no evidence".
    """
    origin_asn = event["origin_asn"]
    peers = []
    stuck_paths = []
    for entry in event["peers"]:
        address = entry.get("aggregator_address")
        origin_time = None
        if address is not None and AggregatorClock.is_clock_address(address):
            origin_time = AggregatorClock.decode(address,
                                                 entry["announced_at"])
        peers.append({**entry, "origin_time": origin_time})
        if entry["withdrawn_at"] is None and entry["path"]:
            stuck_paths.append(ASPath.from_string(entry["path"]))
    tree = build_palm_tree(stuck_paths, origin_asn)
    return {
        "outbreak_id": event["outbreak_id"],
        "prefix": event["prefix"],
        "origin_asn": origin_asn,
        "collector": event["collector"],
        "peer_address": event["peer_address"],
        "peer_asn": event["peer_asn"],
        "announce_time": event["announce_time"],
        "withdraw_time": event["withdraw_time"],
        "detected_at": event["detected_at"],
        "snapshot_seq": event["seq"],
        "snapshot_time": event["time"],
        "peers": peers,
        "root_cause": {
            "suspect": tree.suspect,
            "trunk": list(tree.trunk),
            "branches": sorted(tree.branches),
            "rooted_paths": tree.rooted_paths,
            "total_paths": tree.total_paths,
            "verdict": tree.verdict,
        },
    }
