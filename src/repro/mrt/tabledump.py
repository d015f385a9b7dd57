"""TABLE_DUMP_V2 codec: 8-hourly RIB snapshots ("bview" files).

A :class:`RibDump` is the in-memory form of one snapshot: the peer index
of a collector plus, for every prefix, the list of peers holding a route
and the attributes of that route.  The lifespan analysis
(:mod:`repro.core.lifespan`) consumes a time series of these.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Optional

from repro.bgp.attributes import PathAttributes
from repro.mrt.attr_codec import AttributeDecoder, encode_attributes, remember
from repro.mrt.bgp4mp import DECODE_ERRORS, MRTRecordHeader, encode_mrt_record
from repro.mrt.constants import (
    MRT_TABLE_DUMP_V2,
    PEER_TYPE_AS4,
    PEER_TYPE_IPV6,
    TDV2_PEER_INDEX_TABLE,
    TDV2_RIB_IPV4_UNICAST,
    TDV2_RIB_IPV6_UNICAST,
)
from repro.mrt.resilient import ErrorPolicy, ResilientReader
from repro.net.prefix import AFI_IPV4, AFI_IPV6, Prefix, packed_address

__all__ = ["RibPeer", "RibEntry", "RibDump", "encode_rib_dump",
           "decode_rib_stream", "decode_rib_dump"]


@dataclass(frozen=True)
class RibPeer:
    """One peer in the PEER_INDEX_TABLE."""

    asn: int
    address: str


@dataclass(frozen=True)
class RibEntry:
    """One route within a prefix's RIB record."""

    peer_index: int
    originated_time: int
    attributes: PathAttributes


@dataclass
class RibDump:
    """A full RIB snapshot of one collector at one instant."""

    timestamp: int
    collector: str
    peers: list[RibPeer] = field(default_factory=list)
    entries: dict[Prefix, list[RibEntry]] = field(default_factory=dict)

    def peer_index(self, asn: int, address: str) -> int:
        """Index of a peer, adding it to the table if new."""
        peer = RibPeer(asn, address)
        try:
            return self.peers.index(peer)
        except ValueError:
            self.peers.append(peer)
            return len(self.peers) - 1

    def add_route(self, prefix: Prefix, peer_asn: int, peer_address: str,
                  attributes: PathAttributes, originated_time: int) -> None:
        """Record that ``peer`` holds a route for ``prefix``."""
        index = self.peer_index(peer_asn, peer_address)
        self.entries.setdefault(prefix, []).append(
            RibEntry(index, originated_time, attributes))

    def routes_for(self, prefix: Prefix) -> list[tuple[RibPeer, RibEntry]]:
        """(peer, entry) pairs holding ``prefix`` in this snapshot."""
        return [(self.peers[entry.peer_index], entry)
                for entry in self.entries.get(prefix, [])]

    def peers_holding(self, prefix: Prefix) -> set[tuple[int, str]]:
        """(asn, address) of peers with a route for ``prefix``."""
        return {(self.peers[e.peer_index].asn, self.peers[e.peer_index].address)
                for e in self.entries.get(prefix, [])}


def _encode_peer_index(dump: RibDump) -> bytes:
    body = bytearray(struct.pack("!I", 0))  # collector BGP ID (unused)
    name = dump.collector.encode()
    body += struct.pack("!H", len(name)) + name
    body += struct.pack("!H", len(dump.peers))
    for peer in dump.peers:
        version, packed = packed_address(peer.address)
        peer_type = PEER_TYPE_AS4 | (PEER_TYPE_IPV6 if version == 6 else 0)
        body += bytes((peer_type,)) + struct.pack("!I", 0) + packed
        body += struct.pack("!I", peer.asn)
    return encode_mrt_record(dump.timestamp, MRT_TABLE_DUMP_V2,
                             TDV2_PEER_INDEX_TABLE, bytes(body))


def encode_rib_dump(dump: RibDump) -> bytes:
    """Serialise a snapshot: PEER_INDEX_TABLE then one record per prefix."""
    out = bytearray(_encode_peer_index(dump))
    for sequence, prefix in enumerate(sorted(dump.entries)):
        subtype = (TDV2_RIB_IPV4_UNICAST if prefix.version == 4
                   else TDV2_RIB_IPV6_UNICAST)
        routes = dump.entries[prefix]
        body = bytearray(struct.pack("!I", sequence))
        body += prefix.wire_bytes() + struct.pack("!H", len(routes))
        for entry in routes:
            attr_bytes = encode_attributes(entry.attributes, rib_entry=True)
            body += struct.pack("!HIH", entry.peer_index,
                                entry.originated_time, len(attr_bytes))
            body += attr_bytes
        out += encode_mrt_record(dump.timestamp, MRT_TABLE_DUMP_V2, subtype,
                                 bytes(body))
    return bytes(out)


def _decode_peer_index(body: bytes, decoder: AttributeDecoder
                       ) -> tuple[str, tuple[RibPeer, ...]]:
    offset = 4  # skip collector BGP ID
    (name_len,) = struct.unpack_from("!H", body, offset)
    offset += 2
    collector = body[offset:offset + name_len].decode()
    offset += name_len
    (count,) = struct.unpack_from("!H", body, offset)
    offset += 2
    peers: list[RibPeer] = []
    for _ in range(count):
        peer_type = body[offset]
        offset += 1 + 4  # type + BGP ID
        addr_len = 16 if peer_type & PEER_TYPE_IPV6 else 4
        address = decoder.address(body[offset:offset + addr_len])
        offset += addr_len
        if peer_type & PEER_TYPE_AS4:
            (asn,) = struct.unpack_from("!I", body, offset)
            offset += 4
        else:
            (asn,) = struct.unpack_from("!H", body, offset)
            offset += 2
        peers.append(RibPeer(asn, address))
    return collector, tuple(peers)


def _decode_rib_entries(header: MRTRecordHeader, body: bytes,
                        decoder: AttributeDecoder) -> tuple[Prefix, list[RibEntry]]:
    if header.subtype not in (TDV2_RIB_IPV4_UNICAST, TDV2_RIB_IPV6_UNICAST):
        raise ValueError(f"unsupported TABLE_DUMP_V2 subtype {header.subtype}")
    afi = (AFI_IPV4 if header.subtype == TDV2_RIB_IPV4_UNICAST else AFI_IPV6)
    prefix, pos = decoder.prefix(body, afi, 4)  # after the sequence number
    (count,) = struct.unpack_from("!H", body, pos)
    pos += 2
    entries: list[RibEntry] = []
    for _ in range(count):
        peer_index, originated, attr_len = struct.unpack_from("!HIH", body, pos)
        pos += 8
        attributes = decoder.attributes(body[pos:pos + attr_len],
                                        rib_entry=True)[0]
        if attributes is None:
            raise ValueError("RIB entry carried no AS_PATH")
        pos += attr_len
        entries.append(RibEntry(peer_index, originated, attributes))
    return prefix, entries


def decode_rib_stream(reader: ResilientReader, handle: BinaryIO,
                      decoder: Optional[AttributeDecoder] = None
                      ) -> Optional[RibDump]:
    """The bview decode loop, on ``decoder`` (an archive's, shared by its
    files; a fresh one by default).  A peer index table seen before is
    looked up by its bytes; each dump still gets its own ``peers`` list.

    A bview is contained **as a whole**: once ``reader`` met any damage
    (``strict`` raises instead) the dump is dropped — None — and every
    record it held counts as skipped, since a partial table would end
    presence segments and fabricate §5.1 resurrections."""
    if decoder is None:
        decoder = AttributeDecoder()
    peer_indexes = decoder.peer_indexes
    dump: Optional[RibDump] = None
    decoded = 0
    for header, body in reader.iter_raw(handle):
        try:
            if header.mrt_type != MRT_TABLE_DUMP_V2:
                raise ValueError(
                    f"unexpected MRT type {header.mrt_type} in RIB dump")
            if header.subtype == TDV2_PEER_INDEX_TABLE:
                collector, peers = peer_indexes.get(body) or remember(
                    peer_indexes, body, _decode_peer_index(body, decoder))
                dump = RibDump(header.timestamp, collector, list(peers))
            elif dump is None:
                raise ValueError("RIB record before PEER_INDEX_TABLE")
            else:
                prefix, entries = _decode_rib_entries(header, body, decoder)
                dump.entries[prefix] = entries
        except DECODE_ERRORS as exc:
            reader.quarantine_record(header, body, exc)
            continue
        decoded += 1
    if dump is None and not reader.had_errors:
        reader.reject_file("empty RIB dump")
    if reader.had_errors:
        reader.stats.records_skipped += decoded
        return None
    reader.stats.records_decoded += decoded
    return dump


def decode_rib_dump(data: bytes) -> RibDump:
    """Parse a full bview byte blob back into a :class:`RibDump`, under
    ``strict``."""
    with ResilientReader("<bview bytes>", ErrorPolicy.STRICT) as reader:
        return decode_rib_stream(reader, io.BytesIO(data))
