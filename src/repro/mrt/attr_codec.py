"""Path-attribute wire codec (RFC 4271 §4.3, RFC 4760, RFC 6793).

Encodes/decodes the attribute block of a BGP UPDATE.  AS paths are
always encoded 4-byte (AS4); IPv6 reachability travels in
MP_REACH_NLRI / MP_UNREACH_NLRI as on the real wire.  TABLE_DUMP_V2 RIB
entries use the RFC 6396 §4.3.4 abbreviated MP_REACH_NLRI (next hop
only), selected with ``rib_entry=True``.  Decoding goes through an
:class:`AttributeDecoder`, one per archive read scope (an
:class:`~repro.ris.Archive` keeps one for every file it reads), which
interns what those files repeat (see :mod:`repro.mrt.bgp4mp`).
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.bgp.attributes import (
    ATTR_AGGREGATOR,
    ATTR_AS_PATH,
    ATTR_COMMUNITIES,
    ATTR_MP_REACH_NLRI,
    ATTR_MP_UNREACH_NLRI,
    ATTR_NEXT_HOP,
    ATTR_ORIGIN,
    Aggregator,
    ASPath,
    Origin,
    PathAttributes,
)
from repro.mrt.constants import SAFI_UNICAST
from repro.net.prefix import (
    AFI_IPV4,
    AFI_IPV6,
    Prefix,
    format_address,
    packed_address,
)

__all__ = ["encode_attributes", "encode_mp_unreach", "AttributeDecoder"]

#: Entries one intern table of an :class:`AttributeDecoder` holds; a
#: table that reaches it is emptied and refills from what follows.  A
#: decoder lives as long as its :class:`~repro.ris.Archive`, and one
#: horizon-long scan or a real RIS month would otherwise grow it
#: without end.
INTERN_LIMIT = 1 << 16

_FLAG_OPTIONAL = 0x80
_FLAG_TRANSITIVE = 0x40
_FLAG_EXTENDED = 0x10

_AS_SEQUENCE = 2
_AS_SET = 1

#: IANA-assigned attribute types not decoded (MED, LOCAL_PREF,
#: ATOMIC_AGGREGATE, LARGE_COMMUNITY, ...): skipped by their length.
#: AS4_PATH (17) / AS4_AGGREGATOR (18) raise until the RFC 6793 merge
#: exists; an unassigned type raises too.
_SKIPPED_TYPES = frozenset(range(4, 41)) - {17, 18} | {128}

_U8_PAIR = struct.Struct("!BB")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U16_PAIR = struct.Struct("!HH")
_U16_U8 = struct.Struct("!HB")
_ATTR_HEADER = struct.Struct("!BBB")
_ATTR_HEADER_EXTENDED = struct.Struct("!BBH")
#: Whole ORIGIN attributes by value, and the fixed heads of the
#: fixed-length NEXT_HOP and AGGREGATOR attributes.
_ORIGIN_ATTRIBUTES = tuple(bytes((_FLAG_TRANSITIVE, ATTR_ORIGIN, 1, value))
                           for value in (Origin.IGP, Origin.EGP, Origin.INCOMPLETE))
_NEXT_HOP_HEAD = bytes((_FLAG_TRANSITIVE, ATTR_NEXT_HOP, 4))
_AGGREGATOR_HEAD = bytes((_FLAG_OPTIONAL | _FLAG_TRANSITIVE, ATTR_AGGREGATOR, 8))
#: AFI and SAFI that open an IPv6 MP_REACH_NLRI / MP_UNREACH_NLRI.
_MP_REACH_V6_HEAD = struct.pack("!HB", AFI_IPV6, SAFI_UNICAST)


def _attribute(flags: int, type_code: int, payload: bytes) -> bytes:
    """Frame one attribute, using extended length when needed."""
    if len(payload) > 255:
        return _ATTR_HEADER_EXTENDED.pack(flags | _FLAG_EXTENDED, type_code,
                                          len(payload)) + payload
    return _ATTR_HEADER.pack(flags, type_code, len(payload)) + payload


def _encode_as_path(path: ASPath) -> bytes:
    """AS_PATH as one or more AS_SEQUENCE segments of <=255 ASNs, each
    packed by one ``struct`` call."""
    asns = path.asns
    return b"".join(
        struct.pack(f"!BB{len(chunk)}I", _AS_SEQUENCE, len(chunk), *chunk)
        for chunk in (asns[start:start + 255]
                      for start in range(0, len(asns), 255)))


def _decode_as_path(payload: bytes) -> ASPath:
    asns: list[int] = []
    offset = 0
    while offset < len(payload):
        seg_type, count = _U8_PAIR.unpack_from(payload, offset)
        offset += 2
        segment = struct.unpack_from(f"!{count}I", payload, offset)
        offset += 4 * count
        if seg_type not in (_AS_SEQUENCE, _AS_SET):
            raise ValueError(f"unsupported AS_PATH segment type {seg_type}")
        asns.extend(segment)  # AS_SETs flattened
    return ASPath(tuple(asns))


def encode_attributes(attrs: PathAttributes,
                      announced: Optional[list[Prefix]] = None,
                      withdrawn_mp: Optional[list[Prefix]] = None,
                      rib_entry: bool = False) -> bytes:
    """Encode the attribute block.

    ``announced`` prefixes that are IPv6 are folded into MP_REACH_NLRI;
    IPv4 announcements are carried in the UPDATE's NLRI field by the
    caller.  ``withdrawn_mp`` lists IPv6 prefixes for MP_UNREACH_NLRI.
    With ``rib_entry=True`` the MP_REACH_NLRI contains only the next hop
    (RFC 6396 §4.3.4).
    """
    version, next_hop = packed_address(attrs.next_hop)
    parts = [_ORIGIN_ATTRIBUTES[attrs.origin],
             _attribute(_FLAG_TRANSITIVE, ATTR_AS_PATH, _encode_as_path(attrs.as_path))]
    if version == 4:
        parts.append(_NEXT_HOP_HEAD + next_hop)

    aggregator = attrs.aggregator
    if aggregator is not None:
        parts.append(_AGGREGATOR_HEAD + _U32.pack(aggregator.asn)
                     + aggregator.address_bytes())

    if attrs.communities:
        payload = b"".join(_U16_PAIR.pack(high, low)
                           for high, low in attrs.communities)
        parts.append(_attribute(_FLAG_OPTIONAL | _FLAG_TRANSITIVE,
                                ATTR_COMMUNITIES, payload))

    v6_announced = [p.wire_bytes() for p in announced if p.version == 6] \
        if announced else None
    if rib_entry:
        if version == 6 or v6_announced:
            parts.append(_attribute(_FLAG_OPTIONAL, ATTR_MP_REACH_NLRI,
                                    bytes((len(next_hop),)) + next_hop))
    elif v6_announced:
        parts.append(_attribute(
            _FLAG_OPTIONAL, ATTR_MP_REACH_NLRI,
            _MP_REACH_V6_HEAD + bytes((len(next_hop),)) + next_hop
            + b"\x00" + b"".join(v6_announced)))  # reserved, then NLRI

    if withdrawn_mp:
        parts.append(encode_mp_unreach(withdrawn_mp))
    return b"".join(parts)


def encode_mp_unreach(withdrawn: list[Prefix]) -> bytes:
    """The MP_UNREACH_NLRI attribute withdrawing IPv6 ``withdrawn``."""
    body = _MP_REACH_V6_HEAD + b"".join(
        prefix.wire_bytes() for prefix in withdrawn)
    return _attribute(_FLAG_OPTIONAL, ATTR_MP_UNREACH_NLRI, body)


def remember(table: dict, key: bytes, value):
    """``table[key] = value``, emptying ``table`` first when it holds
    :data:`INTERN_LIMIT` entries; returns ``value``.  Values handed out
    before stay valid: they are immutable."""
    if len(table) >= INTERN_LIMIT:
        table.clear()
    table[key] = value
    return value


class AttributeDecoder:
    """Decoder of the addresses, NLRI and attribute blocks of a set of
    files (one :class:`~repro.ris.Archive`'s, or one file's by default).

    Archive files repeat a few peer addresses, next hops, prefixes, AS
    paths, aggregators and peer index tables thousands of times, so each
    is decoded and validated once: intern tables map its raw bytes to
    the decoded value.  They live as long as the decoder, each bounded
    by :data:`INTERN_LIMIT`; only successes are kept, so malformed bytes
    raise on every occurrence.  Lookups are dict ``get``/set only, so a
    decoder shared between threads stays consistent under the GIL (a
    race at worst decodes a value twice).
    """

    def __init__(self):
        self._addresses: dict[bytes, str] = {}  # and IPv4 next hops
        self._prefixes: tuple[dict, dict] = ({}, {})  # IPv6, IPv4
        self._as_paths: dict[bytes, ASPath] = {}
        self._aggregators: dict[bytes, Aggregator] = {}
        #: PEER_INDEX_TABLE body -> (collector, peers), for
        #: :mod:`repro.mrt.tabledump`.
        self.peer_indexes: dict[bytes, tuple] = {}

    def address(self, packed: bytes) -> str:
        text = self._addresses.get(packed)
        if text is None:
            text = remember(self._addresses, packed, format_address(packed))
        return text

    def prefix(self, data: bytes, afi: int, pos: int) -> tuple[Prefix, int]:
        """The NLRI entry at ``data[pos:]``: (prefix, end offset)."""
        if pos >= len(data):
            raise ValueError("empty NLRI buffer")
        end = pos + 1 + (data[pos] + 7) // 8
        key = data[pos:end]
        table = self._prefixes[afi == AFI_IPV4]
        prefix = table.get(key)
        if prefix is None:
            prefix = remember(table, key, Prefix.from_wire(key, afi)[0])
        return prefix, end

    def nlri(self, data: bytes, afi: int, start: int = 0,
             end: Optional[int] = None) -> Iterator[Prefix]:
        """The NLRI entries of ``data[start:end]`` one at a time, so a
        caller that stops early never decodes (or trips over) the rest."""
        run = data[start:end]
        pos = 0
        while pos < len(run):
            prefix, pos = self.prefix(run, afi, pos)
            yield prefix
        if end is not None and len(run) < end - start:
            raise ValueError("truncated NLRI field")

    def attributes(self, data: bytes, rib_entry: bool = False
                   ) -> tuple[Optional[PathAttributes], list[Prefix], list[Prefix]]:
        """Decode an attribute block (inverse of :func:`encode_attributes`):
        its attributes (None without an AS_PATH), then the prefixes of its
        MP_REACH_NLRI and of its MP_UNREACH_NLRI."""
        origin, next_hop, communities = 0, "0.0.0.0", ()
        as_path: Optional[ASPath] = None
        aggregator: Optional[Aggregator] = None
        announced: list[Prefix] = []
        withdrawn: list[Prefix] = []
        offset = 0
        while offset < len(data):
            flags, type_code = _U8_PAIR.unpack_from(data, offset)
            offset += 2
            if flags & _FLAG_EXTENDED:
                (length,) = _U16.unpack_from(data, offset)
                offset += 2
            else:
                length = data[offset]
                offset += 1
            payload = data[offset:offset + length]
            if len(payload) != length:
                raise ValueError("truncated path attribute")
            offset += length

            if type_code == ATTR_ORIGIN:
                origin = payload[0]
            elif type_code == ATTR_AS_PATH:
                as_path = self._as_paths.get(payload)
                if as_path is None:
                    as_path = remember(self._as_paths, payload,
                                       _decode_as_path(payload))
            elif type_code == ATTR_NEXT_HOP:
                next_hop = (self.address(payload) if len(payload) == 4
                            else format_address(payload, ipv4_only=True))
            elif type_code == ATTR_AGGREGATOR:
                aggregator = self._aggregators.get(payload)
                if aggregator is None:
                    (asn,) = _U32.unpack(payload[:4])
                    aggregator = remember(self._aggregators, payload,
                                          Aggregator.from_bytes(asn, payload[4:8]))
            elif type_code == ATTR_COMMUNITIES:
                communities = tuple(_U16_PAIR.iter_unpack(
                    payload[:len(payload) // 4 * 4]))
            elif type_code == ATTR_MP_REACH_NLRI:
                afi, pos = AFI_IPV6, 0
                if not rib_entry:
                    afi, safi = _U16_U8.unpack_from(payload, 0)
                    _check_safi(safi)
                    pos = 3
                nh_len = payload[pos]
                hop = payload[pos + 1:pos + 1 + nh_len]
                next_hop = self.address(hop[:16] if nh_len >= 16 else hop)
                if not rib_entry:  # NLRI after the reserved byte
                    announced += self.nlri(payload[pos + 2 + nh_len:], afi)
            elif type_code == ATTR_MP_UNREACH_NLRI:
                afi, safi = _U16_U8.unpack_from(payload, 0)
                _check_safi(safi)
                withdrawn += self.nlri(payload[3:], afi)
            elif type_code not in _SKIPPED_TYPES:
                raise ValueError(f"unsupported attribute type {type_code}")
        if as_path is None:
            return None, announced, withdrawn
        return (PathAttributes(as_path, next_hop, origin, aggregator, communities),
                announced, withdrawn)


def _check_safi(safi: int) -> None:
    if safi != SAFI_UNICAST:
        raise ValueError(f"unsupported SAFI {safi}")
