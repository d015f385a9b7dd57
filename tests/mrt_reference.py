"""Test-only reference decoder: the ``ipaddress``-based BGP4MP decode
that ``repro.mrt`` used before records decoded on integers.

Every address is rendered by :mod:`ipaddress`, every NLRI entry takes
the text round trip ``ip_network(f"{addr}/{plen}")``, and nothing is
interned — so it is slow, obviously right, and shares no decode step
with :class:`repro.mrt.bgp4mp.RecordDecoder`.  The differential
properties in ``test_mrt_differential.py`` hold the decoder to it.
"""

import bz2
import gzip
import ipaddress
import struct
from collections import namedtuple

from repro.bgp import (
    Aggregator,
    Announcement,
    ASPath,
    PathAttributes,
    PeerState,
    StateRecord,
    UpdateRecord,
    Withdrawal,
)
from repro.mrt.constants import (
    BGP4MP_MESSAGE,
    BGP4MP_MESSAGE_AS4,
    BGP4MP_STATE_CHANGE,
    BGP4MP_STATE_CHANGE_AS4,
    BGP_MARKER,
    BGP_MSG_UPDATE,
    SAFI_UNICAST,
)
from repro.net import AFI_IPV4, Prefix


RawHeader = namedtuple("RawHeader", "timestamp mrt_type subtype length")


def split_mrt(path):
    """The ``(header, body)`` records of a clean MRT file (bzip2 by the
    ``.bz2`` suffix, else gzip), framed by the standard library alone."""
    opener = bz2.open if str(path).endswith(".bz2") else gzip.open
    with opener(path, "rb") as handle:
        data = handle.read()
    records, offset = [], 0
    while offset < len(data):
        header = RawHeader(*struct.unpack_from("!IHHI", data, offset))
        body = data[offset + 12:offset + 12 + header.length]
        if len(body) != header.length:
            raise ValueError(f"{path}: truncated record at {offset}")
        records.append((header, body))
        offset += 12 + header.length
    return records


def prefix_from_wire(data, afi):
    """Decode one NLRI entry; returns (prefix, bytes consumed)."""
    if not data:
        raise ValueError("empty NLRI buffer")
    plen = data[0]
    nbytes = (plen + 7) // 8
    width = 4 if afi == AFI_IPV4 else 16
    if plen > width * 8:
        raise ValueError(f"prefix length {plen} too large for AFI {afi}")
    if len(data) < 1 + nbytes:
        raise ValueError("truncated NLRI entry")
    raw = data[1:1 + nbytes] + b"\x00" * (width - nbytes)
    addr = ipaddress.ip_address(raw)
    network = ipaddress.ip_network(f"{addr}/{plen}", strict=False)
    return Prefix(network), 1 + nbytes


def _decode_as_path(payload):
    asns = []
    offset = 0
    while offset < len(payload):
        seg_type, count = struct.unpack_from("!BB", payload, offset)
        offset += 2
        segment = [struct.unpack_from("!I", payload, offset + 4 * i)[0]
                   for i in range(count)]
        offset += 4 * count
        if seg_type not in (2, 1):
            raise ValueError(f"unsupported AS_PATH segment type {seg_type}")
        asns.extend(segment)
    return ASPath(tuple(asns))


def _nlri(payload, offset, afi):
    prefixes = []
    while offset < len(payload):
        prefix, consumed = prefix_from_wire(payload[offset:], afi)
        prefixes.append(prefix)
        offset += consumed
    return prefixes


def _decode_mp_reach(payload):
    afi, safi = struct.unpack_from("!HB", payload, 0)
    if safi != SAFI_UNICAST:
        raise ValueError(f"unsupported SAFI {safi}")
    nh_len = payload[3]
    nh_bytes = payload[4:4 + nh_len]
    next_hop = str(ipaddress.ip_address(
        nh_bytes[:16] if nh_len >= 16 else nh_bytes))
    return next_hop, _nlri(payload, 4 + nh_len + 1, afi)


def _decode_mp_unreach(payload):
    afi, safi = struct.unpack_from("!HB", payload, 0)
    if safi != SAFI_UNICAST:
        raise ValueError(f"unsupported SAFI {safi}")
    return _nlri(payload, 3, afi)


def decode_attributes(data):
    """(origin, as_path, next_hop, aggregator, communities,
    mp_announced, mp_withdrawn) of an UPDATE attribute block."""
    origin, as_path, next_hop, aggregator, communities = 0, None, "0.0.0.0", None, ()
    announced, withdrawn = [], []
    offset = 0
    while offset < len(data):
        flags, type_code = struct.unpack_from("!BB", data, offset)
        offset += 2
        if flags & 0x10:
            (length,) = struct.unpack_from("!H", data, offset)
            offset += 2
        else:
            length = data[offset]
            offset += 1
        payload = data[offset:offset + length]
        if len(payload) != length:
            raise ValueError("truncated path attribute")
        offset += length
        if type_code == 1:
            origin = payload[0]
        elif type_code == 2:
            as_path = _decode_as_path(payload)
        elif type_code == 3:
            next_hop = str(ipaddress.IPv4Address(payload))
        elif type_code == 7:
            asn = struct.unpack("!I", payload[:4])[0]
            aggregator = Aggregator(asn, str(ipaddress.IPv4Address(payload[4:8])))
        elif type_code == 8:
            communities = tuple(struct.unpack_from("!HH", payload, 4 * i)
                                for i in range(len(payload) // 4))
        elif type_code == 14:
            next_hop, nlri = _decode_mp_reach(payload)
            announced.extend(nlri)
        elif type_code == 15:
            withdrawn.extend(_decode_mp_unreach(payload))
        else:
            raise ValueError(f"unsupported attribute type {type_code}")
    return origin, as_path, next_hop, aggregator, communities, announced, withdrawn


def decode_bgp4mp(header, body, collector):
    """One BGP4MP record body into Update/State records."""
    as4 = header.subtype in (BGP4MP_MESSAGE_AS4, BGP4MP_STATE_CHANGE_AS4)
    peer_asn, _local_asn = struct.unpack_from("!II" if as4 else "!HH", body, 0)
    asn_size = 8 if as4 else 4
    _ifindex, afi = struct.unpack_from("!HH", body, asn_size)
    offset = asn_size + 4
    addr_len = 4 if afi == AFI_IPV4 else 16
    peer = str(ipaddress.ip_address(body[offset:offset + addr_len]))
    offset += 2 * addr_len

    def update(message):
        return UpdateRecord(header.timestamp, collector, peer, peer_asn, message)

    if header.subtype in (BGP4MP_STATE_CHANGE, BGP4MP_STATE_CHANGE_AS4):
        old_state, new_state = struct.unpack_from("!HH", body, offset)
        return [StateRecord(header.timestamp, collector, peer, peer_asn,
                            PeerState(old_state), PeerState(new_state))]
    if header.subtype not in (BGP4MP_MESSAGE, BGP4MP_MESSAGE_AS4):
        raise ValueError(f"unsupported BGP4MP subtype {header.subtype}")
    if body[offset:offset + 16] != BGP_MARKER:
        raise ValueError("bad BGP marker")
    offset += 16
    _msg_len, msg_type = struct.unpack_from("!HB", body, offset)
    offset += 3
    if msg_type != BGP_MSG_UPDATE:
        return []

    (withdrawn_len,) = struct.unpack_from("!H", body, offset)
    offset += 2
    records = []
    end = offset + withdrawn_len
    while offset < end:
        prefix, consumed = prefix_from_wire(body[offset:end], AFI_IPV4)
        offset += consumed
        records.append(update(Withdrawal(prefix)))

    (attr_len,) = struct.unpack_from("!H", body, offset)
    offset += 2
    attr_block = body[offset:offset + attr_len]
    offset += attr_len
    if not attr_block:
        return records
    (origin, as_path, next_hop, aggregator, communities,
     announced, withdrawn) = decode_attributes(attr_block)
    records += [update(Withdrawal(prefix)) for prefix in withdrawn]
    if as_path is not None:
        attrs = PathAttributes(as_path=as_path, next_hop=next_hop, origin=origin,
                               aggregator=aggregator, communities=communities)
        records += [update(Announcement(prefix, attrs)) for prefix in announced]
        while offset < len(body):
            prefix, consumed = prefix_from_wire(body[offset:], AFI_IPV4)
            offset += consumed
            records.append(update(Announcement(prefix, attrs)))
    return records
