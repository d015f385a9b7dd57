"""BGP4MP MRT records: UPDATE messages and session state changes.

The encoder always emits BGP4MP_MESSAGE_AS4 / BGP4MP_STATE_CHANGE_AS4
(4-byte peer ASNs), as RIPE RIS has done for many years; the decoder
additionally accepts the 2-byte legacy subtypes.

The decoder is one :class:`RecordDecoder` per :class:`repro.ris.Archive`,
shared by every updates file and bview it reads
(:func:`repro.mrt.files.read_updates_file` makes a fresh one for a file
read on its own).  No per-record step goes through :mod:`ipaddress`:
addresses are rendered by :func:`repro.net.prefix.format_address`,
prefixes are built as integers from NLRI bytes, and each peer address,
next hop, prefix, AS_PATH and AGGREGATOR is decoded once per decoder,
then looked up by its raw bytes.
``ASPath``, ``Aggregator`` and ``PathAttributes`` still validate every
object built; malformed bytes raise ``ValueError``, ``struct.error`` or
``IndexError`` as they always did.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.bgp.attributes import ATTR_MP_REACH_NLRI, ATTR_MP_UNREACH_NLRI
from repro.bgp.messages import (
    Announcement,
    PeerState,
    StateRecord,
    UpdateRecord,
    Withdrawal,
)
from repro.mrt.attr_codec import (
    AttributeDecoder,
    encode_attributes,
    encode_mp_unreach,
)
from repro.mrt.constants import (
    BGP4MP_MESSAGE,
    BGP4MP_MESSAGE_AS4,
    BGP4MP_STATE_CHANGE,
    BGP4MP_STATE_CHANGE_AS4,
    BGP_MARKER,
    BGP_MSG_UPDATE,
    MRT_BGP4MP,
)
from repro.net.prefix import AFI_IPV4, AFI_IPV6, Prefix, packed_address

__all__ = [
    "encode_update_record",
    "encode_state_record",
    "decode_bgp4mp",
    "RecordDecoder",
    "MRTRecordHeader",
    "encode_mrt_record",
    "decode_mrt_header",
]

#: A collector-side placeholder address/ASN for the "local" side of the
#: BGP4MP header (the collector itself).
COLLECTOR_ASN = 12654  # RIPE NCC RIS AS

# Precompiled wire codecs — the decode path runs once per record of
# every archive file, so repeated format-string parsing is measurable.
#: The MRT common header (timestamp, type, subtype, body length).
MRT_HEADER = struct.Struct("!IHHI")
#: What malformed record bytes raise out of the BGP4MP and TDV2 decoders.
DECODE_ERRORS = (ValueError, IndexError, struct.error)
_PEER_HEADER_AS4 = struct.Struct("!IIHH")
_ASN_PAIR_AS4 = struct.Struct("!II")
_ASN_PAIR_AS2 = struct.Struct("!HH")
_U16_PAIR = struct.Struct("!HH")
_U16 = struct.Struct("!H")
_U16_U8 = struct.Struct("!HB")
_LEN_TYPE = struct.Struct("!HB")
_FLAG_EXTENDED_LENGTH = 0x10
_AS4_SUBTYPES = (BGP4MP_MESSAGE_AS4, BGP4MP_STATE_CHANGE_AS4)
_STATE_SUBTYPES = (BGP4MP_STATE_CHANGE, BGP4MP_STATE_CHANGE_AS4)
_MESSAGE_SUBTYPES = (BGP4MP_MESSAGE, BGP4MP_MESSAGE_AS4)


class MRTRecordHeader:
    """Parsed MRT common header."""

    __slots__ = ("timestamp", "mrt_type", "subtype", "length")

    def __init__(self, timestamp: int, mrt_type: int, subtype: int, length: int):
        self.timestamp = timestamp
        self.mrt_type = mrt_type
        self.subtype = subtype
        self.length = length


def encode_mrt_record(timestamp: int, mrt_type: int, subtype: int,
                      body: bytes) -> bytes:
    """Wrap a record body in the MRT common header."""
    return MRT_HEADER.pack(timestamp, mrt_type, subtype, len(body)) + body


def decode_mrt_header(data: bytes, offset: int = 0) -> MRTRecordHeader:
    timestamp, mrt_type, subtype, length = MRT_HEADER.unpack_from(data, offset)
    return MRTRecordHeader(timestamp, mrt_type, subtype, length)


def _bgp4mp_header(record, local_address: Optional[str]) -> bytes:
    """The AS4 BGP4MP per-record header of ``record``'s peer."""
    peer_version, peer_packed = packed_address(record.peer_address)
    if local_address is None:
        local_address = "192.0.2.1" if peer_version == 4 else "2001:db8::1"
    local_version, local_packed = packed_address(local_address)
    if peer_version != local_version:
        raise ValueError("peer and local addresses must share a family")
    afi = AFI_IPV4 if peer_version == 4 else AFI_IPV6
    return (_PEER_HEADER_AS4.pack(record.peer_asn, COLLECTOR_ASN, 0, afi)
            + peer_packed + local_packed)


def encode_update_record(record: UpdateRecord,
                         local_address: Optional[str] = None) -> bytes:
    """Serialise one :class:`UpdateRecord` as a BGP4MP_MESSAGE_AS4 record:
    IPv4 NLRI in the UPDATE's own fields, IPv6 in MP_REACH/MP_UNREACH."""
    header = _bgp4mp_header(record, local_address)
    message = record.message
    if not isinstance(message, (Announcement, Withdrawal)):
        raise TypeError(f"cannot encode message of type {type(message).__name__}")
    prefix = message.prefix
    ipv4 = prefix.version == 4
    withdrawn = attr_bytes = nlri = b""
    if isinstance(message, Announcement):
        attr_bytes = encode_attributes(
            message.attributes, announced=None if ipv4 else [prefix])
        if ipv4:
            nlri = prefix.wire_bytes()
    elif ipv4:
        withdrawn = prefix.wire_bytes()
    else:
        attr_bytes = encode_mp_unreach([prefix])
    body = (_U16.pack(len(withdrawn)) + withdrawn
            + _U16.pack(len(attr_bytes)) + attr_bytes + nlri)
    bgp_message = BGP_MARKER + _LEN_TYPE.pack(19 + len(body), BGP_MSG_UPDATE) + body
    return encode_mrt_record(record.timestamp, MRT_BGP4MP, BGP4MP_MESSAGE_AS4,
                             header + bgp_message)


def encode_state_record(record: StateRecord,
                        local_address: Optional[str] = None) -> bytes:
    """Serialise one :class:`StateRecord` as BGP4MP_STATE_CHANGE_AS4."""
    body = _bgp4mp_header(record, local_address) + _U16_PAIR.pack(
        record.old_state.value, record.new_state.value)
    return encode_mrt_record(record.timestamp, MRT_BGP4MP,
                             BGP4MP_STATE_CHANGE_AS4, body)


class RecordDecoder(AttributeDecoder):
    """The BGP4MP decoder of an archive's updates files (see the module
    docstring)."""

    def decode(self, header: MRTRecordHeader, body: bytes,
               collector: str) -> list:
        """One BGP4MP record body as Update/State records.  A record can
        carry several NLRI and withdrawals; each becomes its own
        :class:`UpdateRecord` (as pybgpstream explodes updates into elems)."""
        peer_asn, afi, offset = self._peer(header, body)
        addr_len = 4 if afi == AFI_IPV4 else 16
        peer = self.address(body[offset:offset + addr_len])
        offset += 2 * addr_len  # skip the local address too
        if header.subtype in _STATE_SUBTYPES:
            old_state, new_state = _U16_PAIR.unpack_from(body, offset)
            return [StateRecord(header.timestamp, collector, peer, peer_asn,
                                PeerState(old_state), PeerState(new_state))]
        offset = self._update_start(header.subtype, body, offset)
        if offset is None:
            return []
        (length,) = _U16.unpack_from(body, offset)
        offset += 2
        messages: list = [Withdrawal(prefix) for prefix in
                          self.nlri(body, AFI_IPV4, offset, offset + length)]
        offset += length
        (length,) = _U16.unpack_from(body, offset)
        offset += 2
        block = body[offset:offset + length]
        if block:
            attrs, announced, withdrawn = self.attributes(block)
            messages += [Withdrawal(prefix) for prefix in withdrawn]
            if attrs is not None:
                # MP_REACH NLRI, then the IPv4 NLRI at the tail of the message.
                announced += self.nlri(body, AFI_IPV4, offset + length)
                messages += [Announcement(prefix, attrs) for prefix in announced]
        return [UpdateRecord(header.timestamp, collector, peer, peer_asn, message)
                for message in messages]

    def update_prefixes(self, header: MRTRecordHeader,
                        body: bytes) -> Iterator[Prefix]:
        """Every NLRI prefix of a BGP4MP UPDATE — withdrawn routes,
        MP_REACH / MP_UNREACH payloads, trailing IPv4 NLRI — walked
        without decoding attribute values: a superset of the prefixes
        :meth:`decode` attaches to records.  State changes and other BGP
        messages yield nothing."""
        _peer_asn, afi, offset = self._peer(header, body)
        offset += 2 * (4 if afi == AFI_IPV4 else 16)
        if header.subtype in _STATE_SUBTYPES:
            return
        offset = self._update_start(header.subtype, body, offset)
        if offset is None:
            return
        (length,) = _U16.unpack_from(body, offset)
        yield from self.nlri(body, AFI_IPV4, offset + 2, offset + 2 + length)
        offset += 2 + length
        (length,) = _U16.unpack_from(body, offset)
        offset += 2
        attrs_end = offset + length
        while offset < attrs_end:
            flags, type_code = body[offset], body[offset + 1]
            if flags & _FLAG_EXTENDED_LENGTH:
                (length,) = _U16.unpack_from(body, offset + 2)
                start = offset + 4
            else:
                length = body[offset + 2]
                start = offset + 3
            offset = start + length
            if type_code == ATTR_MP_REACH_NLRI:
                afi, _safi = _U16_U8.unpack_from(body, start)
                # next hop + reserved byte
                yield from self.nlri(body, afi, start + 5 + body[start + 3], offset)
            elif type_code == ATTR_MP_UNREACH_NLRI:
                afi, _safi = _U16_U8.unpack_from(body, start)
                yield from self.nlri(body, afi, start + 3, offset)
        yield from self.nlri(body, AFI_IPV4, offset)

    def prematch(self, header: MRTRecordHeader, body: bytes,
                 record_filter) -> bool:
        """Pre-decode test: can this record produce a match for
        ``record_filter`` (a :class:`repro.ris.pushdown.RecordFilter`)?
        False only when no decoded record could match.  Peer clauses are
        read from the per-record header, prefix clauses from
        :meth:`update_prefixes`, before any attribute is decoded."""
        if record_filter.peers and \
                self._peer(header, body)[0] not in record_filter.peers:
            return False
        if not record_filter.has_prefix_clause or header.subtype in _STATE_SUBTYPES:
            return True  # a state decode is cheap; matches_record decides
        return any(record_filter.match_prefix(prefix)
                   for prefix in self.update_prefixes(header, body))

    @staticmethod
    def _peer(header: MRTRecordHeader, body: bytes) -> tuple[int, int, int]:
        """(peer ASN, AFI, offset of the peer address) of a record."""
        if header.subtype in _AS4_SUBTYPES:
            return _ASN_PAIR_AS4.unpack_from(body, 0)[0], \
                _U16_PAIR.unpack_from(body, 8)[1], 12
        return _ASN_PAIR_AS2.unpack_from(body, 0)[0], \
            _U16_PAIR.unpack_from(body, 4)[1], 8

    @staticmethod
    def _update_start(subtype: int, body: bytes, offset: int) -> Optional[int]:
        """Offset of the UPDATE body after the BGP header at ``offset``;
        None for another BGP message type."""
        if subtype not in _MESSAGE_SUBTYPES:
            raise ValueError(f"unsupported BGP4MP subtype {subtype}")
        if body[offset:offset + 16] != BGP_MARKER:
            raise ValueError("bad BGP marker")
        _msg_len, msg_type = _LEN_TYPE.unpack_from(body, offset + 16)
        return offset + 19 if msg_type == BGP_MSG_UPDATE else None


def decode_bgp4mp(header: MRTRecordHeader, body: bytes,
                  collector: str) -> list:
    """Decode one record on its own (:meth:`RecordDecoder.decode`)."""
    return RecordDecoder().decode(header, body, collector)
