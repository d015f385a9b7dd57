"""The integer decoder against the ``ipaddress`` reference.

``mrt_reference.decode_bgp4mp`` is the decode ``repro.mrt`` had before
prefixes became integers and addresses went through ``inet_ntop``.  On
generated BGP4MP bodies — v4 and v6 peers (IPv4-mapped, IPv4-compatible
and unspecified included), prefix lengths 0 and max, host bits set,
extended-length attributes, AS_SETs, truncated bodies — both decoders
must return equal records, with equal text, or raise the same exception
class.  One :class:`RecordDecoder` decodes a whole generated file, so a
wrong intern-table hit shows too.  ``Prefix`` is held to
:mod:`ipaddress` networks the same way.
"""

import ipaddress
import struct

from hypothesis import example, given
from hypothesis import strategies as st

from mrt_reference import decode_bgp4mp as reference_decode
from mrt_reference import prefix_from_wire as reference_from_wire
from repro.bgp import UpdateRecord
from repro.mrt.bgp4mp import MRTRecordHeader, RecordDecoder, decode_bgp4mp
from repro.mrt.constants import (
    BGP4MP_MESSAGE,
    BGP4MP_MESSAGE_AS4,
    BGP4MP_STATE_CHANGE_AS4,
    BGP_MARKER,
    MRT_BGP4MP,
)
from repro.net import AFI_IPV4, AFI_IPV6, Prefix
from repro.net.prefix import format_address

#: 16-byte addresses where ``inet_ntop`` and ``ipaddress`` part ways.
SPECIAL_V6 = [ipaddress.IPv6Address(text).packed for text in (
    "::ffff:192.0.2.1", "::ffff:0:0", "::192.0.2.1", "::", "::1", "::2",
    "::ffff:1:2", "0:0:0:0:1::", "1::", "2001:db8::1", "2001:db8:0:1::",
    "2001:0:0:1::1", "fe80::1:0:0:1")]


v6_addresses = st.one_of(
    st.sampled_from(SPECIAL_V6),
    st.lists(st.one_of(st.just(0), st.just(0xffff), st.integers(0, 0xffff)),
             min_size=8, max_size=8).map(lambda words: struct.pack("!8H", *words)),
    st.binary(min_size=16, max_size=16))
v4_addresses = st.binary(min_size=4, max_size=4)


@st.composite
def nlri_entries(draw, width):
    plen = draw(st.sampled_from([0, width, -1, -1, -1, -1, -1, -1, 255]))
    if plen < 0:
        plen = draw(st.integers(0, width))
    return bytes([plen]) + draw(st.binary(min_size=(plen + 7) // 8,
                                          max_size=(plen + 7) // 8))


def nlri(width, max_size=3):
    return st.lists(nlri_entries(width), max_size=max_size).map(b"".join)


@st.composite
def attribute(draw):
    kind = draw(st.sampled_from(
        ["origin", "path", "path", "next_hop", "aggregator", "communities",
         "reach", "reach", "unreach"] * 4 + ["unknown"]))
    if kind == "origin":
        code, payload = 1, bytes([draw(st.integers(0, 3))])
    elif kind == "path":
        segments = draw(st.lists(st.tuples(
            st.sampled_from([2, 2, 2, 1, 1, 3]),
            st.lists(st.integers(0, 2**32 - 1), max_size=6)), max_size=3))
        code, payload = 2, b"".join(
            struct.pack(f"!BB{len(asns)}I", kind_, len(asns), *asns)
            for kind_, asns in segments)
    elif kind == "next_hop":
        code, payload = 3, draw(st.one_of(*[v4_addresses] * 4, v6_addresses))
    elif kind == "aggregator":
        code = 7
        payload = struct.pack("!I", draw(st.integers(0, 2**32 - 1))) \
            + draw(st.one_of(*[v4_addresses] * 4, st.binary(max_size=5)))
    elif kind == "communities":
        code, payload = 8, draw(st.binary(max_size=14))
    elif kind == "reach":
        afi = draw(st.sampled_from([AFI_IPV6, AFI_IPV6, AFI_IPV4]))
        next_hop = draw(st.one_of(v6_addresses, v4_addresses,
                                  v6_addresses.map(lambda a: a + a)))
        code = 14
        payload = (struct.pack("!HBB", afi, draw(st.sampled_from([1, 1, 2])),
                               len(next_hop)) + next_hop + b"\x00"
                   + draw(nlri(32 if afi == AFI_IPV4 else 128)))
    elif kind == "unreach":
        afi = draw(st.sampled_from([AFI_IPV6, AFI_IPV4]))
        code = 15
        payload = struct.pack("!HB", afi, 1) + draw(
            nlri(32 if afi == AFI_IPV4 else 128))
    else:
        code, payload = 99, b""
    if len(payload) > 255 or draw(st.booleans()):
        return struct.pack("!BBH", 0x90, code, len(payload)) + payload
    return struct.pack("!BBB", 0x40, code, len(payload)) + payload


@st.composite
def bgp4mp_record(draw):
    """(header, body): a BGP4MP message or state change, maybe cut short."""
    state = draw(st.integers(0, 9)) == 0
    as4 = state or draw(st.booleans())
    ipv6 = draw(st.booleans())
    address = v6_addresses if ipv6 else v4_addresses
    head = (struct.pack("!II", draw(st.integers(0, 2**32 - 1)), 12654) if as4
            else struct.pack("!HH", draw(st.integers(0, 0xffff)), 12654))
    head += struct.pack("!HH", 0, AFI_IPV6 if ipv6 else AFI_IPV4)
    head += draw(address) + draw(address)
    if state:
        body = head + struct.pack("!HH", draw(st.integers(1, 7)),
                                  draw(st.integers(1, 6)))
        subtype = BGP4MP_STATE_CHANGE_AS4
    else:
        withdrawn = draw(nlri(32))
        attrs = b"".join(draw(st.lists(attribute(), max_size=6)))
        message = (struct.pack("!H", len(withdrawn)) + withdrawn
                   + struct.pack("!H", len(attrs)) + attrs + draw(nlri(32)))
        body = head + BGP_MARKER + struct.pack(
            "!HB", 19 + len(message), 2) + message
        subtype = BGP4MP_MESSAGE_AS4 if as4 else BGP4MP_MESSAGE
    if draw(st.integers(0, 4)) == 0:
        body = body[:len(body) - draw(st.integers(1, len(body)))]
    return MRTRecordHeader(1718600000, MRT_BGP4MP, subtype, len(body)), body


def outcome(decode, header, body, text=str):
    """The records and the ``text`` of their prefixes, or the class of
    what was raised.  Addresses are text inside the records."""
    try:
        records = decode(header, body, "rrc00")
    except Exception as exc:  # the class is what is compared
        return type(exc)
    return records, [text(record.prefix) for record in records
                     if isinstance(record, UpdateRecord)]


def ipaddress_text(prefix):
    return str(prefix.network)


MAPPED_PEER = (
    MRTRecordHeader(1718600000, MRT_BGP4MP, BGP4MP_STATE_CHANGE_AS4, 44),
    struct.pack("!IIHH", 64500, 12654, 0, AFI_IPV6) + SPECIAL_V6[0] * 2
    + struct.pack("!HH", 1, 6))


class TestDecoderEqualsReference:
    @given(st.lists(bgp4mp_record(), min_size=1, max_size=8))
    @example([MAPPED_PEER])
    def test_one_file(self, records):
        decoder = RecordDecoder()
        for header, body in records:
            expected = outcome(reference_decode, header, body, ipaddress_text)
            assert outcome(decoder.decode, header, body) == expected
            assert outcome(decode_bgp4mp, header, body) == expected


@st.composite
def networks(draw):
    network = draw(st.sampled_from([ipaddress.IPv4Network, ipaddress.IPv6Network]))
    width = 32 if network is ipaddress.IPv4Network else 128
    plen = draw(st.one_of(st.just(0), st.just(width), st.integers(0, width)))
    values = st.integers(0, 2**width - 1)
    if width == 128:
        values = st.one_of(values, st.sampled_from(
            [int.from_bytes(packed, "big") for packed in SPECIAL_V6]))
    return network((draw(values), plen), strict=False)


def old_key(network):
    return (network.version, int(network.network_address), network.prefixlen)


class TestPrefixEqualsIpaddress:
    @given(networks(), networks())
    @example(ipaddress.ip_network("::ffff:192.0.2.0/120"),
             ipaddress.ip_network("::192.0.2.0/120"))
    def test_operations(self, a, b):
        pa, pb = Prefix(str(a)), Prefix(str(b))
        assert str(pa) == str(a)
        assert hash(pa) == hash(a) and pa.network == a
        assert (pa == pb) == (a == b)
        assert (pa < pb) == (old_key(a) < old_key(b))
        assert pa.contains(pb) == (a.version == b.version and b.subnet_of(a))
        assert pa.packed() == a.network_address.packed
        afi = AFI_IPV4 if a.version == 4 else AFI_IPV6
        wire = pa.wire_bytes()
        decoded = Prefix.from_wire(wire, afi)
        assert decoded == reference_from_wire(wire, afi) == (pa, len(wire))
        assert str(decoded[0]) == str(a) and hash(decoded[0]) == hash(a)

    @given(st.one_of(v4_addresses, v6_addresses, st.binary(max_size=17)))
    def test_address_text(self, packed):
        try:
            expected = str(ipaddress.ip_address(packed))
        except ValueError as exc:
            expected = type(exc)
        try:
            assert format_address(packed) == expected
        except ValueError as exc:
            assert type(exc) == expected

    @given(st.sampled_from([AFI_IPV4, AFI_IPV6]), st.binary(max_size=18))
    def test_from_wire_masks_host_bits(self, afi, data):
        try:
            expected = reference_from_wire(data, afi)
        except ValueError:
            expected = ValueError
        try:
            assert Prefix.from_wire(data, afi) == expected
        except ValueError:
            assert expected is ValueError
