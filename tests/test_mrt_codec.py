"""Round-trip tests for the MRT binary codec."""

import gzip
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from repro.mrt import (
    MRTDecodeError,
    RibDump,
    RibPeer,
    decode_bgp4mp,
    decode_mrt_header,
    decode_rib_dump,
    encode_mrt_record,
    encode_rib_dump,
    encode_state_record,
    encode_update_record,
    read_updates_file,
    write_updates_file,
)
from repro.mrt.attr_codec import AttributeDecoder, encode_attributes
from repro.mrt.constants import MRT_TABLE_DUMP_V2, TDV2_RIB_IPV6_UNICAST
from repro.net import Prefix


def v6_attrs(*asns, aggregator=None, communities=()):
    return PathAttributes(as_path=ASPath.of(*asns), next_hop="2001:db8::1",
                          aggregator=aggregator, communities=tuple(communities))


def v4_attrs(*asns, aggregator=None):
    return PathAttributes(as_path=ASPath.of(*asns), next_hop="192.0.2.7",
                          aggregator=aggregator)


def roundtrip(record):
    if isinstance(record, StateRecord):
        blob = encode_state_record(record)
    else:
        blob = encode_update_record(record)
    header = decode_mrt_header(blob)
    return decode_bgp4mp(header, blob[12:], record.collector)


class TestUpdateRoundtrip:
    def test_v6_announcement(self):
        rec = UpdateRecord(1717500000, "rrc00", "2001:db8::2", 25091,
                           Announcement(Prefix("2a0d:3dc1:1145::/48"),
                                        v6_attrs(25091, 8298, 210312)))
        (decoded,) = roundtrip(rec)
        assert decoded.timestamp == rec.timestamp
        assert decoded.peer_asn == 25091
        assert decoded.peer_address == "2001:db8::2"
        assert decoded.prefix == rec.prefix
        assert decoded.attributes.as_path == rec.attributes.as_path
        assert decoded.attributes.next_hop == "2001:db8::1"

    def test_v6_withdrawal(self):
        rec = UpdateRecord(1717500000, "rrc01", "2001:db8::2", 25091,
                           Withdrawal(Prefix("2a0d:3dc1:1145::/48")))
        (decoded,) = roundtrip(rec)
        assert decoded.is_withdrawal
        assert decoded.prefix == rec.prefix

    def test_v4_announcement(self):
        rec = UpdateRecord(1531965602, "rrc21", "192.0.2.9", 16347,
                           Announcement(Prefix("93.175.144.0/24"),
                                        v4_attrs(16347, 12654)))
        (decoded,) = roundtrip(rec)
        assert decoded.prefix == rec.prefix
        assert decoded.attributes.next_hop == "192.0.2.7"

    def test_v4_withdrawal(self):
        rec = UpdateRecord(1531965602, "rrc21", "192.0.2.9", 16347,
                           Withdrawal(Prefix("93.175.144.0/24")))
        (decoded,) = roundtrip(rec)
        assert decoded.is_withdrawal

    def test_aggregator_preserved(self):
        agg = Aggregator(12654, "10.19.29.192")
        rec = UpdateRecord(1531965602, "rrc00", "2001:db8::2", 25091,
                           Announcement(Prefix("2001:7fb:fe00::/48"),
                                        v6_attrs(25091, 12654, aggregator=agg)))
        (decoded,) = roundtrip(rec)
        assert decoded.attributes.aggregator == agg

    def test_communities_preserved(self):
        rec = UpdateRecord(1, "rrc00", "2001:db8::2", 25091,
                           Announcement(Prefix("2001:7fb:fe00::/48"),
                                        v6_attrs(25091, 12654,
                                                 communities=[(65000, 1), (25091, 100)])))
        (decoded,) = roundtrip(rec)
        assert decoded.attributes.communities == ((65000, 1), (25091, 100))

    def test_ipv6_afi_over_ipv4_session(self):
        """The paper's noisy peer 176.119.234.201 sends IPv6 routes over an
        IPv4 BGP transport; the BGP4MP header family follows the transport."""
        rec = UpdateRecord(1718000000, "rrc25", "176.119.234.201", 211509,
                           Announcement(Prefix("2a0d:3dc1:1145::/48"),
                                        v6_attrs(211509, 210312)))
        (decoded,) = roundtrip(rec)
        assert decoded.peer_address == "176.119.234.201"
        assert decoded.prefix.is_ipv6

    def test_long_as_path(self):
        path = tuple(range(1000, 1000 + 300))  # forces two AS_SEQUENCE segments
        rec = UpdateRecord(1, "rrc00", "2001:db8::2", 25091,
                           Announcement(Prefix("2001:7fb:fe00::/48"),
                                        PathAttributes(as_path=ASPath(path),
                                                       next_hop="2001:db8::1")))
        (decoded,) = roundtrip(rec)
        assert decoded.attributes.as_path.asns == path


class TestStateRoundtrip:
    def test_state_change(self):
        rec = StateRecord(1717500000, "rrc00", "2001:db8::2", 25091,
                          PeerState.ESTABLISHED, PeerState.IDLE)
        (decoded,) = roundtrip(rec)
        assert decoded.old_state == PeerState.ESTABLISHED
        assert decoded.new_state == PeerState.IDLE
        assert decoded.is_session_down


class TestAttrCodec:
    def test_rib_entry_mode_roundtrip(self):
        attrs = v6_attrs(9304, 6939, 43100, 25091, 8298, 210312)
        blob = encode_attributes(attrs, rib_entry=True)
        decoded, _, _ = AttributeDecoder().attributes(blob, rib_entry=True)
        assert decoded == attrs

    def test_missing_as_path_raises(self):
        """An update may carry no AS_PATH (a pure MP_UNREACH); a RIB
        entry may not."""
        assert AttributeDecoder().attributes(b"") == (None, [], [])
        origin_only = bytes([0x40, 1, 1, 0])
        entry = (bytes(4) + Prefix("2001:db8::/32").wire_bytes()
                 + bytes([0, 1, 0, 0, 0, 0, 0, 0, 0, len(origin_only)])
                 + origin_only)
        blob = encode_rib_dump(RibDump(1, "rrc00", [RibPeer(1, "::1")]))
        blob += encode_mrt_record(1, MRT_TABLE_DUMP_V2, TDV2_RIB_IPV6_UNICAST,
                                  entry)
        with pytest.raises(ValueError, match="AS_PATH"):
            decode_rib_dump(blob)

    def test_unknown_attribute_raises(self):
        # flags=0xC0, type=99, len=0
        with pytest.raises(ValueError):
            AttributeDecoder().attributes(bytes([0xC0, 99, 0]))

    @given(st.lists(st.integers(min_value=1, max_value=2**32 - 1),
                    min_size=1, max_size=40))
    def test_as_path_roundtrip_property(self, asns):
        attrs = PathAttributes(as_path=ASPath(tuple(asns)), next_hop="2001:db8::1")
        blob = encode_attributes(attrs, announced=[Prefix("2001:db8:1::/48")])
        decoded, announced, _ = AttributeDecoder().attributes(blob)
        assert decoded.as_path.asns == tuple(asns)
        assert announced == [Prefix("2001:db8:1::/48")]


def splice_attribute(blob, attribute):
    """``blob`` — one BGP4MP_MESSAGE_AS4 UPDATE record as
    ``encode_update_record`` writes it — with ``attribute`` appended to
    its path-attribute block, and the attribute-block, BGP message and
    MRT lengths fixed to match."""
    (afi,) = struct.unpack_from("!H", blob, 12 + 10)
    bgp = 12 + 12 + 2 * (4 if afi == 1 else 16)  # after the BGP4MP header
    (withdrawn,) = struct.unpack_from("!H", blob, bgp + 19)
    block_at = bgp + 21 + withdrawn
    (block,) = struct.unpack_from("!H", blob, block_at)
    end = block_at + 2 + block
    out = bytearray(blob[:end] + attribute + blob[end:])
    struct.pack_into("!H", out, block_at, block + len(attribute))
    (message,) = struct.unpack_from("!H", blob, bgp + 16)
    struct.pack_into("!H", out, bgp + 16, message + len(attribute))
    struct.pack_into("!I", out, 8, len(out) - 12)
    return bytes(out)


UNUSED_ATTRIBUTES = {
    "med": struct.pack("!BBBI", 0x80, 4, 4, 100),
    "local_pref": struct.pack("!BBBI", 0x40, 5, 4, 200),
    "atomic_aggregate": struct.pack("!BBB", 0x40, 6, 0),
    "large_community": struct.pack("!BBB3I", 0xC0, 32, 12, 25091, 1, 2),
    "large_community_extended": struct.pack("!BBH6I", 0xD0, 32, 24,
                                            25091, 1, 2, 8298, 3, 4),
}


class TestUnusedAttributes:
    """Attributes the decoder reads nothing from are skipped by their
    length: the record decodes, strictly, as if they were absent."""

    @pytest.mark.parametrize("name", sorted(UNUSED_ATTRIBUTES))
    @pytest.mark.parametrize("record", [
        UpdateRecord(1717500000, "rrc00", "2001:db8::2", 25091,
                     Announcement(Prefix("2a0d:3dc1:1145::/48"),
                                  v6_attrs(25091, 8298, 210312))),
        UpdateRecord(1717500000, "rrc00", "192.0.2.9", 25091,
                     Announcement(Prefix("93.175.149.0/24"),
                                  v4_attrs(25091, 12654))),
    ], ids=["v6", "v4"])
    def test_skipped_under_strict(self, tmp_path, name, record):
        path = tmp_path / "updates.gz"
        blob = splice_attribute(encode_update_record(record),
                                UNUSED_ATTRIBUTES[name])
        with gzip.open(path, "wb") as handle:
            handle.write(blob)
        assert list(read_updates_file(path, "rrc00",
                                      error_policy="strict")) == [record]

    @pytest.mark.parametrize("type_code", [17, 18])
    def test_as4_attributes_still_raise(self, type_code):
        with pytest.raises(ValueError, match="unsupported attribute"):
            AttributeDecoder().attributes(bytes([0xC0, type_code, 0]))


class TestFiles:
    def _records(self):
        return [
            UpdateRecord(100, "rrc00", "2001:db8::2", 25091,
                         Announcement(Prefix("2a0d:3dc1:1145::/48"),
                                      v6_attrs(25091, 8298, 210312))),
            UpdateRecord(50, "rrc00", "2001:db8::2", 25091,
                         Withdrawal(Prefix("2a0d:3dc1:1130::/48"))),
            StateRecord(75, "rrc00", "2001:db8::3", 211509,
                        PeerState.ESTABLISHED, PeerState.IDLE),
        ]

    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "updates.20240604.1145.gz"
        count = write_updates_file(path, self._records())
        assert count == 3
        decoded = list(read_updates_file(path, "rrc00"))
        assert len(decoded) == 3
        # Sorted by time on write.
        assert [r.timestamp for r in decoded] == [50, 75, 100]

    def test_corrupt_record_skipped_when_lenient(self, tmp_path):
        path = tmp_path / "updates.gz"
        write_updates_file(path, self._records())
        # Append a record with a valid header but garbage body.
        import struct
        with gzip.open(path, "ab") as handle:
            garbage = struct.pack("!IHHI", 999, 16, 4, 8) + b"\x00" * 8
            handle.write(garbage)
        decoded = list(read_updates_file(path, "rrc00"))
        assert len(decoded) == 3  # garbage silently dropped

    def test_corrupt_record_raises_when_strict(self, tmp_path):
        import struct
        path = tmp_path / "updates.gz"
        with gzip.open(path, "wb") as handle:
            handle.write(struct.pack("!IHHI", 999, 16, 4, 8) + b"\x00" * 8)
        with pytest.raises(MRTDecodeError):
            list(read_updates_file(path, "rrc00", error_policy="strict"))

    def test_truncated_file_raises(self, tmp_path):
        import struct
        path = tmp_path / "updates.gz"
        with gzip.open(path, "wb") as handle:
            handle.write(struct.pack("!IHHI", 999, 16, 4, 100) + b"\x00" * 10)
        with pytest.raises(MRTDecodeError):
            list(read_updates_file(path, "rrc00", error_policy="strict"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "updates.gz"
        write_updates_file(path, [])
        assert list(read_updates_file(path, "rrc00")) == []
