"""Tests for the pybgpstream-compatible facade."""

import pytest

from repro.bgp import (
    Announcement,
    ASPath,
    PathAttributes,
    PeerState,
    StateRecord,
    UpdateRecord,
    Withdrawal,
)
from repro.bgpstream import BGPStream, FilterError
from repro.mrt import RibDump
from repro.net import Prefix
from repro.ris import ArchiveWriter
from repro.utils.timeutil import ts

BASE = ts(2024, 6, 4, 12, 0)


@pytest.fixture
def archive_root(tmp_path):
    writer = ArchiveWriter(tmp_path)
    attrs6 = PathAttributes(as_path=ASPath.of(25091, 8298, 210312),
                            next_hop="2001:db8::1",
                            communities=((25091, 100),))
    attrs4 = PathAttributes(as_path=ASPath.of(16347, 12654), next_hop="192.0.2.1")
    writer.write_updates("rrc00", [
        UpdateRecord(BASE + 10, "rrc00", "2001:db8::2", 25091,
                     Announcement(Prefix("2a0d:3dc1:1200::/48"), attrs6)),
        UpdateRecord(BASE + 20, "rrc00", "2001:db8::2", 25091,
                     Withdrawal(Prefix("2a0d:3dc1:1200::/48"))),
        UpdateRecord(BASE + 30, "rrc00", "192.0.2.9", 16347,
                     Announcement(Prefix("84.205.64.0/24"), attrs4)),
        StateRecord(BASE + 40, "rrc00", "2001:db8::2", 25091,
                    PeerState.ESTABLISHED, PeerState.IDLE),
    ])
    writer.write_updates("rrc01", [
        UpdateRecord(BASE + 15, "rrc01", "2001:db8::7", 211509,
                     Announcement(Prefix("2a0d:3dc1:1215::/48"), attrs6)),
    ])
    dump = RibDump(BASE + 100, "rrc00")
    dump.add_route(Prefix("2a0d:3dc1:1200::/48"), 25091, "2001:db8::2",
                   attrs6, BASE)
    writer.write_rib(dump)
    return tmp_path


class TestStream:
    def test_all_elements_in_time_order(self, archive_root):
        elems = list(BGPStream(str(archive_root), BASE, BASE + 300))
        assert [e.type for e in elems] == ["A", "A", "W", "A", "S"]
        assert [e.time for e in elems] == [BASE + 10, BASE + 15, BASE + 20,
                                           BASE + 30, BASE + 40]

    def test_element_fields(self, archive_root):
        elems = list(BGPStream(str(archive_root), BASE, BASE + 300))
        first = elems[0]
        assert first.fields["prefix"] == "2a0d:3dc1:1200::/48"
        assert first.fields["as-path"] == "25091 8298 210312"
        assert first.fields["next-hop"] == "2001:db8::1"
        assert first.fields["communities"] == ["25091:100"]
        assert first.prefix == Prefix("2a0d:3dc1:1200::/48")
        assert first.as_path == "25091 8298 210312"

    def test_state_element_fields(self, archive_root):
        elems = [e for e in BGPStream(str(archive_root), BASE, BASE + 300)
                 if e.type == "S"]
        assert elems[0].fields == {"old-state": "established", "new-state": "idle"}

    def test_time_strings_accepted(self, archive_root):
        elems = list(BGPStream(str(archive_root), "2024-06-04 12:00",
                               "2024-06-04 12:05"))
        assert len(elems) == 5

    def test_collector_restriction(self, archive_root):
        elems = list(BGPStream(str(archive_root), BASE, BASE + 300,
                               collectors=["rrc01"]))
        assert {e.collector for e in elems} == {"rrc01"}

    def test_rib_mode(self, archive_root):
        elems = list(BGPStream(str(archive_root), BASE, BASE + 300,
                               record_type="ribs"))
        assert len(elems) == 1
        assert elems[0].type == "R"
        assert elems[0].fields["originated"] == BASE

    def test_invalid_record_type(self, archive_root):
        with pytest.raises(ValueError):
            BGPStream(str(archive_root), BASE, BASE + 300, record_type="nope")


class TestFilters:
    def test_prefix_more(self, archive_root):
        elems = list(BGPStream(str(archive_root), BASE, BASE + 300,
                               filter="prefix more 2a0d:3dc1::/32"))
        assert {e.fields["prefix"] for e in elems} == {
            "2a0d:3dc1:1200::/48", "2a0d:3dc1:1215::/48"}

    def test_prefix_exact(self, archive_root):
        elems = list(BGPStream(str(archive_root), BASE, BASE + 300,
                               filter="prefix exact 2a0d:3dc1:1215::/48"))
        assert len(elems) == 1

    @pytest.mark.parametrize("clauses", [
        ("prefix exact 2a0d:3dc1:1200::/48", "prefix exact 2a0d:3dc1:1215::/48"),
        # rrc01's file holds IPv6 only: it must not be skipped for the v4 clause.
        ("prefix exact 84.205.64.0/24", "prefix exact 2a0d:3dc1:1215::/48"),
        ("prefix more 2a0d:3dc1:1200::/40", "prefix more 84.205.0.0/16"),
    ])
    def test_repeated_prefix_clauses_are_a_union(self, archive_root, clauses):
        """A second clause of one type adds to the first (pybgpstream's
        repeated ``add_filter``) instead of replacing it."""
        def elems(text):
            return [(e.type, e.time, e.collector, e.fields["prefix"])
                    for e in BGPStream(str(archive_root), BASE, BASE + 300,
                                       filter=text)]

        singles = [set(elems(clause)) for clause in clauses]
        assert all(singles) and singles[0] != singles[1]
        union = sorted(set().union(*singles), key=lambda e: e[1])
        assert elems(" and ".join(clauses)) == union

    def test_ipversion(self, archive_root):
        elems = list(BGPStream(str(archive_root), BASE, BASE + 300,
                               filter="ipversion 4"))
        assert {e.fields["prefix"] for e in elems} == {"84.205.64.0/24"}

    def test_type_withdrawals(self, archive_root):
        elems = list(BGPStream(str(archive_root), BASE, BASE + 300,
                               filter="type withdrawals"))
        assert [e.type for e in elems] == ["W"]

    def test_peer_filter(self, archive_root):
        elems = list(BGPStream(str(archive_root), BASE, BASE + 300,
                               filter="peer 211509"))
        assert {e.peer_asn for e in elems} == {211509}

    def test_combined_clauses(self, archive_root):
        elems = list(BGPStream(
            str(archive_root), BASE, BASE + 300,
            filter="prefix more 2a0d:3dc1::/32 and type announcements"))
        assert [e.type for e in elems] == ["A", "A"]

    def test_collector_clause_sets_collectors(self, archive_root):
        stream = BGPStream(str(archive_root), BASE, BASE + 300,
                           filter="collector rrc01")
        assert stream.collectors == ["rrc01"]
        assert {e.collector for e in stream} == {"rrc01"}

    def test_state_elems_pass_prefix_filters(self, archive_root):
        elems = list(BGPStream(str(archive_root), BASE, BASE + 300,
                               filter="prefix more 2a0d:3dc1::/32"))
        # State messages carry no prefix; the prefix clause must not
        # exclude them only when type filtering keeps them — by default
        # prefix filters apply to route elems only.
        assert all(e.type in ("A", "W") for e in elems)

    def test_multi_token_peer_clause(self, archive_root):
        """A ``peer`` clause may list several ASNs in one clause."""
        elems = list(BGPStream(str(archive_root), BASE, BASE + 300,
                               filter="peer 25091 16347"))
        assert {e.peer_asn for e in elems} == {25091, 16347}
        # Order of the union is the stream order, not the clause order.
        assert [e.time for e in elems] == [BASE + 10, BASE + 20, BASE + 30,
                                           BASE + 40]

    def test_state_elems_survive_peer_but_not_prefix_clauses(self, archive_root):
        """State elems carry no prefix: a prefix/ipversion clause excludes
        them, while peer/collector clauses keep them."""
        by_peer = list(BGPStream(str(archive_root), BASE, BASE + 300,
                                 filter="peer 25091"))
        assert "S" in {e.type for e in by_peer}
        for clause in ("prefix more 2a0d:3dc1::/32", "ipversion 6"):
            elems = list(BGPStream(str(archive_root), BASE, BASE + 300,
                                   filter=clause))
            assert "S" not in {e.type for e in elems}

    def test_bad_filter_keyword(self, archive_root):
        with pytest.raises(FilterError):
            BGPStream(str(archive_root), BASE, BASE + 300, filter="frobnicate 1")

    def test_bare_keyword_without_value(self, archive_root):
        with pytest.raises(FilterError):
            BGPStream(str(archive_root), BASE, BASE + 300, filter="peer")

    def test_bad_prefix_mode(self, archive_root):
        with pytest.raises(FilterError):
            BGPStream(str(archive_root), BASE, BASE + 300,
                      filter="prefix around 10.0.0.0/8")

    def test_bad_prefix_value(self, archive_root):
        with pytest.raises(FilterError):
            BGPStream(str(archive_root), BASE, BASE + 300,
                      filter="prefix exact not-a-prefix")

    def test_compile_filter_mirrors_stream_filter(self, archive_root):
        from repro.bgpstream import compile_filter

        record_filter = compile_filter("peer 25091 16347 and ipversion 6")
        assert record_filter.peers == {25091, 16347}
        assert record_filter.ipversion == 6
        assert bool(record_filter)
        assert not compile_filter(None)
        assert not compile_filter("")
        with pytest.raises(FilterError):
            compile_filter("frobnicate 1")
