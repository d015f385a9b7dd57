"""Unit tests for repro.bgp.attributes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp import Aggregator, ASPath, Origin, PathAttributes


class TestASPath:
    def test_from_string(self):
        path = ASPath.from_string("4637 1299 25091 8298 210312")
        assert path.asns == (4637, 1299, 25091, 8298, 210312)

    def test_origin_and_head(self):
        path = ASPath.of(100, 200, 300)
        assert path.origin_as == 300
        assert path.head == 100

    def test_empty_path_has_no_origin(self):
        with pytest.raises(ValueError):
            ASPath(()).origin_as

    def test_prepend_returns_new(self):
        base = ASPath.of(200, 300)
        extended = base.prepend(100)
        assert extended.asns == (100, 200, 300)
        assert base.asns == (200, 300)

    def test_loop_detection(self):
        path = ASPath.of(100, 200, 300)
        assert path.contains(200)
        assert not path.contains(400)

    def test_len_and_iter(self):
        path = ASPath.of(10, 20, 30)
        assert len(path) == 3
        assert list(path) == [10, 20, 30]

    def test_str(self):
        assert str(ASPath.of(33891, 25091, 8298, 210312)) == "33891 25091 8298 210312"

    def test_invalid_asn_rejected(self):
        with pytest.raises(ValueError):
            ASPath.of(2**32)

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=20))
    def test_string_roundtrip(self, asns):
        path = ASPath(tuple(asns))
        assert ASPath.from_string(str(path)) == path


class TestAggregator:
    def test_valid(self):
        agg = Aggregator(12654, "10.19.29.192")
        assert str(agg) == "12654 10.19.29.192"

    def test_invalid_address(self):
        with pytest.raises(ValueError):
            Aggregator(12654, "not-an-ip")

    def test_ipv6_address_rejected(self):
        with pytest.raises(ValueError):
            Aggregator(12654, "::1")

    def test_bytes_roundtrip(self):
        agg = Aggregator(12654, "10.1.2.3")
        assert Aggregator.from_bytes(12654, agg.address_bytes()) == agg


class TestPathAttributes:
    def _attrs(self, **kwargs):
        defaults = dict(as_path=ASPath.of(25091, 8298, 210312),
                        next_hop="2001:db8::1")
        defaults.update(kwargs)
        return PathAttributes(**defaults)

    def test_origin_as(self):
        assert self._attrs().origin_as == 210312

    def test_default_origin_attribute(self):
        assert self._attrs().origin == Origin.IGP

    def test_invalid_origin(self):
        with pytest.raises(ValueError):
            self._attrs(origin=9)

    def test_invalid_next_hop(self):
        with pytest.raises(ValueError):
            self._attrs(next_hop="512.0.0.1")

    def test_invalid_community(self):
        with pytest.raises(ValueError):
            self._attrs(communities=((70000, 1),))

    def test_with_prepended(self):
        attrs = self._attrs()
        out = attrs.with_prepended(4637, next_hop="2001:db8::99")
        assert out.as_path.asns[0] == 4637
        assert out.next_hop == "2001:db8::99"
        assert attrs.as_path.asns[0] == 25091  # original untouched

    def test_with_prepended_keeps_next_hop(self):
        out = self._attrs().with_prepended(4637)
        assert out.next_hop == "2001:db8::1"

    def test_community_strings(self):
        attrs = self._attrs(communities=((65000, 1), (12654, 2)))
        assert attrs.community_strings() == ["65000:1", "12654:2"]

    def test_aggregator_carried(self):
        agg = Aggregator(12654, "10.0.0.1")
        attrs = self._attrs(aggregator=agg)
        assert attrs.with_prepended(1).aggregator == agg

    def test_origin_name(self):
        assert Origin.name(0) == "IGP"
        assert Origin.name(2) == "INCOMPLETE"
        assert "UNKNOWN" in Origin.name(7)
