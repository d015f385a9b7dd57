"""Unit tests for the Gao-Rexford policy model."""

from repro.bgp import ASPath, PathAttributes, Relationship, route_key, should_export


def attrs(*asns):
    return PathAttributes(as_path=ASPath.of(*asns), next_hop="2001:db8::1")


class TestPreference:
    def test_order(self):
        assert (Relationship.CUSTOMER.rank
                < Relationship.PEER.rank
                < Relationship.PROVIDER.rank)

    def test_inverse(self):
        assert Relationship.CUSTOMER.inverse is Relationship.PROVIDER
        assert Relationship.PROVIDER.inverse is Relationship.CUSTOMER
        assert Relationship.PEER.inverse is Relationship.PEER


class TestExport:
    def test_local_routes_to_everyone(self):
        for rel in Relationship:
            assert should_export(None, rel)

    def test_customer_routes_to_everyone(self):
        for rel in Relationship:
            assert should_export(Relationship.CUSTOMER, rel)

    def test_peer_routes_only_to_customers(self):
        assert should_export(Relationship.PEER, Relationship.CUSTOMER)
        assert not should_export(Relationship.PEER, Relationship.PEER)
        assert not should_export(Relationship.PEER, Relationship.PROVIDER)

    def test_provider_routes_only_to_customers(self):
        assert should_export(Relationship.PROVIDER, Relationship.CUSTOMER)
        assert not should_export(Relationship.PROVIDER, Relationship.PEER)
        assert not should_export(Relationship.PROVIDER, Relationship.PROVIDER)


class TestDecision:
    """The lowest :func:`route_key` wins the decision."""

    def test_customer_beats_shorter_provider_path(self):
        # Customer route with longer path still wins (local-pref first).
        assert (route_key(Relationship.CUSTOMER, attrs(1, 2, 3, 4), 0)
                < route_key(Relationship.PROVIDER, attrs(9, 4), 1))

    def test_shorter_path_wins_same_relationship(self):
        assert (route_key(Relationship.PEER, attrs(1, 4), 5)
                < route_key(Relationship.PEER, attrs(1, 2, 4), 1))

    def test_tiebreak_lowest_wins(self):
        # b has the lower neighbour ASN, b wins
        assert (route_key(Relationship.PEER, attrs(1, 4), 7)
                > route_key(Relationship.PEER, attrs(2, 4), 3))

    def test_local_origin_beats_everything(self):
        assert (route_key(None, attrs(4), 9)
                < route_key(Relationship.CUSTOMER, attrs(4), 0))

    def test_antisymmetry(self):
        a = route_key(Relationship.PEER, attrs(1, 4), 1)
        b = route_key(Relationship.CUSTOMER, attrs(1, 2, 4), 2)
        assert (a > b) == (b < a)
        assert a != b
