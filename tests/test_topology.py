"""Tests for the AS topology graph and the synthetic Internet generator."""

import pytest

from repro.bgp import Relationship
from repro.topology import ASTopology, TopologyConfig, build_internet


def tiny_topology():
    """provider 1 -> customer 2 -> customer 3; 1 peers with 4."""
    topo = ASTopology()
    for asn in (1, 2, 3, 4):
        topo.add_as(asn)
    topo.add_provider_customer(1, 2)
    topo.add_provider_customer(2, 3)
    topo.add_peering(1, 4)
    return topo


class TestGraph:
    def test_relationship_views(self):
        topo = tiny_topology()
        assert topo.relationship(1, 2) is Relationship.CUSTOMER
        assert topo.relationship(2, 1) is Relationship.PROVIDER
        assert topo.relationship(1, 4) is Relationship.PEER
        assert topo.relationship(4, 1) is Relationship.PEER

    def test_missing_edge_raises(self):
        with pytest.raises(KeyError):
            tiny_topology().relationship(1, 3)

    def test_self_loop_rejected(self):
        topo = ASTopology()
        topo.add_as(1)
        with pytest.raises(ValueError):
            topo.add_peering(1, 1)

    def test_accessors(self):
        topo = tiny_topology()
        assert topo.customers(1) == [2]
        assert topo.providers(3) == [2]
        assert topo.peers(1) == [4]
        assert topo.neighbors(1) == [2, 4]

    def test_customer_cone(self):
        topo = tiny_topology()
        assert topo.customer_cone(1) == {1, 2, 3}
        assert topo.customer_cone(2) == {2, 3}
        assert topo.customer_cone(4) == {4}
        assert topo.customer_cone_size(1) == 3

    def test_validate_clean(self):
        assert tiny_topology().validate() == []

    def test_validate_detects_provider_cycle(self):
        topo = tiny_topology()
        topo.add_provider_customer(3, 1)  # 1->2->3->1
        assert any("cycle" in p for p in topo.validate())

    def test_validate_detects_disconnection(self):
        topo = tiny_topology()
        topo.add_as(99)
        assert any("connected" in p for p in topo.validate())

    def test_provider_customer_pairs(self):
        pairs = set(tiny_topology().provider_customer_pairs())
        assert pairs == {(1, 2), (2, 3)}


class TestGenerator:
    @pytest.fixture(scope="class")
    def world(self):
        return build_internet(TopologyConfig(seed=7, n_tier2=12, n_stub=80))

    def test_deterministic(self):
        config = TopologyConfig(seed=7, n_tier2=12, n_stub=80)
        a = build_internet(config)
        b = build_internet(config)
        assert a.asns() == b.asns()
        assert sorted(a.graph.edges) == sorted(b.graph.edges)

    def test_seed_changes_world(self):
        a = build_internet(TopologyConfig(seed=1, n_tier2=12, n_stub=80))
        b = build_internet(TopologyConfig(seed=2, n_tier2=12, n_stub=80))
        assert sorted(a.graph.edges) != sorted(b.graph.edges)

    def test_valid(self, world):
        assert world.validate() == []

    def test_paper_paths_exist(self, world):
        """The backbone must support the paper's case-study AS paths."""
        # 33891 25091 8298 210312 (impactful zombie)
        assert world.relationship(8298, 210312) is Relationship.CUSTOMER
        assert world.relationship(25091, 8298) is Relationship.CUSTOMER
        assert world.relationship(33891, 25091) is Relationship.CUSTOMER
        # 9304 6939 43100 25091 8298 210312 (extremely long-lived)
        assert world.relationship(43100, 25091) is Relationship.CUSTOMER
        assert world.relationship(6939, 43100) is Relationship.CUSTOMER
        assert world.relationship(6939, 9304) is Relationship.CUSTOMER
        # 4637 1299 25091 ... (resurrection)
        assert world.relationship(1299, 25091) is Relationship.CUSTOMER
        assert world.relationship(1299, 4637) is Relationship.CUSTOMER
        # 61573 28598 10429 12956 3356 34549 8298 210312
        assert world.relationship(34549, 8298) is Relationship.CUSTOMER
        assert world.relationship(3356, 34549) is Relationship.CUSTOMER
        assert world.relationship(12956, 10429) is Relationship.CUSTOMER
        assert world.relationship(10429, 28598) is Relationship.CUSTOMER
        assert world.relationship(28598, 61573) is Relationship.CUSTOMER

    def test_tier1_clique_peers(self, world):
        assert world.relationship(1299, 3356) is Relationship.PEER
        assert world.relationship(12956, 3356) is Relationship.PEER

    def test_cone_ordering_matches_paper(self, world):
        """cone(4637) > cone(33891) > cone(9304) (paper: ~6000/~2100/~750)."""
        c4637 = world.customer_cone_size(4637)
        c33891 = world.customer_cone_size(33891)
        c9304 = world.customer_cone_size(9304)
        assert c4637 > c33891 > c9304 > 1

    def test_origin_has_direct_peers(self, world):
        assert len(world.peers(210312)) >= 5

    def test_noisy_peers_present(self, world):
        for asn in (211509, 211380, 16347, 207301):
            assert asn in world

    def test_size_knobs(self):
        small = build_internet(TopologyConfig(seed=7, n_tier2=10, n_stub=20))
        big = build_internet(TopologyConfig(seed=7, n_tier2=10, n_stub=120))
        assert len(big) > len(small)
