"""AS-level topology with business relationships.

The topology is a labelled graph: nodes are ASNs, edges carry the
relationship seen from each endpoint (provider-customer or peer-peer).
Valley-free export and the customer-cone metric the paper uses to gauge
impact ("AS4637 ... ~6000 ASes in its customer cone") are computed here.
"""

from __future__ import annotations

from typing import Iterator

import networkx as nx

from repro.bgp.policy import Relationship
from repro.net.asn import validate_asn

__all__ = ["ASTopology"]


class ASTopology:
    """A mutable AS graph with provider/customer/peer edges."""

    def __init__(self):
        self._graph = nx.Graph()

    # -- construction ---------------------------------------------------

    def add_as(self, asn: int, **attrs) -> None:
        validate_asn(asn)
        self._graph.add_node(asn, **attrs)

    def add_provider_customer(self, provider: int, customer: int) -> None:
        """Add (or overwrite) a provider→customer edge."""
        self._add_edge(provider, customer, Relationship.CUSTOMER)

    def add_peering(self, a: int, b: int) -> None:
        """Add (or overwrite) a settlement-free peering edge."""
        self._add_edge(a, b, Relationship.PEER)

    def _add_edge(self, a: int, b: int, rel_of_b_from_a: Relationship) -> None:
        if a == b:
            raise ValueError(f"self-loop on AS{a}")
        validate_asn(a)
        validate_asn(b)
        self._graph.add_edge(a, b)
        # Store the relationship as seen from each endpoint.
        self._graph.edges[a, b][a] = rel_of_b_from_a
        self._graph.edges[a, b][b] = rel_of_b_from_a.inverse

    # -- queries ---------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    def __contains__(self, asn: int) -> bool:
        return asn in self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def asns(self) -> list[int]:
        return sorted(self._graph.nodes)

    def relationship(self, asn: int, neighbor: int) -> Relationship:
        """How ``asn`` sees ``neighbor`` (CUSTOMER/PEER/PROVIDER)."""
        try:
            return self._graph.edges[asn, neighbor][asn]
        except KeyError:
            raise KeyError(f"no adjacency AS{asn}–AS{neighbor}") from None

    def neighbors(self, asn: int) -> list[int]:
        return sorted(self._graph.neighbors(asn))

    def customers(self, asn: int) -> list[int]:
        return [n for n in self.neighbors(asn)
                if self.relationship(asn, n) is Relationship.CUSTOMER]

    def providers(self, asn: int) -> list[int]:
        return [n for n in self.neighbors(asn)
                if self.relationship(asn, n) is Relationship.PROVIDER]

    def peers(self, asn: int) -> list[int]:
        return [n for n in self.neighbors(asn)
                if self.relationship(asn, n) is Relationship.PEER]

    def customer_cone(self, asn: int) -> set[int]:
        """All ASes reachable from ``asn`` by walking only customer edges
        (including ``asn`` itself) — CAIDA's customer-cone definition."""
        cone: set[int] = set()
        stack = [asn]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(self.customers(current))
        return cone

    def customer_cone_size(self, asn: int) -> int:
        return len(self.customer_cone(asn))

    def validate(self) -> list[str]:
        """Sanity problems found in the graph (empty list = healthy)."""
        problems = []
        if not nx.is_connected(self._graph):
            problems.append("graph is not connected")
        for a, b in self._graph.edges:
            rel_ab = self._graph.edges[a, b].get(a)
            rel_ba = self._graph.edges[a, b].get(b)
            if rel_ab is None or rel_ba is None:
                problems.append(f"edge AS{a}-AS{b} missing relationship labels")
            elif rel_ab.inverse is not rel_ba:
                problems.append(f"edge AS{a}-AS{b} labels inconsistent")
        # Provider cycles break Gao-Rexford convergence.
        directed = nx.DiGraph((p, c) for p, c in self.provider_customer_pairs())
        if not nx.is_directed_acyclic_graph(directed):
            problems.append("customer-provider hierarchy contains a cycle")
        return problems

    def provider_customer_pairs(self) -> Iterator[tuple[int, int]]:
        for a, b in self._graph.edges:
            rel = self._graph.edges[a, b][a]
            if rel is Relationship.CUSTOMER:
                yield (a, b)
            elif rel is Relationship.PROVIDER:
                yield (b, a)
