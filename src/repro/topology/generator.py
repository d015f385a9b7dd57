"""Synthetic Internet generator.

Builds an AS topology with three ingredients:

1. a **fixed backbone** wiring every AS the paper names, so that the
   exact AS paths of the paper's case studies exist (e.g. the zombie
   subpaths ``33891 25091 8298 210312`` and ``9304 6939 43100 25091 8298
   210312`` and the resurrection path via ``4637 1299``);
2. a **tier-1 clique** plus randomly generated tier-2 transit ASes;
3. **stub ASes** attached under the transit layer with weights chosen so
   the paper's "impactful" ASes (4637, 33891, 9304) own the largest
   customer cones, in the paper's order.

Everything is deterministic under a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.topology.graph import ASTopology

__all__ = ["TopologyConfig", "build_internet", "TIER1_ASNS", "BACKBONE_EDGES"]

#: Tier-1 clique (real tier-1 ASNs; all mutually peered).
TIER1_ASNS: tuple[int, ...] = (1299, 3356, 12956, 6939, 2914, 701, 6453, 3257)

#: provider → customer edges that realise the paper's AS paths.
BACKBONE_EDGES: tuple[tuple[int, int], ...] = (
    # Beacon origin chain: AS210312 ← 8298 ← 25091.
    (8298, 210312),
    (25091, 8298),
    (34549, 8298),          # second upstream of 8298 (resurrection path)
    (3356, 34549),
    (1299, 25091),
    (33891, 25091),         # Core-Backbone: the §5.2 impactful-zombie cause
    (43100, 25091),
    (6939, 43100),          # HE above 43100 (extremely-long-lived path)
    (1299, 4637),           # Telstra Global: the §5.1 resurrection cause
    (6939, 9304),           # HGC: §5.2 extremely-long-lived cause
    (9304, 17639),
    (9304, 142271),
    # Resurrected-prefix path 61573 28598 10429 12956 3356 34549 8298 210312.
    (12956, 10429),
    (10429, 28598),
    (28598, 61573),
    # 2024 campaign noisy peers.
    (6939, 211509),
    (1299, 211509),
    (3356, 211380),
    (211509, 207301),       # the 35-37-day single-peer cluster sits here
    # 2018 replication noisy peer.
    (1299, 16347),
    # A handful of extra transits used as RIS peers in experiments.
    (3356, 33891),
    (2914, 4637),
)

#: Transit ASes under which stubs concentrate, with attachment weights
#: ordered to reproduce the paper's cone-size ranking
#: cone(4637) > cone(33891) > cone(9304).
CONE_WEIGHTS: tuple[tuple[int, float], ...] = (
    (4637, 0.30),
    (33891, 0.12),
    (9304, 0.05),
)


@dataclass
class TopologyConfig:
    """Knobs for the synthetic Internet."""

    seed: int = 20250701
    n_tier2: int = 30
    n_stub: int = 260
    #: probability that a stub is multihomed to a second provider.
    multihome_prob: float = 0.3
    #: number of tier-2 ↔ tier-2 peerings to sprinkle in.
    n_t2_peerings: int = 20
    #: networks directly connected (peering) to the beacon origin,
    #: standing in for the paper's ">1,700 directly connected networks".
    n_origin_peers: int = 12


def build_internet(config: TopologyConfig | None = None) -> ASTopology:
    """Build the synthetic Internet; deterministic under ``config.seed``."""
    config = config or TopologyConfig()
    rng = random.Random(config.seed)
    topo = ASTopology()

    for asn in TIER1_ASNS:
        topo.add_as(asn, tier=1)
    for a in TIER1_ASNS:
        for b in TIER1_ASNS:
            if a < b:
                topo.add_peering(a, b)

    for provider, customer in BACKBONE_EDGES:
        topo.add_provider_customer(provider, customer)

    # Random tier-2 transit layer: AS numbers 50000+i.
    tier2 = []
    for index in range(config.n_tier2):
        asn = 50000 + index
        topo.add_as(asn, tier=2)
        providers = rng.sample(TIER1_ASNS, k=rng.choice((1, 2)))
        for provider in providers:
            topo.add_provider_customer(provider, asn)
        tier2.append(asn)
    for _ in range(config.n_t2_peerings):
        a, b = rng.sample(tier2, k=2)
        if not _adjacent(topo, a, b):
            topo.add_peering(a, b)

    # Stubs: AS numbers 60000+i, biased under the cone-weighted transits.
    weighted, weights = zip(*CONE_WEIGHTS)
    residual = 1.0 - sum(weights)
    stub_providers = list(weighted) + [None]
    provider_weights = list(weights) + [residual]
    for index in range(config.n_stub):
        asn = 60000 + index
        topo.add_as(asn, tier=3)
        anchor = rng.choices(stub_providers, weights=provider_weights, k=1)[0]
        primary = anchor if anchor is not None else rng.choice(tier2)
        topo.add_provider_customer(primary, asn)
        if rng.random() < config.multihome_prob:
            secondary = rng.choice(tier2)
            if secondary != primary and not _adjacent(topo, secondary, asn):
                topo.add_provider_customer(secondary, asn)

    # The beacon origin's dense IXP presence: direct peerings.
    origin_peers = rng.sample(tier2, k=min(config.n_origin_peers, len(tier2)))
    for peer_asn in origin_peers:
        if not _adjacent(topo, 210312, peer_asn):
            topo.add_peering(210312, peer_asn)

    problems = topo.validate()
    if problems:
        raise RuntimeError(f"generated topology is invalid: {problems}")
    return topo


def _adjacent(topo: ASTopology, a: int, b: int) -> bool:
    return topo.graph.has_edge(a, b)
