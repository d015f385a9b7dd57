"""Cross-pipeline comparison (paper Table 3, Appendix B.1).

The paper diffs its revised results against the previous study's
published data at two granularities: **zombie routes** (interval,
prefix, peer router) and **zombie outbreaks** (interval, prefix).  Each
side "misses" items the other reports; this module computes both
directions, split by address family.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.detector import DetectionResult
from repro.core.state import PeerKey
from repro.net.prefix import Prefix

__all__ = ["ComparisonCounts", "PipelineComparison", "compare_results"]

RouteKey = tuple[str, int, PeerKey]       # (prefix, announce_time, peer)
OutbreakKey = tuple[str, int]             # (prefix, announce_time)


@dataclass(frozen=True)
class ComparisonCounts:
    """Missing-item counts in one direction, split by family."""

    routes_v4: int
    routes_v6: int
    outbreaks_v4: int
    outbreaks_v6: int


@dataclass(frozen=True)
class PipelineComparison:
    """Both directions of a Table 3 style comparison.

    ``missing_in_a`` counts items present in B's results but absent from
    A's (i.e. what pipeline A *misses*), and vice versa.
    """

    missing_in_a: ComparisonCounts
    missing_in_b: ComparisonCounts


def _route_keys(result: DetectionResult) -> set[RouteKey]:
    keys: set[RouteKey] = set()
    for outbreak in result.outbreaks:
        for route in outbreak.routes:
            keys.add((str(outbreak.prefix), outbreak.interval.announce_time,
                      route.peer))
    return keys


def _outbreak_keys(result: DetectionResult) -> set[OutbreakKey]:
    return {(str(o.prefix), o.interval.announce_time) for o in result.outbreaks}


def _count(keys: set, family_of) -> tuple[int, int]:
    v4 = sum(1 for key in keys if family_of(key))
    return v4, len(keys) - v4


def compare_results(result_a: DetectionResult,
                    result_b: DetectionResult) -> PipelineComparison:
    """Diff two detection runs over the same period."""
    routes_a, routes_b = _route_keys(result_a), _route_keys(result_b)
    outbreaks_a, outbreaks_b = _outbreak_keys(result_a), _outbreak_keys(result_b)

    def is_v4(key) -> bool:
        return Prefix(key[0]).is_ipv4

    a_missing_routes = routes_b - routes_a
    b_missing_routes = routes_a - routes_b
    a_missing_outbreaks = outbreaks_b - outbreaks_a
    b_missing_outbreaks = outbreaks_a - outbreaks_b

    ar_v4, ar_v6 = _count(a_missing_routes, is_v4)
    br_v4, br_v6 = _count(b_missing_routes, is_v4)
    ao_v4, ao_v6 = _count(a_missing_outbreaks, is_v4)
    bo_v4, bo_v6 = _count(b_missing_outbreaks, is_v4)

    return PipelineComparison(
        missing_in_a=ComparisonCounts(ar_v4, ar_v6, ao_v4, ao_v6),
        missing_in_b=ComparisonCounts(br_v4, br_v6, bo_v4, bo_v6),
    )
