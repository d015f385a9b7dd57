"""Zombie emergence rate (paper Fig. 5, Appendix B.2).

For every ⟨beacon prefix, peer AS⟩ pair, the emergence rate is the
likelihood that an announcement of that beacon ends up stuck at that
peer AS: zombies(pair) / visible(pair).  Fig. 5 plots the CDF of that
likelihood over all pairs, per address family, with and without
double-counting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cdf import ECDF
from repro.core.detector import DetectionResult

__all__ = ["EmergenceStats", "emergence_rates"]


@dataclass(frozen=True)
class EmergenceStats:
    """Per-family emergence-rate distributions plus headline numbers."""

    cdf_v4: ECDF
    cdf_v6: ECDF
    #: fraction of pairs with zero zombie occurrences.
    zero_fraction: float
    #: median emergence likelihood over all pairs.
    median_rate: float
    #: average rate per family (the paper's 0.88 % / 1.82 % style figures).
    mean_rate_v4: float
    mean_rate_v6: float


def emergence_rates(result: DetectionResult) -> EmergenceStats:
    """Compute Fig. 5's distributions from one detection run."""
    rates_v4: list[float] = []
    rates_v6: list[float] = []
    for pair, visible in sorted(result.visible_pairs.items(),
                                key=lambda item: (str(item[0][0]), item[0][1])):
        prefix, _asn = pair
        zombies = result.zombie_pairs.get(pair, 0)
        rate = zombies / visible if visible else 0.0
        (rates_v4 if prefix.is_ipv4 else rates_v6).append(rate)

    all_rates = rates_v4 + rates_v6
    zero_fraction = (sum(1 for r in all_rates if r == 0.0) / len(all_rates)
                     if all_rates else 0.0)
    median_rate = sorted(all_rates)[len(all_rates) // 2] if all_rates else 0.0
    return EmergenceStats(
        cdf_v4=ECDF.from_values(rates_v4),
        cdf_v6=ECDF.from_values(rates_v6),
        zero_fraction=zero_fraction,
        median_rate=median_rate,
        mean_rate_v4=(sum(rates_v4) / len(rates_v4)) if rates_v4 else 0.0,
        mean_rate_v6=(sum(rates_v6) / len(rates_v6)) if rates_v6 else 0.0,
    )
