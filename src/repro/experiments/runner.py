"""Cached experiment runs.

Simulating a world takes seconds to minutes; the tables, figures and
benchmarks all consume the *same* run.  This module memoises runs per
configuration so a test/benchmark session simulates each world once.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.campaign import CampaignRun, run_campaign
from repro.experiments.config import (
    REPLICATION_PERIODS,
    CampaignConfig,
    ReplicationConfig,
)
from repro.experiments.replication import ReplicationRun, run_replication

__all__ = ["campaign_run", "replication_run", "replication_runs"]

_campaign_cache: dict[CampaignConfig, CampaignRun] = {}
_replication_cache: dict[ReplicationConfig, ReplicationRun] = {}


def campaign_run(config: Optional[CampaignConfig] = None,
                 quick: bool = False) -> CampaignRun:
    """Return (and cache) the campaign run for ``config``."""
    if config is None:
        config = CampaignConfig.quick() if quick else CampaignConfig.full()
    if config not in _campaign_cache:
        _campaign_cache[config] = run_campaign(config)
    return _campaign_cache[config]


def replication_run(period: str = "2018", days: Optional[int] = None,
                    config: Optional[ReplicationConfig] = None
                    ) -> ReplicationRun:
    """Return (and cache) one replication period's run.

    ``days`` truncates the period (the paper's periods span 40-90 days;
    a handful of days preserves every ratio the tables report).
    """
    if config is None:
        config = REPLICATION_PERIODS[period]
        if days is not None:
            config = config.scaled(days)
    if config not in _replication_cache:
        _replication_cache[config] = run_replication(config)
    return _replication_cache[config]


def replication_runs(days: Optional[int] = 6) -> list[ReplicationRun]:
    """All three periods, truncated to ``days`` each."""
    return [replication_run(period, days=days)
            for period in REPLICATION_PERIODS]
