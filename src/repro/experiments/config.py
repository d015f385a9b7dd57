"""Experiment configurations and scale presets.

The paper's experiments ran against the real Internet for weeks to
months.  Reproduction runs are parameterised by world size and window
length; ``full()`` presets match the paper's windows, ``quick()``
presets shrink both for tests and benchmarks while preserving every
mechanism (all shape targets in DESIGN.md hold at either scale).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.timeutil import DAY, from_iso

__all__ = ["CampaignConfig", "ReplicationConfig", "REPLICATION_PERIODS"]


@dataclass(frozen=True)
class CampaignConfig:
    """The 2024 beacon campaign (paper §4-§5)."""

    seed: int = 20240604
    #: synthetic-Internet size.
    n_tier2: int = 30
    n_stub: int = 260
    #: campaign window (defaults: the paper's exact instants).
    start: int = from_iso("2024-06-04 11:45")
    end: int = from_iso("2024-06-22 17:30")
    #: RIB-dump horizon for the lifespan study (paper: 2025-05-09).
    dump_horizon: int = from_iso("2025-05-09 00:00")
    #: number of ordinary RIS peer routers (besides the named ones).
    n_peers: int = 44
    #: probability that a slot suffers a transient (delayed-withdrawal)
    #: zombie clearing between the 90-minute and 3-hour marks.
    p_transient: float = 0.04
    #: probability that a slot suffers a persistent zombie lasting
    #: hours-to-days (the Fig. 3 short tail).
    p_persistent: float = 0.018
    #: noisy-peer withdrawal-drop probabilities (Table 5).
    noisy_drop_211509: float = 0.099
    noisy_drop_211380: float = 0.070
    #: enable the scripted case studies (Figs. 3-4, §5.1-§5.2).
    scripted_cases: bool = True

    @classmethod
    def full(cls) -> "CampaignConfig":
        return cls()

    @classmethod
    def quick(cls) -> "CampaignConfig":
        """Small world, 2-day window inside approach B (covers the
        2a0d:3dc1:2233 and :163 scripted slots of 06-18)."""
        return cls(
            n_tier2=14, n_stub=70, n_peers=18,
            start=from_iso("2024-06-17 12:00"),
            end=from_iso("2024-06-19 12:00"),
            dump_horizon=from_iso("2024-12-31 00:00"),
        )


@dataclass(frozen=True)
class ReplicationConfig:
    """One replication period of the Fontugne et al. study (paper §3)."""

    name: str
    start: int
    end: int
    seed: int = 20180719
    n_tier2: int = 16
    n_stub: int = 80
    n_peers: int = 24
    #: probability the noisy peer drops an IPv6 withdrawal towards the
    #: collector (Table 4's ~42.8 %, which survives dedup — fresh
    #: re-infection each interval).
    noisy_drop_v6: float = 0.43
    #: fraction of intervals covered by the noisy peer's rare, *long*
    #: IPv4 session wedge (Table 4: 4.4 % with double-counting that
    #: collapses to ~0.2 % without).
    noisy_v4_freeze_fraction: float = 0.044
    #: per-interval probability that a random peer session freezes,
    #: creating concurrent outbreaks across all beacons of one family.
    p_session_freeze_v4: float = 0.01
    p_session_freeze_v6: float = 0.01
    #: mean freeze length in intervals (>=1); drives the double-counting
    #: reduction (longer freezes -> more duplicate counts removed).
    freeze_intervals_v4: float = 2.4
    freeze_intervals_v6: float = 1.4
    #: per-interval, per-beacon probability of a prefix-scoped zombie.
    p_prefix_zombie: float = 0.03
    #: legacy pipeline's looking-glass miss probability (Table 2-3).
    legacy_miss_prob: float = 0.25

    def days(self) -> float:
        return (self.end - self.start) / DAY

    def scaled(self, days: int) -> "ReplicationConfig":
        """Same period, truncated to its first ``days`` days."""
        return replace(self, end=min(self.end, self.start + days * DAY))


def _period(name: str, start: str, end: str, **kwargs) -> ReplicationConfig:
    return ReplicationConfig(name=name, start=from_iso(start),
                             end=from_iso(end), **kwargs)


#: The paper's three replication periods (Table 1), with per-period fault
#: rates tuned to the paper's double-counting reductions: strong v4 and
#: moderate v6 duplication in 2018, v4-only duplication in 2017.
REPLICATION_PERIODS: dict[str, ReplicationConfig] = {
    # Initiation probabilities follow the paper's Table 1 arithmetic:
    # outbreaks_without_dc ≈ p_init × slots × beacons(family) and
    # outbreaks_with_dc ≈ that × mean freeze length.
    "2018": _period("2018", "2018-07-19", "2018-08-31",
                    seed=2018, freeze_intervals_v4=3.5,
                    freeze_intervals_v6=2.2,
                    p_session_freeze_v4=0.065, p_session_freeze_v6=0.14,
                    legacy_miss_prob=0.06),
    "2017-oct": _period("2017-oct", "2017-10-01", "2017-12-28",
                        seed=201710, freeze_intervals_v4=2.1,
                        freeze_intervals_v6=1.05,
                        p_session_freeze_v4=0.07, p_session_freeze_v6=0.185,
                        legacy_miss_prob=0.45),
    "2017-mar": _period("2017-mar", "2017-03-01", "2017-04-28",
                        seed=201703, freeze_intervals_v4=1.8,
                        freeze_intervals_v6=1.0,
                        p_session_freeze_v4=0.29, p_session_freeze_v6=0.125,
                        legacy_miss_prob=0.05),
}
