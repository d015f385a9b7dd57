"""Builders for the paper's figures (F2-F7).

Each builder returns the data series the figure plots, plus a ``render``
helper printing them as aligned text (the benchmark harness records
these series; no plotting dependency is required offline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis import (
    ConcurrencyStats,
    EmergenceStats,
    PathLengthStats,
    concurrent_outbreaks,
    emergence_rates,
    path_length_analysis,
)
from repro.core import (
    ResurrectionEvent,
    ZombieLifespan,
    find_resurrections,
)
from repro.experiments.campaign import CampaignRun
from repro.experiments.replication import ReplicationRun
from repro.net.prefix import Prefix
from repro.utils.timeutil import DAY, MINUTE, to_iso

__all__ = [
    "Figure2Point", "build_figure2", "render_figure2",
    "Figure3Data", "build_figure3", "render_figure3",
    "Figure4Data", "build_figure4", "render_figure4",
    "Figure5Data", "build_figure5",
    "Figure6Data", "build_figure6",
    "Figure7Data", "build_figure7",
]


# -- Figure 2: threshold sweep -------------------------------------------------


@dataclass(frozen=True)
class Figure2Point:
    threshold_minutes: int
    outbreaks_all: int
    fraction_all: float
    outbreaks_excluded: int
    fraction_excluded: float


def build_figure2(run: CampaignRun,
                  thresholds_minutes: Sequence[int] = tuple(range(90, 181, 10)),
                  ) -> list[Figure2Point]:
    """Outbreak count and fraction vs detection threshold, for all peers
    and with the noisy peers excluded (paper Fig. 2)."""
    points = []
    for minutes in thresholds_minutes:
        all_peers = run.detect(threshold=minutes * MINUTE, exclude_noisy=False)
        excluded = run.detect(threshold=minutes * MINUTE, exclude_noisy=True)
        points.append(Figure2Point(
            threshold_minutes=minutes,
            outbreaks_all=all_peers.outbreak_count,
            fraction_all=all_peers.outbreak_fraction(),
            outbreaks_excluded=excluded.outbreak_count,
            fraction_excluded=excluded.outbreak_fraction()))
    return points


def render_figure2(points: Sequence[Figure2Point]) -> str:
    lines = ["Figure 2: zombie outbreaks vs detection threshold",
             f"{'thr(min)':>8} | {'all #':>6} {'all %':>7} | "
             f"{'excl #':>6} {'excl %':>7}"]
    for point in points:
        lines.append(
            f"{point.threshold_minutes:>8} | {point.outbreaks_all:>6} "
            f"{point.fraction_all:>6.2%} | {point.outbreaks_excluded:>6} "
            f"{point.fraction_excluded:>6.2%}")
    return "\n".join(lines)


# -- Figure 3: duration CDF ----------------------------------------------------


@dataclass
class Figure3Data:
    """CDF inputs: outbreak durations (days, >= 1 day) for both lines."""

    durations_all: list[float]
    durations_excluded: list[float]
    lifespans_all: dict[Prefix, ZombieLifespan]
    lifespans_excluded: dict[Prefix, ZombieLifespan]

    @property
    def max_duration_all(self) -> float:
        return max(self.durations_all, default=0.0)

    @property
    def max_duration_excluded(self) -> float:
        return max(self.durations_excluded, default=0.0)


def build_figure3(run: CampaignRun, min_days: float = 1.0) -> Figure3Data:
    """Outbreak-duration CDFs from the 8-hourly RIB dumps (paper Fig. 3)."""
    all_lifespans = run.lifespans()
    excl_lifespans = run.lifespans(exclude_noisy=True)

    def durations(lifespans: dict[Prefix, ZombieLifespan]) -> list[float]:
        return sorted(ls.duration_days for ls in lifespans.values()
                      if ls.is_zombie and ls.duration_days >= min_days)

    return Figure3Data(
        durations_all=durations(all_lifespans),
        durations_excluded=durations(excl_lifespans),
        lifespans_all=all_lifespans,
        lifespans_excluded=excl_lifespans)


def render_figure3(data: Figure3Data) -> str:
    from repro.analysis import ECDF

    lines = ["Figure 3: CDF of zombie outbreak durations (>= 1 day)"]
    for label, values in (("all peers", data.durations_all),
                          ("noisy excluded", data.durations_excluded)):
        cdf = ECDF.from_values(values)
        series = " ".join(f"{x:.0f}d:{p:.0%}" for x, p in cdf.series())
        lines.append(f"  {label} (n={len(values)}): {series or 'none'}")
    return "\n".join(lines)


# -- Figure 4: resurrection timeline -------------------------------------------


@dataclass(frozen=True)
class Figure4Data:
    """The visibility timeline of one resurrected zombie prefix."""

    prefix: Prefix
    withdraw_time: int
    segments: tuple[tuple[int, int], ...]
    resurrections: tuple[ResurrectionEvent, ...]
    total_span_days: float


def build_figure4(run: CampaignRun,
                  prefix: Optional[Prefix] = None) -> Optional[Figure4Data]:
    """Timeline of the scripted resurrection prefix (2a0d:3dc1:1851::/48
    in the full campaign), or of the longest resurrected zombie."""
    data = build_figure3(run, min_days=0.0)
    lifespans = data.lifespans_excluded
    if prefix is None:
        prefix = run.scripted_prefixes.get("resurrection")
    candidates = [ls for ls in lifespans.values() if ls.is_zombie]
    if prefix is not None and prefix in lifespans \
            and lifespans[prefix].is_zombie:
        lifespan = lifespans[prefix]
    else:
        resurrected = [ls for ls in candidates
                       if find_resurrections([ls])]
        pool = resurrected or candidates
        if not pool:
            return None
        lifespan = max(pool, key=lambda ls: ls.duration_days)
    events = find_resurrections([lifespan])
    return Figure4Data(
        prefix=lifespan.prefix,
        withdraw_time=lifespan.withdraw_time,
        segments=tuple((s.start, s.end) for s in lifespan.segments),
        resurrections=tuple(events),
        total_span_days=lifespan.duration_days)


def render_figure4(data: Optional[Figure4Data]) -> str:
    if data is None:
        return "Figure 4: no resurrected zombie in this run"
    lines = [f"Figure 4: timeline of {data.prefix} "
             f"(withdrawn {to_iso(data.withdraw_time)})"]
    for start, end in data.segments:
        lines.append(f"  visible {to_iso(start)} -> {to_iso(end)} "
                     f"({(end - start) / DAY:.1f} days)")
    lines.append(f"  resurrections: {len(data.resurrections)}, "
                 f"total span {data.total_span_days:.1f} days")
    return "\n".join(lines)


# -- Figures 5-7: replication CDFs ---------------------------------------------


@dataclass(frozen=True)
class Figure5Data:
    with_dc: EmergenceStats
    without_dc: EmergenceStats


def build_figure5(run: ReplicationRun) -> Figure5Data:
    """Zombie emergence rate CDFs, double-counted vs not (paper Fig. 5)."""
    return Figure5Data(
        with_dc=emergence_rates(run.detect(dedup=False, exclude_noisy=True)),
        without_dc=emergence_rates(run.detect(dedup=True, exclude_noisy=True)))


@dataclass(frozen=True)
class Figure6Data:
    with_dc: PathLengthStats
    without_dc: PathLengthStats


def build_figure6(run: ReplicationRun) -> Figure6Data:
    """AS-path length CDFs (paper Fig. 6)."""
    return Figure6Data(
        with_dc=path_length_analysis(
            run.records, run.detect(dedup=False, exclude_noisy=True)),
        without_dc=path_length_analysis(
            run.records, run.detect(dedup=True, exclude_noisy=True)))


@dataclass(frozen=True)
class Figure7Data:
    with_dc: ConcurrencyStats
    without_dc: ConcurrencyStats


def build_figure7(run: ReplicationRun) -> Figure7Data:
    """Concurrent-outbreak CDFs (paper Fig. 7)."""
    return Figure7Data(
        with_dc=concurrent_outbreaks(
            run.detect(dedup=False, exclude_noisy=True).outbreaks),
        without_dc=concurrent_outbreaks(
            run.detect(dedup=True, exclude_noisy=True).outbreaks))
