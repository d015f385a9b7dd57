"""Builders for the paper's tables (T1-T5).

Each builder consumes experiment runs and returns a structured result
with a ``render()`` producing the same rows the paper prints.  Absolute
numbers come from the simulated substrate; the shape targets are listed
in DESIGN.md §4.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis import compare_results
from repro.core import DetectionResult
from repro.experiments.campaign import NOISY_PEER_ROUTERS, CampaignRun
from repro.experiments.replication import NOISY_PEER_16347, ReplicationRun
from repro.utils.timeutil import MINUTE

__all__ = [
    "Table1Row", "build_table1", "render_table1",
    "Table2Row", "build_table2", "render_table2",
    "Table3Result", "build_table3", "render_table3",
    "Table4Result", "build_table4", "render_table4",
    "Table5Row", "build_table5", "render_table5",
]


def _family_counts(result: DetectionResult) -> tuple[int, int]:
    v4, v6 = result.split_by_family()
    return len(v4), len(v6)


# -- Table 1: double-counting impact ----------------------------------------


@dataclass(frozen=True)
class Table1Row:
    period: str
    visible_prefixes: int
    with_dc_v4: int
    with_dc_v6: int
    without_dc_v4: int
    without_dc_v6: int

    @property
    def reduction_v4(self) -> float:
        if self.with_dc_v4 == 0:
            return 0.0
        return 1.0 - self.without_dc_v4 / self.with_dc_v4

    @property
    def reduction_v6(self) -> float:
        if self.with_dc_v6 == 0:
            return 0.0
        return 1.0 - self.without_dc_v6 / self.with_dc_v6


def build_table1(runs: Iterable[ReplicationRun]) -> list[Table1Row]:
    """Zombie outbreaks with vs without double-counting, noisy peer
    excluded (paper Table 1)."""
    rows = []
    for run in runs:
        with_dc = run.detect(dedup=False, exclude_noisy=True)
        without_dc = run.detect(dedup=True, exclude_noisy=True)
        w4, w6 = _family_counts(with_dc)
        n4, n6 = _family_counts(without_dc)
        rows.append(Table1Row(
            period=run.config.name,
            visible_prefixes=without_dc.visible_count,
            with_dc_v4=w4, with_dc_v6=w6,
            without_dc_v4=n4, without_dc_v6=n6))
    return rows


def render_table1(rows: Sequence[Table1Row]) -> str:
    lines = ["Table 1: zombie outbreaks with vs without double-counting",
             f"{'Period':>10} {'#visible':>9} | {'withDC v4':>9} {'v6':>6} "
             f"| {'noDC v4':>8} {'v6':>6} | {'red. v4':>8} {'v6':>7}"]
    for row in rows:
        lines.append(
            f"{row.period:>10} {row.visible_prefixes:>9} | "
            f"{row.with_dc_v4:>9} {row.with_dc_v6:>6} | "
            f"{row.without_dc_v4:>8} {row.without_dc_v6:>6} | "
            f"{row.reduction_v4:>7.1%} {row.reduction_v6:>6.1%}")
    return "\n".join(lines)


# -- Table 2: previous study vs ours -----------------------------------------


@dataclass(frozen=True)
class Table2Row:
    period: str
    visible_prefixes: int
    study_v4: int
    study_v6: int
    with_dc_v4: int
    with_dc_v6: int
    without_dc_v4: int
    without_dc_v6: int


def build_table2(runs: Iterable[ReplicationRun]) -> list[Table2Row]:
    """Adds the legacy ("Study") pipeline's counts (paper Table 2)."""
    rows = []
    for run in runs:
        study = run.detect_legacy()
        with_dc = run.detect(dedup=False, exclude_noisy=True)
        without_dc = run.detect(dedup=True, exclude_noisy=True)
        s4, s6 = _family_counts(study)
        w4, w6 = _family_counts(with_dc)
        n4, n6 = _family_counts(without_dc)
        rows.append(Table2Row(
            period=run.config.name, visible_prefixes=without_dc.visible_count,
            study_v4=s4, study_v6=s6, with_dc_v4=w4, with_dc_v6=w6,
            without_dc_v4=n4, without_dc_v6=n6))
    return rows


def render_table2(rows: Sequence[Table2Row]) -> str:
    lines = ["Table 2: previous study vs our estimates",
             f"{'Period':>10} | {'study v4':>8} {'v6':>6} | {'withDC v4':>9} "
             f"{'v6':>6} | {'noDC v4':>8} {'v6':>6} | {'#visible':>9}"]
    for row in rows:
        lines.append(
            f"{row.period:>10} | {row.study_v4:>8} {row.study_v6:>6} | "
            f"{row.with_dc_v4:>9} {row.with_dc_v6:>6} | "
            f"{row.without_dc_v4:>8} {row.without_dc_v6:>6} | "
            f"{row.visible_prefixes:>9}")
    return "\n".join(lines)


# -- Table 3: missing routes/outbreaks ----------------------------------------


@dataclass(frozen=True)
class Table3Result:
    """Missing zombie routes/outbreaks in each direction (paper Table 3).

    ``study_missing_*``: items our revised pipeline reports that the
    legacy one does not; ``ours_missing_*``: vice versa.
    """

    study_missing_routes_v4: int
    study_missing_routes_v6: int
    study_missing_outbreaks_v4: int
    study_missing_outbreaks_v6: int
    ours_missing_routes_v4: int
    ours_missing_routes_v6: int
    ours_missing_outbreaks_v4: int
    ours_missing_outbreaks_v6: int


def build_table3(runs: Iterable[ReplicationRun]) -> Table3Result:
    """Aggregate route-level diffs over all periods.  Both pipelines are
    compared noisy-peer-excluded (the legacy model is insensitive to the
    wedged peer — its published counts show no such explosion)."""
    totals = [0] * 8
    for run in runs:
        ours = run.detect(dedup=True, exclude_noisy=True)
        study = run.detect_legacy()
        comparison = compare_results(study, ours)
        study_missing = comparison.missing_in_a
        ours_missing = comparison.missing_in_b
        totals[0] += study_missing.routes_v4
        totals[1] += study_missing.routes_v6
        totals[2] += study_missing.outbreaks_v4
        totals[3] += study_missing.outbreaks_v6
        totals[4] += ours_missing.routes_v4
        totals[5] += ours_missing.routes_v6
        totals[6] += ours_missing.outbreaks_v4
        totals[7] += ours_missing.outbreaks_v6
    return Table3Result(*totals)


def render_table3(result: Table3Result) -> str:
    return "\n".join([
        "Table 3: missing zombie routes and outbreaks (both directions)",
        f"  study misses: routes v4={result.study_missing_routes_v4} "
        f"v6={result.study_missing_routes_v6}, outbreaks "
        f"v4={result.study_missing_outbreaks_v4} v6={result.study_missing_outbreaks_v6}",
        f"  ours misses:  routes v4={result.ours_missing_routes_v4} "
        f"v6={result.ours_missing_routes_v6}, outbreaks "
        f"v4={result.ours_missing_outbreaks_v4} v6={result.ours_missing_outbreaks_v6}",
    ])


# -- Table 4: the 2018 noisy peer --------------------------------------------


@dataclass(frozen=True)
class Table4Result:
    """Mean/median zombie likelihood of ⟨beacon, AS16347⟩ pairs."""

    with_dc_mean_v4: float
    with_dc_mean_v6: float
    with_dc_median_v4: float
    with_dc_median_v6: float
    without_dc_mean_v4: float
    without_dc_mean_v6: float
    without_dc_median_v4: float
    without_dc_median_v6: float


def _noisy_pair_rates(result: DetectionResult, asn: int,
                      ipv6: bool) -> list[float]:
    rates = []
    for (prefix, pair_asn), visible in result.visible_pairs.items():
        if pair_asn != asn or prefix.is_ipv6 != ipv6 or not visible:
            continue
        rates.append(result.zombie_pairs.get((prefix, pair_asn), 0) / visible)
    return rates


def build_table4(run: ReplicationRun) -> Table4Result:
    """Noisy-peer likelihoods with and without double-counting."""
    asn = NOISY_PEER_16347.asn

    def stats(result: DetectionResult, ipv6: bool) -> tuple[float, float]:
        rates = _noisy_pair_rates(result, asn, ipv6)
        if not rates:
            return 0.0, 0.0
        return statistics.fmean(rates), statistics.median(rates)

    with_dc = run.detect(dedup=False, exclude_noisy=False)
    without_dc = run.detect(dedup=True, exclude_noisy=False)
    wm4, wmed4 = stats(with_dc, ipv6=False)
    wm6, wmed6 = stats(with_dc, ipv6=True)
    nm4, nmed4 = stats(without_dc, ipv6=False)
    nm6, nmed6 = stats(without_dc, ipv6=True)
    return Table4Result(wm4, wm6, wmed4, wmed6, nm4, nm6, nmed4, nmed6)


def render_table4(result: Table4Result) -> str:
    return "\n".join([
        "Table 4: zombie likelihood of the pair <beacon, AS16347>",
        f"  with double-counting:    mean v4={result.with_dc_mean_v4:.4f} "
        f"v6={result.with_dc_mean_v6:.4f}  median v4={result.with_dc_median_v4:.4f} "
        f"v6={result.with_dc_median_v6:.4f}",
        f"  without double-counting: mean v4={result.without_dc_mean_v4:.4f} "
        f"v6={result.without_dc_mean_v6:.4f}  median v4={result.without_dc_median_v4:.4f} "
        f"v6={result.without_dc_median_v6:.4f}",
    ])


# -- Table 5: the 2024 noisy peer routers -------------------------------------


@dataclass(frozen=True)
class Table5Row:
    peer_address: str
    peer_asn: int
    zombies_90min: int
    percent_90min: float
    zombies_180min: int
    percent_180min: float


def build_table5(run: CampaignRun) -> list[Table5Row]:
    """Per noisy-router zombie routes at 1.5h and 3h (paper Table 5)."""
    result_90 = run.detect(threshold=90 * MINUTE, exclude_noisy=False)
    result_180 = run.detect(threshold=180 * MINUTE, exclude_noisy=False)
    rows = []
    for peer in NOISY_PEER_ROUTERS:
        if peer.key not in run.noisy_truth:
            continue
        z90 = result_90.router_zombies.get(peer.key, 0)
        z180 = result_180.router_zombies.get(peer.key, 0)
        v90 = result_90.router_visible.get(peer.key, 0)
        v180 = result_180.router_visible.get(peer.key, 0)
        rows.append(Table5Row(
            peer_address=peer.address, peer_asn=peer.asn,
            zombies_90min=z90,
            percent_90min=z90 / v90 if v90 else 0.0,
            zombies_180min=z180,
            percent_180min=z180 / v180 if v180 else 0.0))
    return rows


def render_table5(rows: Sequence[Table5Row]) -> str:
    lines = ["Table 5: noisy peer routers of the 2024 campaign",
             f"{'Peer address':>22} {'ASN':>7} | {'z@1.5h':>7} {'%':>7} "
             f"| {'z@3h':>6} {'%':>7}"]
    for row in rows:
        lines.append(
            f"{row.peer_address:>22} {row.peer_asn:>7} | "
            f"{row.zombies_90min:>7} {row.percent_90min:>6.2%} | "
            f"{row.zombies_180min:>6} {row.percent_180min:>6.2%}")
    return "\n".join(lines)
