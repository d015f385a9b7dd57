"""One-shot paper-vs-measured report over every table and figure.

Library counterpart of ``examples/generate_report.py`` (and the backend
of ``python -m repro report``).
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

from repro.experiments import (
    build_figure2,
    build_figure3,
    build_figure4,
    build_figure5,
    build_figure6,
    build_figure7,
    build_paper_cases,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    build_table5,
    campaign_run,
    render_figure2,
    render_figure3,
    render_figure4,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    replication_run,
    replication_runs,
)
from repro.experiments.cases import render_case
from repro.utils.timeutil import MINUTE

__all__ = ["generate"]


def generate(quick: bool = False, days: int = 6,
             stream: TextIO = sys.stdout) -> None:
    """Run both experiments and print every reproduced artefact to
    ``stream`` — a pure function of the arguments; wall-clock timings
    go to stderr."""

    def banner(text: str) -> None:
        print(f"\n{'=' * 72}\n{text}\n{'=' * 72}", file=stream)

    started = time.time()
    banner("Simulating the 2024 beacon campaign")
    campaign = campaign_run(quick=quick)
    print(f"{campaign.announcement_count} announcements, "
          f"{len(campaign.records)} records", file=stream)
    print(f"campaign done in {time.time() - started:.0f}s", file=sys.stderr)

    started = time.time()
    banner(f"Simulating the three replication periods ({days} days each)")
    runs = replication_runs(days=days)
    run_2018 = replication_run("2018", days=days)
    print(f"replication done in {time.time() - started:.0f}s",
          file=sys.stderr)

    banner("T1")
    print(render_table1(build_table1(runs)), file=stream)
    banner("T2")
    print(render_table2(build_table2(runs)), file=stream)
    banner("T3")
    print(render_table3(build_table3(runs)), file=stream)
    banner("T4")
    print(render_table4(build_table4(run_2018)), file=stream)
    banner("T5")
    print(render_table5(build_table5(campaign)), file=stream)

    banner("F2")
    print(render_figure2(build_figure2(
        campaign, thresholds_minutes=(90, 100, 110, 120, 130, 140, 150, 160,
                                      170, 175, 180))), file=stream)
    banner("F3")
    print(render_figure3(build_figure3(campaign)), file=stream)
    banner("F4")
    print(render_figure4(build_figure4(campaign)), file=stream)

    banner("F5 / F6 / F7 (2018 period)")
    fig5 = build_figure5(run_2018)
    print(f"F5 without-dc: zero-pairs={fig5.without_dc.zero_fraction:.1%} "
          f"mean v4={fig5.without_dc.mean_rate_v4:.4f} "
          f"v6={fig5.without_dc.mean_rate_v6:.4f}", file=stream)
    fig6 = build_figure6(run_2018)
    stats = fig6.without_dc
    print(f"F6 without-dc: normal(normal)="
          f"{stats.normal_at_normal_peers.mean():.2f} "
          f"normal(zombie)={stats.normal_at_zombie_peers.mean():.2f} "
          f"zombie={stats.zombie_paths.mean():.2f} "
          f"changed={stats.changed_path_fraction:.1%}", file=stream)
    fig7 = build_figure7(run_2018)
    print(f"F7 without-dc: v4 single={fig7.without_dc.single_fraction_v4:.1%} "
          f"v6 single={fig7.without_dc.single_fraction_v6:.1%}", file=stream)

    banner("C1 / C2")
    cases = build_paper_cases(campaign)
    print(render_case("impactful", cases["impactful"]), file=stream)
    print(render_case("long-lived", cases["long_lived"]), file=stream)

    banner("Headline §5 numbers")
    at_90 = campaign.detect(threshold=90 * MINUTE, exclude_noisy=True)
    at_180 = campaign.detect(threshold=180 * MINUTE, exclude_noisy=True)
    survival = (at_180.outbreak_count / at_90.outbreak_count
                if at_90.outbreak_count else 0.0)
    print(f"outbreaks @90min: {at_90.outbreak_count} "
          f"({at_90.outbreak_fraction():.1%}); @3h: {at_180.outbreak_count} "
          f"({at_180.outbreak_fraction():.1%}); survival {survival:.1%} "
          f"(paper: 31.4%)", file=stream)
