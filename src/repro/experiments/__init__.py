"""Experiment harness: world builders and table/figure reproducers."""

from repro.experiments.campaign import CampaignRun, run_campaign
from repro.experiments.cases import CaseStudy, build_case_study, build_paper_cases
from repro.experiments.config import (
    REPLICATION_PERIODS,
    CampaignConfig,
    ReplicationConfig,
)
from repro.experiments.figures import (
    build_figure2,
    build_figure3,
    build_figure4,
    build_figure5,
    build_figure6,
    build_figure7,
    render_figure2,
    render_figure3,
    render_figure4,
)
from repro.experiments.replication import ReplicationRun, run_replication
from repro.experiments.runner import campaign_run, replication_run, replication_runs
from repro.experiments.tables import (
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    build_table5,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
)

__all__ = [
    "CampaignRun",
    "run_campaign",
    "CaseStudy",
    "build_case_study",
    "build_paper_cases",
    "CampaignConfig",
    "ReplicationConfig",
    "REPLICATION_PERIODS",
    "ReplicationRun",
    "run_replication",
    "campaign_run",
    "replication_run",
    "replication_runs",
    "build_table1",
    "build_table2",
    "build_table3",
    "build_table4",
    "build_table5",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "build_figure2",
    "build_figure3",
    "build_figure4",
    "build_figure5",
    "build_figure6",
    "build_figure7",
    "render_figure2",
    "render_figure3",
    "render_figure4",
]
