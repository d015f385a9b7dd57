"""Tests for the figure builders, case-study extraction and the runner
cache, driven by the quick campaign fixture."""

import pytest

from repro.experiments import (
    build_figure3,
    build_figure4,
    build_paper_cases,
    campaign_run,
    render_figure2,
    render_figure3,
    render_figure4,
    replication_run,
)
from repro.experiments import build_figure2
from repro.experiments.cases import render_case


@pytest.fixture(scope="module")
def run():
    return campaign_run(quick=True)


class TestFigureBuilders:
    def test_figure2_points_complete(self, run):
        points = build_figure2(run, thresholds_minutes=(90, 180))
        assert [p.threshold_minutes for p in points] == [90, 180]
        for p in points:
            assert p.outbreaks_all >= p.outbreaks_excluded
            assert 0 <= p.fraction_excluded <= p.fraction_all <= 1

    def test_figure2_render(self, run):
        text = render_figure2(build_figure2(run, thresholds_minutes=(90,)))
        assert "thr(min)" in text and "90" in text

    def test_figure3_durations_sorted(self, run):
        data = build_figure3(run)
        assert data.durations_excluded == sorted(data.durations_excluded)
        assert all(d >= 1.0 for d in data.durations_excluded)

    def test_figure3_render(self, run):
        assert "CDF" in render_figure3(build_figure3(run))

    def test_figure4_picks_resurrected_zombie(self, run):
        data = build_figure4(run)
        assert data is not None
        assert data.segments
        assert data.total_span_days > 0

    def test_figure4_explicit_prefix(self, run):
        prefix = run.scripted_prefixes["long_lived"]
        data = build_figure4(run, prefix=prefix)
        assert data.prefix == prefix

    def test_figure4_render(self, run):
        text = render_figure4(build_figure4(run))
        assert "visible" in text
        assert render_figure4(None).startswith("Figure 4: no resurrected")


class TestCaseStudies:
    def test_build_paper_cases_keys(self, run):
        cases = build_paper_cases(run)
        assert set(cases) == {"impactful", "long_lived"}

    def test_render_case(self, run):
        cases = build_paper_cases(run)
        text = render_case("impactful", cases["impactful"])
        assert "common subpath" in text
        assert "suspected cause" in text
        assert render_case("missing", None) == "missing: not present in this run"

    def test_case_root_cause_cones_ordered(self, run):
        """The §5.2 narrative: Core-Backbone's cone is larger than
        HGC's (paper: ~2100 vs ~750)."""
        cases = build_paper_cases(run)
        assert (cases["impactful"].root_cause_cone_size
                > cases["long_lived"].root_cause_cone_size)


class TestRunnerCache:
    def test_campaign_cached(self, run):
        assert campaign_run(quick=True) is run

    def test_replication_cached(self):
        a = replication_run("2018", days=2)
        b = replication_run("2018", days=2)
        assert a is b

    def test_different_days_different_run(self):
        a = replication_run("2018", days=2)
        b = replication_run("2017-mar", days=2)
        assert a is not b
        assert a.config.name != b.config.name
