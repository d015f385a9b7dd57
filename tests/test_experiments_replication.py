"""Integration tests for the replication experiment (paper §3, App. B)."""

import ipaddress

import pytest

from repro.experiments import (
    REPLICATION_PERIODS,
    build_figure5,
    build_figure6,
    build_figure7,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    replication_run,
)
from repro.experiments.replication import NOISY_PEER_16347


@pytest.fixture(scope="module")
def run():
    return replication_run("2018", days=5)


class TestRunBasics:
    def test_visible_prefixes_track_slot_count(self, run):
        # 5 days x 6 slots x 27 beacons, nearly all visible.
        result = run.detect()
        assert result.visible_count >= 0.9 * 5 * 6 * 27

    def test_every_peer_address_parses(self, run):
        for peer in run.peers:
            ipaddress.ip_address(peer.address)

    def test_periods_registered(self):
        assert set(REPLICATION_PERIODS) == {"2018", "2017-oct", "2017-mar"}
        for config in REPLICATION_PERIODS.values():
            assert config.end > config.start

    def test_scaling_truncates(self):
        config = REPLICATION_PERIODS["2018"].scaled(3)
        assert config.days() == 3


class TestDoubleCountingShape:
    def test_dedup_reduces_outbreaks(self, run):
        with_dc = run.detect(dedup=False, exclude_noisy=True)
        without_dc = run.detect(dedup=True, exclude_noisy=True)
        assert without_dc.outbreak_count < with_dc.outbreak_count

    def test_table1_reductions(self, run):
        (row,) = build_table1([run])
        # 2018 period: both families duplicated, v4 more strongly
        # (paper: 57.8 % vs 31 %).
        assert row.reduction_v4 > 0.2
        assert row.reduction_v4 > row.reduction_v6
        assert row.without_dc_v4 <= row.with_dc_v4
        assert row.without_dc_v6 <= row.with_dc_v6

    def test_render_table1(self, run):
        text = render_table1(build_table1([run]))
        assert "2018" in text and "withDC" in text


class TestLegacyComparison:
    def test_table2_study_column_differs(self, run):
        (row,) = build_table2([run])
        # The legacy pipeline's numbers track ours-with-double-counting
        # (minus looking-glass misses, plus carried-state extras) and
        # must not simply equal the revised counts.
        assert row.study_v4 > 0 and row.study_v6 > 0
        assert (row.study_v4, row.study_v6) != (row.without_dc_v4,
                                                row.without_dc_v6)

    def test_table3_both_sides_miss(self, run):
        result = build_table3([run])
        ours_missing = (result.ours_missing_routes_v4
                        + result.ours_missing_routes_v6)
        study_missing = (result.study_missing_routes_v4
                         + result.study_missing_routes_v6)
        assert ours_missing > 0
        assert study_missing > 0
        # Paper Table 3: our pipeline misses far more routes than the
        # study does (22k vs 5k), since isolation drops quiet zombies.
        assert ours_missing > study_missing

    def test_renders(self, run):
        assert "missing" in render_table3(build_table3([run]))
        assert "AS16347" in render_table4(build_table4(run))
        assert "study" in render_table2(build_table2([run]))


class TestNoisyPeer16347:
    def test_v6_probability_survives_dedup(self, run):
        """Table 4's key fact: ~42.8 % with double-counting, ~42.6 %
        without — the noisy peer's zombies are fresh each interval."""
        result = build_table4(run)
        assert result.with_dc_mean_v6 > 0.25
        assert result.without_dc_mean_v6 > 0.8 * result.with_dc_mean_v6

    def test_v4_probability_lower_than_v6(self, run):
        result = build_table4(run)
        assert result.with_dc_mean_v4 < result.with_dc_mean_v6

    def test_noisy_exclusion_reduces_v6_outbreaks(self, run):
        including = run.detect(dedup=True, exclude_noisy=False)
        excluding = run.detect(dedup=True, exclude_noisy=True)
        _, v6_in = including.split_by_family()
        _, v6_ex = excluding.split_by_family()
        assert len(v6_in) > len(v6_ex)

    def test_noisy_peer_visible(self, run):
        result = run.detect(exclude_noisy=False)
        assert result.router_visible.get(NOISY_PEER_16347.key, 0) > 0


class TestFigures567:
    def test_figure5_emergence_rates(self, run):
        data = build_figure5(run)
        # Dedup lowers (or keeps) the average emergence rate.
        assert data.without_dc.mean_rate_v6 <= data.with_dc.mean_rate_v6 + 1e-9
        assert not data.without_dc.cdf_v6.is_empty

    def test_figure6_zombie_paths_longer(self, run):
        data = build_figure6(run)
        stats = data.without_dc
        if stats.zombie_paths.is_empty or stats.normal_at_normal_peers.is_empty:
            pytest.skip("no zombies in this window")
        assert stats.zombie_paths.mean() > stats.normal_at_normal_peers.mean()

    def test_figure6_changed_path_fraction_high(self, run):
        """Paper: ~80-96 % of zombie paths differ from the pre-withdrawal
        path (they emerge from path hunting)."""
        data = build_figure6(run)
        assert data.without_dc.changed_path_fraction > 0.5

    def test_figure7_concurrency(self, run):
        data = build_figure7(run)
        stats = data.without_dc
        # Session-level wedges make whole-family outbreak bursts: some
        # outbreaks are highly concurrent, some singletons exist overall.
        if stats.cdf_v6.is_empty:
            pytest.skip("no v6 outbreaks in this window")
        assert stats.cdf_v6.xs[-1] >= 10  # near-all-beacons concurrency
