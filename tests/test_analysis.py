"""Tests for the analysis package: ECDF, emergence, path lengths,
concurrency, and pipeline comparison."""

import pytest
from helpers import ann, interval, wd
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    ECDF,
    compare_results,
    concurrent_outbreaks,
    emergence_rates,
    path_length_analysis,
)
from repro.core import DetectorConfig, LegacyDetector, ZombieDetector
from repro.utils.timeutil import HOUR, ts

T0 = ts(2024, 6, 5)
P6 = "2a0d:3dc1:1145::/48"
P6B = "2a0d:3dc1:1200::/48"
P4 = "84.205.64.0/24"


class TestECDF:
    def test_basic(self):
        cdf = ECDF.from_values([1, 2, 2, 4])
        assert cdf.at(0.5) == 0.0
        assert cdf.at(1) == 0.25
        assert cdf.at(2) == 0.75
        assert cdf.at(4) == 1.0
        assert cdf.at(99) == 1.0

    def test_empty(self):
        cdf = ECDF.from_values([])
        assert cdf.is_empty
        assert cdf.at(10) == 0.0
        with pytest.raises(ValueError):
            cdf.mean()

    def test_mean(self):
        assert ECDF.from_values([1, 2, 3, 4]).mean() == pytest.approx(2.5)

    def test_series_monotone(self):
        cdf = ECDF.from_values([3, 1, 2, 2])
        xs = [x for x, _ in cdf.series()]
        ps = [p for _, p in cdf.series()]
        assert xs == sorted(xs)
        assert ps == sorted(ps)
        assert ps[-1] == 1.0

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1))
    def test_property_final_probability_one(self, values):
        cdf = ECDF.from_values(values)
        assert cdf.ps[-1] == pytest.approx(1.0)
        assert cdf.at(max(values)) == pytest.approx(1.0)
        assert cdf.at(min(values) - 1) == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1))
    def test_property_mean_is_the_sample_mean(self, values):
        assert ECDF.from_values(values).mean() == pytest.approx(
            sum(values) / len(values), rel=1e-9, abs=1e-6)


def two_interval_run():
    """Two intervals of the same v6 prefix + one v4 prefix: one zombie
    at one peer each family in interval one."""
    intervals = [
        interval(P6, T0, T0 + 900),
        interval(P4, T0, T0 + 900),
        interval(P6, T0 + 4 * HOUR, T0 + 4 * HOUR + 900),
    ]
    records = [
        # v6 interval 1: two peers, one sticks with a LONGER hunted path.
        ann(T0 + 2, P6, 25091, 8298, 210312, origin_time=T0),
        ann(T0 + 3, P6, 33891, 25091, 8298, 210312, origin_time=T0,
            addr="2001:db8::9", peer_asn=33891),
        wd(T0 + 903, P6),
        # the stuck peer re-announces an even longer path via hunting:
        ann(T0 + 905, P6, 33891, 64900, 4637, 25091, 8298, 210312,
            origin_time=T0, addr="2001:db8::9", peer_asn=33891),
        # v4: one peer, sticks.
        ann(T0 + 2, P4, 25091, 12654, origin_time=T0, peer_asn=25091),
        # v6 interval 2: healthy at both peers.
        ann(T0 + 4 * HOUR + 2, P6, 25091, 8298, 210312,
            origin_time=T0 + 4 * HOUR),
        ann(T0 + 4 * HOUR + 3, P6, 33891, 25091, 8298, 210312,
            origin_time=T0 + 4 * HOUR, addr="2001:db8::9", peer_asn=33891),
        wd(T0 + 4 * HOUR + 903, P6),
        wd(T0 + 4 * HOUR + 904, P6, addr="2001:db8::9", peer_asn=33891),
    ]
    result = ZombieDetector(DetectorConfig()).detect(records, intervals)
    return records, intervals, result


class TestEmergence:
    def test_rates(self):
        _, _, result = two_interval_run()
        stats = emergence_rates(result)
        # v6 pair (P6, 33891): 2 visible, 1 zombie -> 0.5.
        assert stats.cdf_v6.at(0.49) < 1.0
        assert stats.cdf_v6.at(0.5) == 1.0
        # v4 pair: 1 visible, 1 zombie -> rate 1.0.
        assert stats.mean_rate_v4 == pytest.approx(1.0)
        # (P6, 25091) never stuck: rate 0 -> zero_fraction 1/3.
        assert stats.zero_fraction == pytest.approx(1 / 3)

    def test_empty_result(self):
        result = ZombieDetector(DetectorConfig()).detect([], [])
        stats = emergence_rates(result)
        assert stats.cdf_v4.is_empty
        assert stats.zero_fraction == 0.0


class TestPathLength:
    def test_zombie_paths_longer(self):
        records, _, result = two_interval_run()
        stats = path_length_analysis(records, result)
        assert not stats.zombie_paths.is_empty
        # The hunted v6 zombie path (6 hops) is longer than its normal
        # path (4 hops).
        assert max(stats.zombie_paths.xs) == 6
        assert max(stats.normal_at_zombie_peers.xs) <= 4

    def test_changed_path_fraction(self):
        records, _, result = two_interval_run()
        stats = path_length_analysis(records, result)
        # v6 zombie changed path (hunting), v4 zombie kept its path.
        assert stats.changed_path_fraction == pytest.approx(0.5)

    def test_normal_peers_counted(self):
        records, _, result = two_interval_run()
        stats = path_length_analysis(records, result)
        # Peer 25091 was normal in v6 interval 1 + both peers in interval 2.
        assert not stats.normal_at_normal_peers.is_empty


class TestConcurrency:
    def test_same_slot_grouping(self):
        _, _, result = two_interval_run()
        stats = concurrent_outbreaks(result.outbreaks)
        # One v4 and one v6 outbreak share the slot but families are
        # counted separately: each occurs singly.
        assert stats.single_fraction_v4 == 1.0
        assert stats.single_fraction_v6 == 1.0

    def test_multi_prefix_same_slot(self):
        intervals = [interval(P6, T0, T0 + 900),
                     interval(P6B, T0, T0 + 900)]
        records = [
            ann(T0 + 2, P6, 25091, 210312, origin_time=T0),
            ann(T0 + 2, P6B, 25091, 210312, origin_time=T0),
        ]
        result = ZombieDetector(DetectorConfig()).detect(records, intervals)
        stats = concurrent_outbreaks(result.outbreaks)
        assert stats.single_fraction_v6 == 0.0
        assert stats.cdf_v6.at(2) == 1.0

    def test_empty(self):
        stats = concurrent_outbreaks([])
        assert stats.cdf_v4.is_empty
        assert stats.single_fraction_v6 == 0.0


class TestCompare:
    def test_legacy_vs_revised_asymmetry(self):
        """Quiet carried zombies are legacy-only; the comparison must
        show the revised pipeline 'missing' them (Table 3 direction)."""
        intervals = [interval(P6, T0 + i * 4 * HOUR, T0 + i * 4 * HOUR + 900)
                     for i in range(4)]
        records = [ann(T0 + 2, P6, 25091, 210312, origin_time=T0)]
        revised = ZombieDetector(DetectorConfig()).detect(records, intervals)
        legacy = LegacyDetector().detect(records, intervals)
        comparison = compare_results(revised, legacy)
        assert comparison.missing_in_a.outbreaks_v6 == 3  # revised misses 3
        assert comparison.missing_in_b.outbreaks_v6 == 0
        assert comparison.missing_in_a.routes_v6 == 3
        assert comparison.missing_in_a.routes_v4 == 0
        assert comparison.missing_in_a.outbreaks_v4 == 0

    def test_identical_results_no_missing(self):
        _, _, result = two_interval_run()
        comparison = compare_results(result, result)
        assert comparison.missing_in_a == comparison.missing_in_b
        assert comparison.missing_in_a.routes_v4 == 0
        assert comparison.missing_in_a.routes_v6 == 0
