"""The percentile rule: a timing is reported at its median and at the
highest percentile with at least ten samples beyond it."""

import pytest

from stats import iqr_share, percentile, summary, tail_percentile


@pytest.mark.parametrize("count, label", [
    (5, "p50"), (19, "p50"), (20, "p50"), (40, "p75"), (100, "p90"),
    (199, "p90"), (200, "p95"), (999, "p95"), (1000, "p99"),
    (9999, "p99"), (10000, "p99_9"),
])
def test_tail_percentile_needs_ten_samples_beyond(count, label):
    assert tail_percentile(list(range(count)))[0] == label


def test_tail_value_leaves_at_least_ten_samples_above():
    values = list(range(1, 201))  # 200 samples -> p95
    label, value = tail_percentile(values)
    assert label == "p95"
    assert value == 190
    assert sum(1 for v in values if v > value) >= 10


def test_percentile_is_nearest_rank():
    values = [10, 20, 30, 40]
    assert percentile(values, 50) == 20
    assert percentile(values, 75) == 30
    assert percentile(values, 100) == 40
    assert percentile([7], 99) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summary_states_the_sample_count():
    report = summary([1.0] * 40)
    assert report == {"p50": 1.0, "n": 40, "p75": 1.0}
    assert summary([]) == {"n": 0}


def test_iqr_share_matches_the_drivers_definition():
    import statistics

    values = [10.0, 10.5, 9.5, 11.0, 10.2, 9.8, 10.1, 10.4, 9.9, 10.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
