"""Unit tests for repro.utils.timeutil."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import timeutil
from repro.utils.timeutil import (
    DAY,
    HOUR,
    align_down,
    align_up,
    from_iso,
    month_start,
    seconds_into_month,
    to_iso,
    ts,
)


class TestTs:
    def test_epoch(self):
        assert ts(1970, 1, 1) == 0

    def test_known_value(self):
        # 2018-07-19 02:00:02 UTC from the paper's Aggregator example.
        assert ts(2018, 7, 19, 2, 0, 2) == 1531965602

    def test_iso_roundtrip(self):
        stamp = ts(2024, 6, 4, 11, 45)
        assert from_iso(to_iso(stamp)) == stamp

    def test_from_iso_date_only(self):
        assert from_iso("2024-06-04") == ts(2024, 6, 4)

    def test_from_iso_minutes(self):
        assert from_iso("2024-06-04 11:45") == ts(2024, 6, 4, 11, 45)

    def test_from_iso_t_separator(self):
        assert from_iso("2024-06-04T11:45:00") == ts(2024, 6, 4, 11, 45)

    def test_from_iso_garbage(self):
        with pytest.raises(ValueError):
            from_iso("yesterday")


class TestMonth:
    def test_month_start(self):
        assert month_start(ts(2018, 7, 19, 2)) == ts(2018, 7, 1)

    def test_seconds_into_month_paper_example(self):
        # Aggregator 10.19.29.192 == 1,252,800 s == 2018-07-15 12:00.
        assert seconds_into_month(ts(2018, 7, 15, 12)) == 1252800

    def test_first_second_of_month(self):
        assert seconds_into_month(ts(2024, 6, 1)) == 0

    def test_previous_month_start(self):
        assert timeutil.previous_month_start(ts(2024, 1, 15)) == ts(2023, 12, 1)


class TestAlign:
    def test_align_down_hour(self):
        assert align_down(3 * HOUR + 17, HOUR) == 3 * HOUR

    def test_align_down_exact(self):
        assert align_down(4 * HOUR, 4 * HOUR) == 4 * HOUR

    def test_align_up(self):
        assert align_up(3 * HOUR + 17, HOUR) == 4 * HOUR

    def test_align_up_exact(self):
        assert align_up(DAY, DAY) == DAY

    def test_align_with_origin(self):
        origin = ts(2024, 6, 4, 11, 45)
        assert align_down(origin + 20 * 60, 15 * 60, origin) == origin + 15 * 60

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            align_down(100, 0)

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=10**6))
    def test_align_property(self, stamp, step):
        down = align_down(stamp, step)
        up = align_up(stamp, step)
        assert down <= stamp <= up
        assert (stamp - down) < step
        assert (up - stamp) < step
        assert down % step == 0
