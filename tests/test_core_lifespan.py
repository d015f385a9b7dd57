"""Tests for lifespan tracking and resurrection detection."""

import pytest

from repro.bgp import ASPath, PathAttributes
from repro.core import LifespanTracker, find_resurrections
from repro.mrt import RibDump
from repro.net import Prefix
from repro.utils.timeutil import DAY, HOUR, ts

P = Prefix("2a0d:3dc1:1851::/48")
WITHDRAW = ts(2024, 6, 21, 18, 45)
PEER_ASN = 61573
PEER_ADDR = "2001:db8:61::1"


def attrs():
    return PathAttributes(
        as_path=ASPath.from_string("61573 28598 10429 12956 3356 34549 8298 210312"),
        next_hop="2001:db8::1")


def dump_at(time, holding):
    dump = RibDump(time, "rrc15")
    dump.peer_index(PEER_ASN, PEER_ADDR)
    if holding:
        dump.add_route(P, PEER_ASN, PEER_ADDR, attrs(), WITHDRAW - 900)
    return dump


def dumps_with_presence(presence_by_offset_days):
    """Build dumps every 8h for the span; present when day offset is in
    any [start, end) window."""
    dumps = []
    horizon = int(max(end for _, end in presence_by_offset_days) + 3)
    t = ts(2024, 6, 22)
    end_t = t + horizon * DAY
    while t < end_t:
        offset_days = (t - WITHDRAW) / DAY
        holding = any(start <= offset_days < end
                      for start, end in presence_by_offset_days)
        dumps.append(dump_at(t, holding))
        t += 8 * HOUR
    return dumps


class TestLifespan:
    def test_never_stuck(self):
        dumps = dumps_with_presence([(999, 1000)])
        tracker = LifespanTracker()
        lifespans = tracker.track(dumps[:10], {P: WITHDRAW})
        assert not lifespans[P].is_zombie
        assert lifespans[P].duration_days == 0.0

    def test_single_segment_duration(self):
        dumps = dumps_with_presence([(0, 4.0)])
        lifespan = LifespanTracker().track(dumps, {P: WITHDRAW})[P]
        assert lifespan.is_zombie
        assert len(lifespan.segments) == 1
        assert lifespan.duration_days == pytest.approx(4.0, abs=0.5)
        assert lifespan.resurrection_count == 0

    def test_resurrection_two_segments(self):
        """Present days 0-7, gone, back days 60-100 — the Fig. 4 shape."""
        dumps = dumps_with_presence([(0, 7), (60, 100)])
        lifespan = LifespanTracker().track(dumps, {P: WITHDRAW})[P]
        assert len(lifespan.segments) == 2
        assert lifespan.resurrection_count == 1
        assert lifespan.duration_days == pytest.approx(100, abs=1)

    def test_min_stuck_filters_prompt_cleanup(self):
        """A dump 30 minutes after withdrawal doesn't count as zombie
        evidence under the 90-minute rule."""
        early = dump_at(WITHDRAW + 1800, holding=True)
        later = dump_at(WITHDRAW + 9 * HOUR, holding=False)
        lifespan = LifespanTracker().track([early, later], {P: WITHDRAW})[P]
        assert not lifespan.is_zombie

    def test_peer_spans(self):
        dumps = dumps_with_presence([(0, 4)])
        lifespan = LifespanTracker().track(dumps, {P: WITHDRAW})[P]
        peer = ("rrc15", PEER_ADDR)
        assert peer in lifespan.peer_spans
        assert lifespan.peer_duration_days(peer) == pytest.approx(3.7, abs=0.5)
        assert lifespan.peer_duration_days(("rrc00", "::9")) == 0.0

    def test_first_last_seen(self):
        dumps = dumps_with_presence([(0, 2)])
        lifespan = LifespanTracker().track(dumps, {P: WITHDRAW})[P]
        assert lifespan.first_seen is not None
        assert lifespan.last_seen >= lifespan.first_seen


class TestResurrectionEvents:
    def test_events_from_lifespans(self):
        dumps = dumps_with_presence([(0, 7), (60, 100), (150, 160)])
        lifespan = LifespanTracker().track(dumps, {P: WITHDRAW})[P]
        events = find_resurrections([lifespan])
        assert len(events) == 2
        first, second = events
        assert (first.resurrected_at - first.disappeared_after) / DAY == \
            pytest.approx(53, abs=2)
        assert first.peers == {("rrc15", PEER_ADDR)}
        assert second.resurrected_at > first.resurrected_at

    def test_no_events_single_segment(self):
        dumps = dumps_with_presence([(0, 7)])
        lifespan = LifespanTracker().track(dumps, {P: WITHDRAW})[P]
        assert find_resurrections([lifespan]) == []
