"""Property-based tests on detector invariants and substrate codecs."""

import ipaddress
import json

from helpers import ann, interval, sess_down, sess_up, wd
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.beacons import AggregatorClock
from repro.bgp import (
    ASPath,
    PathAttributes,
    StateRecord,
    UpdateRecord,
    record_sort_key,
)
from repro.core import (
    DetectorConfig,
    IntervalEvaluator,
    ResurrectionMonitor,
    StateReconstructor,
    ZombieDetector,
    find_late_announcements,
)
from repro.mrt import RibDump, decode_rib_dump, encode_rib_dump
from repro.net import Prefix
from repro.utils.timeutil import HOUR, MINUTE, ts

T0 = ts(2024, 6, 5)
PREFIXES = [f"2a0d:3dc1:{i:x}::/48" for i in range(1, 9)]


@st.composite
def record_schedules(draw):
    """Random per-peer behaviours over a handful of beacon intervals:
    each (prefix, peer) either withdraws on time, withdraws late, never
    withdraws, or stays invisible."""
    n_prefixes = draw(st.integers(min_value=1, max_value=4))
    n_peers = draw(st.integers(min_value=1, max_value=3))
    intervals = []
    records = []
    for p_index in range(n_prefixes):
        prefix = PREFIXES[p_index]
        iv = interval(prefix, T0, T0 + 900)
        intervals.append(iv)
        for peer_index in range(n_peers):
            addr = f"2001:db8::{peer_index + 1}"
            behaviour = draw(st.sampled_from(
                ["clean", "late", "stuck", "invisible"]))
            if behaviour == "invisible":
                continue
            records.append(ann(T0 + 2 + peer_index, prefix, 25091, 210312,
                               addr=addr, peer_asn=25091, origin_time=T0))
            if behaviour == "clean":
                records.append(wd(T0 + 905, prefix, addr=addr, peer_asn=25091))
            elif behaviour == "late":
                late_by = draw(st.integers(min_value=1, max_value=5 * HOUR))
                records.append(wd(T0 + 900 + late_by, prefix, addr=addr,
                                  peer_asn=25091))
    return records, intervals


class TestDetectorInvariants:
    @given(record_schedules())
    @settings(max_examples=40, deadline=None)
    def test_dedup_never_adds_outbreaks(self, data):
        records, intervals = data
        with_dc = ZombieDetector(DetectorConfig(dedup=False)).detect(
            records, intervals)
        without_dc = ZombieDetector(DetectorConfig(dedup=True)).detect(
            records, intervals)
        keys_with = {(str(o.prefix), o.interval.announce_time)
                     for o in with_dc.outbreaks}
        keys_without = {(str(o.prefix), o.interval.announce_time)
                        for o in without_dc.outbreaks}
        assert keys_without <= keys_with

    @given(record_schedules(),
           st.integers(min_value=30, max_value=120),
           st.integers(min_value=121, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_zombie_routes_monotone_in_threshold(self, data, low_min, high_min):
        """Every zombie route alive at a larger threshold was also alive
        at a smaller one — unless a late announcement resurrected it, in
        which case the route reappears; outbreak *routes that persist*
        still satisfy monotonicity per (peer, no-reannounce) schedules
        generated here (withdraw-only behaviours)."""
        records, intervals = data
        low = ZombieDetector(DetectorConfig(threshold=low_min * 60)).detect(
            records, intervals)
        high = ZombieDetector(DetectorConfig(threshold=high_min * 60)).detect(
            records, intervals)

        def route_keys(result):
            return {(str(r.prefix), r.peer) for o in result.outbreaks
                    for r in o.routes}

        assert route_keys(high) <= route_keys(low)

    @given(record_schedules())
    @settings(max_examples=40, deadline=None)
    def test_exclusion_only_removes(self, data):
        records, intervals = data
        full = ZombieDetector(DetectorConfig()).detect(records, intervals)
        excluded = ZombieDetector(DetectorConfig(
            excluded_peers=frozenset({("rrc00", "2001:db8::1")}))).detect(
            records, intervals)

        def route_keys(result):
            return {(str(r.prefix), r.peer) for o in result.outbreaks
                    for r in o.routes}

        assert route_keys(excluded) <= route_keys(full)
        assert all(peer != ("rrc00", "2001:db8::1")
                   for _, peer in route_keys(excluded))

    @given(record_schedules())
    @settings(max_examples=40, deadline=None)
    def test_outbreak_counts_bounded_by_visibility(self, data):
        records, intervals = data
        result = ZombieDetector(DetectorConfig()).detect(records, intervals)
        assert result.outbreak_count <= result.visible_count
        assert 0.0 <= result.outbreak_fraction() <= 1.0


# -- one verdict: batch == streaming == the text of §3.1 --------------------

CYCLE = 4 * HOUR
P = PREFIXES[0]
#: (collector, address, ASN): three routers in three ASes.
PEERS = [("rrc00", f"2001:db8::{i + 1}", 64500 + i) for i in range(3)]


@st.composite
def beacon_streams(draw):
    """``record_schedules`` over a RIS-shaped schedule (4 h cycle, so a
    long threshold reaches past the next announcement), with the
    behaviours that separate one window rule from another: records
    stamped on, just before and just after the evaluation instant and
    the next announcement, same-second ties between and within peers,
    re-announcements carrying a fresh or an old Aggregator clock, and
    session bounces.  Returns ``(records, intervals, config)``."""
    threshold = draw(st.integers(min_value=90, max_value=240)) * MINUTE
    up = draw(st.sampled_from([900, 2 * HOUR]))
    edges = [threshold, CYCLE - up]
    offsets = st.one_of(
        st.integers(min_value=1, max_value=5 * HOUR),
        st.sampled_from([edge + delta for edge in edges
                         for delta in (-1, 0, 1)]))
    n_peers = draw(st.integers(min_value=1, max_value=3))
    n_cycles = draw(st.integers(min_value=1, max_value=3))
    intervals, records = [], []
    for prefix in PREFIXES[:draw(st.integers(min_value=1, max_value=2))]:
        for cycle in range(n_cycles):
            start = T0 + cycle * CYCLE
            iv = interval(prefix, start, start + up, discarded=draw(
                st.sampled_from([False, False, False, True])))
            intervals.append(iv)
            tied = draw(st.booleans())
            for index, (collector, addr, asn) in enumerate(PEERS[:n_peers]):
                peer = dict(collector=collector, addr=addr, peer_asn=asn)
                behaviour = draw(st.sampled_from(
                    ["clean", "late", "stuck", "invisible", "returns",
                     "bounce"]))
                if behaviour == "invisible":
                    continue
                records.append(ann(start + 2 + (0 if tied else index), prefix,
                                   asn, 210312, origin_time=start, **peer))
                if behaviour == "bounce":
                    bounce = draw(st.sampled_from([sess_down, sess_up]))
                    records.append(bounce(iv.withdraw_time + draw(offsets),
                                          **peer))
                if behaviour in ("clean", "returns"):
                    records.append(wd(iv.withdraw_time + 5, prefix, **peer))
                if behaviour == "late":
                    records.append(wd(iv.withdraw_time + draw(offsets),
                                      prefix, **peer))
                if behaviour == "returns":
                    records.append(ann(
                        iv.withdraw_time + draw(offsets), prefix, asn, 4637,
                        210312, origin_time=draw(st.sampled_from(
                            [start, start - CYCLE])), **peer))
    config = DetectorConfig(
        threshold=threshold, dedup=draw(st.booleans()),
        excluded_peers=frozenset(
            {PEERS[0][:2]} if draw(st.booleans()) else ()),
        excluded_peer_asns=frozenset(
            {PEERS[1][2]} if draw(st.booleans()) else ()))
    return records, intervals, config


def reference(records, intervals, config):
    """§3.1 as written: for each interval, rebuild every peer's state
    from the records of its window alone and read it at the window's
    end.  Returns (routes, visible intervals)."""
    intervals = sorted((i for i in intervals if not i.discarded),
                       key=lambda i: (i.announce_time, str(i.prefix)))
    routes, visible = set(), []
    for iv in intervals:
        end = min([iv.withdraw_time + config.threshold]
                  + [other.announce_time - 1 for other in intervals
                     if other.prefix == iv.prefix
                     and other.announce_time > iv.announce_time])
        window = [r for r in records
                  if iv.announce_time <= r.timestamp <= end
                  and (isinstance(r, StateRecord) or r.prefix == iv.prefix)]
        state = StateReconstructor(window)
        announced = {(r.collector, r.peer_address) for r in window
                     if isinstance(r, UpdateRecord) and r.is_announcement}
        seen = [(key, asn) for key, asn in state.peers().items()
                if key in announced and not config.excludes(key, asn)]
        if seen:
            visible.append(iv)
        for key, asn in seen:
            stuck = state.last_announcement(key, iv.prefix, end)
            if stuck is None:
                continue
            stale = AggregatorClock.is_stale(stuck, iv.announce_time)
            if not (config.dedup and stale):
                routes.add((str(iv.prefix), iv.announce_time, key, asn,
                            iv.withdraw_time + config.threshold, stale))
    return routes, visible


def assert_one_verdict(records, intervals, config):
    """Batch ``detect()``, the live ``IntervalEvaluator`` (restarted
    from a JSON snapshot half-way) and the reference agree on every zombie
    route — peer ASN, ``detected_at`` and ``stale`` included — and on
    the visible intervals."""
    expected_routes, expected_visible = reference(records, intervals, config)

    batch = ZombieDetector(config).detect(records, intervals)
    assert {(str(r.prefix), r.interval.announce_time, r.peer, r.peer_asn,
             r.detected_at, r.stale)
            for o in batch.outbreaks for r in o.routes} == expected_routes
    assert batch.visible_intervals == expected_visible
    assert sum(batch.router_zombies.values()) == len(expected_routes)

    live = IntervalEvaluator(config)
    for iv in intervals:
        live.add_interval(iv)
    ordered = sorted(records, key=record_sort_key)
    verdicts = []
    for index, record in enumerate(ordered):
        if index == len(ordered) // 2:
            live = IntervalEvaluator.from_snapshot(
                json.loads(json.dumps(live.snapshot())))
        verdicts += live.observe(record)
    verdicts += live.flush()
    assert sorted((str(r.prefix), r.interval.announce_time, r.peer,
                   r.peer_asn, r.detected_at, r.stale)
                  for _, _, routes in verdicts
                  for r in routes) == sorted(expected_routes)
    assert live.pending_evaluations == 0


#: The hand-written stream ``tests/test_realtime.py`` used to compare
#: the two detectors on: one stuck route, two clean intervals.
FIVE_RECORDS = (
    [ann(T0 + 2, P, 25091, 210312, origin_time=T0),
     ann(T0 + 2, PREFIXES[1], 25091, 210312, origin_time=T0),
     wd(T0 + 905, PREFIXES[1]),
     ann(T0 + CYCLE + 2, P, 25091, 210312, origin_time=T0 + CYCLE),
     wd(T0 + CYCLE + 903, P)],
    [interval(P, T0), interval(P, T0 + CYCLE), interval(PREFIXES[1], T0)],
    DetectorConfig())

#: The three inputs on which the two detectors used to give two answers.
NEXT_ANNOUNCEMENT_INSIDE_THRESHOLD = (
    [record for start in (T0, T0 + CYCLE, T0 + 2 * CYCLE) for record in
     (ann(start + 2, P, 25091, 12654, origin_time=start),
      wd(start + 2 * HOUR + 3, P))],
    [interval(P, start, start + 2 * HOUR)
     for start in (T0, T0 + CYCLE, T0 + 2 * CYCLE)],
    DetectorConfig(threshold=3 * HOUR))
WITHDRAWAL_AT_EVALUATION = (
    [ann(T0 + 2, P, 25091, 210312, origin_time=T0),
     wd(T0 + 900 + 90 * MINUTE, P)],
    [interval(P, T0)], DetectorConfig())
REANNOUNCEMENT_AT_EVALUATION = (
    [ann(T0 + 2, P, 25091, 210312, origin_time=T0), wd(T0 + 903, P),
     ann(T0 + 900 + 90 * MINUTE, P, 25091, 4637, 210312, origin_time=T0)],
    [interval(P, T0)], DetectorConfig())


class TestOneVerdict:
    @given(beacon_streams())
    @example(FIVE_RECORDS)
    @example(NEXT_ANNOUNCEMENT_INSIDE_THRESHOLD)
    @example(WITHDRAWAL_AT_EVALUATION)
    @example(REANNOUNCEMENT_AT_EVALUATION)
    @settings(deadline=None)
    def test_batch_streaming_and_reference_agree(self, data):
        assert_one_verdict(*data)


# -- one resurrection verdict: batch == live == the text of §5.1 ------------

@st.composite
def resurrection_streams(draw):
    """Beacon prefixes on a 4 h cycle held up 15 min (campaign slot) or
    2 h (RIS), with peers that withdraw and re-announce at random,
    around ``withdraw_time + min_offset`` and around the next
    announcement, flap, reset their session inside one second, or
    bounce it.  Returns ``(records, intervals, min_offset)``."""
    min_offset = draw(st.sampled_from([60, 120, 170])) * MINUTE
    up = draw(st.sampled_from([15 * MINUTE, 2 * HOUR]))
    edges = [up + min_offset, CYCLE]
    offsets = st.one_of(
        st.integers(min_value=1, max_value=CYCLE + HOUR),
        st.sampled_from([edge + delta for edge in edges
                         for delta in (-1, 0, 1)]))
    n_peers = draw(st.integers(min_value=1, max_value=3))
    intervals, records = [], []
    for prefix in PREFIXES[:draw(st.integers(min_value=1, max_value=2))]:
        for cycle in range(draw(st.integers(min_value=1, max_value=3))):
            start = T0 + cycle * CYCLE
            intervals.append(interval(prefix, start, start + up, discarded=draw(
                st.sampled_from([False, False, False, True]))))
            tied = draw(st.booleans())
            for index, (collector, addr, asn) in enumerate(PEERS[:n_peers]):
                peer = dict(collector=collector, addr=addr, peer_asn=asn)
                records.append(ann(start + 2 + (0 if tied else index),
                                   prefix, asn, 210312, **peer))
                for action in draw(st.lists(st.sampled_from(
                        ["withdraw", "announce", "reset", "bounce"]),
                        max_size=4)):
                    at = start + draw(offsets)
                    if action in ("withdraw", "reset"):
                        records.append(wd(at, prefix, **peer))
                    if action in ("announce", "reset"):
                        records.append(ann(at, prefix, asn, 4637, 210312,
                                           **peer))
                    if action == "bounce":
                        records.append(sess_down(at, **peer))
    return records, intervals, min_offset


def late_reference(records, intervals, min_offset):
    """§5.1 as written: in each interval's window (its announcement up
    to the prefix's next one), a peer's first announcement stamped at
    or after ``withdraw_time + min_offset`` whose predecessor among the
    peer's updates is a withdrawal; ``withdrawn_at`` opens that run of
    withdrawals."""
    intervals = [i for i in intervals if not i.discarded]
    found = []
    for iv in intervals:
        end = min([other.announce_time for other in intervals
                   if other.prefix == iv.prefix
                   and other.announce_time > iv.announce_time],
                  default=float("inf"))
        per_peer = {}
        for r in sorted(records, key=record_sort_key):
            if (isinstance(r, UpdateRecord) and r.prefix == iv.prefix
                    and iv.announce_time <= r.timestamp < end):
                per_peer.setdefault((r.collector, r.peer_address), []).append(r)
        for key, rs in per_peer.items():
            for i, r in enumerate(rs):
                if (r.is_announcement and i and rs[i - 1].is_withdrawal
                        and r.timestamp >= iv.withdraw_time + min_offset):
                    first = i - 1
                    while first and rs[first - 1].is_withdrawal:
                        first -= 1
                    found.append((str(iv.prefix), iv.announce_time, key,
                                  r.peer_asn, rs[first].timestamp,
                                  r.timestamp))
                    break
    return sorted(found)


def assert_one_resurrection_verdict(records, intervals, min_offset):
    """Batch ``find_late_announcements``, a ``ResurrectionMonitor``
    restarted from a JSON snapshot half-way and the reference report
    the same late announcements."""
    def rows(events):
        return sorted((str(e.prefix), e.interval.announce_time, e.peer,
                       e.peer_asn, e.withdrawn_at, e.reannounced_at)
                      for e in events)

    expected = late_reference(records, intervals, min_offset)
    assert rows(find_late_announcements(records, intervals,
                                        min_offset)) == expected
    monitor = ResurrectionMonitor(min_offset)
    for iv in intervals:
        monitor.add_interval(iv)
    ordered = sorted(records, key=record_sort_key)
    live = []
    for index, record in enumerate(ordered):
        if index == len(ordered) // 2:
            monitor = ResurrectionMonitor.from_snapshot(
                json.loads(json.dumps(monitor.snapshot())))
        live.append(monitor.observe(record))
    assert rows(e for e in live if e is not None) == expected


#: The paper's example: withdrawn at +100 min, back at +170 min.
PAPER_EXAMPLE = (
    [ann(T0 + 2, P, 61573, 1299, 25091, 8298, 210312, peer_asn=61573),
     wd(T0 + 900 + 100 * MINUTE, P, peer_asn=61573),
     ann(T0 + 900 + 170 * MINUTE, P, 61573, 4637, 1299, 25091, 8298,
         210312, peer_asn=61573)],
    [interval(P, T0)], 120 * MINUTE)
#: RIS beacons, every re-announcement the beacon's own next one.
RIS_ON_TIME = (
    [record for start in (T0, T0 + CYCLE, T0 + 2 * CYCLE) for record in
     (ann(start + 2, P, 25091, 12654), wd(start + 2 * HOUR + 3, P))],
    [interval(P, start, start + 2 * HOUR)
     for start in (T0, T0 + CYCLE, T0 + 2 * CYCLE)], 120 * MINUTE)


class TestOneResurrectionVerdict:
    @given(resurrection_streams())
    @example(PAPER_EXAMPLE)
    @example(RIS_ON_TIME)
    @settings(deadline=None)
    def test_batch_live_and_reference_agree(self, data):
        assert_one_resurrection_verdict(*data)


@st.composite
def rib_dumps(draw):
    dump = RibDump(draw(st.integers(min_value=0, max_value=2**31)), "rrc00")
    n_routes = draw(st.integers(min_value=0, max_value=6))
    for index in range(n_routes):
        host = draw(st.integers(min_value=1, max_value=0xFFFF))
        prefix = Prefix(f"2a0d:3dc1:{host:x}::/48")
        asns = draw(st.lists(st.integers(min_value=1, max_value=2**31),
                             min_size=1, max_size=6))
        attrs = PathAttributes(as_path=ASPath(tuple(asns)),
                               next_hop="2001:db8::1")
        dump.add_route(prefix, asns[0] % 65000 + 1, f"2001:db8::{index + 1}",
                       attrs, draw(st.integers(min_value=0, max_value=2**31)))
    return dump


class TestRibDumpProperty:
    @given(rib_dumps())
    @settings(max_examples=30, deadline=None)
    def test_codec_roundtrip(self, dump):
        if not dump.peers:
            dump.peer_index(1, "::1")  # decoder needs a peer table
        decoded = decode_rib_dump(encode_rib_dump(dump))
        assert decoded.timestamp == dump.timestamp
        assert decoded.peers == dump.peers
        assert set(decoded.entries) == set(dump.entries)
        for prefix in dump.entries:
            original = [(e.peer_index, e.originated_time, e.attributes.as_path)
                        for e in dump.entries[prefix]]
            roundtrip = [(e.peer_index, e.originated_time, e.attributes.as_path)
                         for e in decoded.entries[prefix]]
            assert original == roundtrip
