"""Tests for per-peer prefix state reconstruction."""

from helpers import ann, sess_down, sess_up, wd

from repro.core import PrefixState, StateReconstructor
from repro.net import Prefix

P = "2a0d:3dc1:1145::/48"
PEER = ("rrc00", "2001:db8::2")


class TestStateMachine:
    def test_unknown_is_removed(self):
        state = StateReconstructor([])
        assert state.state_at(PEER, Prefix(P), 100) is PrefixState.REMOVED

    def test_announce_makes_present(self):
        state = StateReconstructor([ann(100, P, 25091, 210312)])
        assert state.state_at(PEER, Prefix(P), 99) is PrefixState.REMOVED
        assert state.state_at(PEER, Prefix(P), 100) is PrefixState.PRESENT
        assert state.state_at(PEER, Prefix(P), 10**9) is PrefixState.PRESENT

    def test_withdraw_makes_removed(self):
        state = StateReconstructor([ann(100, P, 25091, 210312), wd(200, P)])
        assert state.state_at(PEER, Prefix(P), 150) is PrefixState.PRESENT
        assert state.state_at(PEER, Prefix(P), 200) is PrefixState.REMOVED

    def test_reannounce_after_withdraw(self):
        state = StateReconstructor([
            ann(100, P, 25091, 210312), wd(200, P),
            ann(300, P, 25091, 8298, 210312)])
        assert state.state_at(PEER, Prefix(P), 400) is PrefixState.PRESENT
        last = state.last_announcement(PEER, Prefix(P), 400)
        assert last.timestamp == 300
        assert last.attributes.as_path.asns == (25091, 8298, 210312)

    def test_session_down_removes(self):
        state = StateReconstructor([ann(100, P, 25091, 210312), sess_down(150)])
        assert state.state_at(PEER, Prefix(P), 200) is PrefixState.REMOVED

    def test_session_up_requires_reannounce(self):
        state = StateReconstructor([
            ann(100, P, 25091, 210312), sess_down(150), sess_up(160)])
        assert state.state_at(PEER, Prefix(P), 200) is PrefixState.REMOVED

    def test_reannounce_after_session_up(self):
        state = StateReconstructor([
            ann(100, P, 25091, 210312), sess_down(150), sess_up(160),
            ann(170, P, 25091, 210312)])
        assert state.state_at(PEER, Prefix(P), 200) is PrefixState.PRESENT

    def test_state_change_of_other_peer_ignored(self):
        state = StateReconstructor([
            ann(100, P, 25091, 210312),
            sess_down(150, addr="2001:db8::99", peer_asn=16347)])
        assert state.state_at(PEER, Prefix(P), 200) is PrefixState.PRESENT

    def test_per_peer_isolation(self):
        other_peer = ("rrc00", "2001:db8::9")
        state = StateReconstructor([
            ann(100, P, 25091, 210312),
            ann(110, P, 16347, 210312, addr="2001:db8::9", peer_asn=16347),
            wd(200, P),
        ])
        assert state.state_at(PEER, Prefix(P), 300) is PrefixState.REMOVED
        assert state.state_at(other_peer, Prefix(P), 300) is PrefixState.PRESENT

    def test_per_prefix_isolation(self):
        other = "2a0d:3dc1:1200::/48"
        state = StateReconstructor([
            ann(100, P, 25091, 210312),
            ann(100, other, 25091, 210312),
            wd(200, P),
        ])
        assert state.state_at(PEER, Prefix(P), 300) is PrefixState.REMOVED
        assert state.state_at(PEER, Prefix(other), 300) is PrefixState.PRESENT


class TestQueries:
    def test_peers(self):
        state = StateReconstructor([
            ann(100, P, 25091, 210312),
            ann(100, P, 16347, 210312, addr="192.0.2.9", peer_asn=16347)])
        assert state.peers() == {
            ("rrc00", "2001:db8::2"): 25091,
            ("rrc00", "192.0.2.9"): 16347,
        }

    def test_prefixes(self):
        state = StateReconstructor([ann(100, P, 25091, 210312)])
        assert state.prefixes() == {Prefix(P)}

    def test_last_announcement_none_when_removed(self):
        state = StateReconstructor([ann(100, P, 25091, 210312), wd(200, P)])
        assert state.last_announcement(PEER, Prefix(P), 300) is None

    def test_same_second_ordering_follows_stream(self):
        """A withdrawal and announcement in the same second resolve in
        stream order (state messages sort before updates)."""
        records = [wd(100, P), ann(100, P, 25091, 210312)]
        state = StateReconstructor(records)
        assert state.state_at(PEER, Prefix(P), 100) is PrefixState.PRESENT

