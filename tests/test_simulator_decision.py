"""The router's keyed, incremental decision against the pairwise rule.

:class:`ASRouter` selects the lowest :func:`repro.bgp.route_key` and
skips the decision when a message cannot change the best route.  The
property drives one router through random announce / withdraw /
originate sequences and, after every message, checks its Loc-RIB
against a pairwise fold of the BGP comparison over every candidate,
and its export state against the valley-free rule.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import (
    Announcement,
    ASPath,
    PathAttributes,
    Relationship,
    Withdrawal,
    should_export,
)
from repro.net import Prefix
from repro.simulator.router import ASRouter

ASN = 1000
PREFIXES = (Prefix("2a0d:3dc1:1145::/48"), Prefix("10.0.0.0/24"))


def compare(rel_a, attrs_a, rel_b, attrs_b, tiebreak_a, tiebreak_b):
    """The pairwise BGP comparison: negative if *a* wins, positive if
    *b* does (local preference, AS-path length, lowest tiebreak; local
    routes, ``rel`` None, beat learned ones)."""
    pref_a = -1 if rel_a is None else rel_a.rank
    pref_b = -1 if rel_b is None else rel_b.rank
    if pref_a != pref_b:
        return pref_a - pref_b
    if len(attrs_a.as_path) != len(attrs_b.as_path):
        return len(attrs_a.as_path) - len(attrs_b.as_path)
    return tiebreak_a - tiebreak_b


def folded_best(router, prefix):
    """The winner of a pairwise fold over ``local`` plus ``adj_rib_in``."""
    winner = None
    local = router.local.get(prefix)
    if local is not None:
        winner = (None, local)
    for src, attrs in router.adj_rib_in.get(prefix, {}).items():
        if winner is None:
            winner = (src, attrs)
            continue
        w_src, w_attrs = winner
        w_rel = None if w_src is None else router.relationships[w_src]
        if compare(w_rel, w_attrs, router.relationships[src], attrs,
                   -1 if w_src is None else w_src, src) > 0:
            winner = (src, attrs)
    return winner


def make_router(neighbors):
    sent = {}
    world = SimpleNamespace(
        engine=SimpleNamespace(now=0.0), roa_registry=None,
        send=lambda src, dst, message: sent.__setitem__(
            (dst, message.prefix), message))
    router = ASRouter(ASN, world)
    for neighbor, relationship in neighbors.items():
        router.add_neighbor(neighbor, relationship)
    return router, sent


def check(router, sent):
    for prefix in PREFIXES:
        best = folded_best(router, prefix)
        assert router.best.get(prefix) == best
        for neighbor, relationship in router.relationships.items():
            expected = None
            if best is not None and best[0] != neighbor:
                src, attrs = best
                if src is not None:
                    attrs = attrs.with_prepended(ASN, router.next_hop)
                learned = None if src is None else router.relationships[src]
                if (should_export(learned, relationship)
                        and neighbor not in attrs.as_path.asns):
                    expected = Announcement(prefix, attrs)
            assert ((neighbor in router.advertised.get(prefix, ()))
                    == (expected is not None))
            last = sent.get((neighbor, prefix))
            if expected is not None:
                assert last == expected
            else:
                assert last is None or last == Withdrawal(prefix)


neighbors = st.dictionaries(st.integers(1, 60), st.sampled_from(list(Relationship)),
                            min_size=1, max_size=5)
# A hop of 1000 is the router's own ASN: a loop the router discards.
operations = st.lists(st.tuples(
    st.sampled_from(["announce", "announce", "announce", "withdraw",
                     "originate", "withdraw_origin"]),
    st.integers(0, 5), st.sampled_from(PREFIXES),
    st.lists(st.sampled_from([ASN, 2001, 2002, 2003, 2004]), max_size=4)),
    min_size=10, max_size=40)


class TestKeyedDecision:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(neighbors, operations)
    def test_best_is_the_pairwise_winner(self, neighbors, operations):
        router, sent = make_router(neighbors)
        sources = sorted(neighbors)
        for kind, index, prefix, tail in operations:
            src = sources[index % len(sources)]
            if kind == "announce":
                attrs = PathAttributes(ASPath((src, *tail)), "2001:db8::1")
                router.receive(src, Announcement(prefix, attrs))
            elif kind == "withdraw":
                router.receive(src, Withdrawal(prefix))
            elif kind == "originate":
                router.originate(prefix, PathAttributes(ASPath((ASN,)), "2001:db8::2"))
            else:
                router.withdraw_origin(prefix)
            check(router, sent)
