"""Tests for palm-tree root-cause inference."""

from helpers import ann, interval
from hypothesis import given, settings, strategies as st

from repro.bgp import ASPath
from repro.core import ZombieOutbreak, ZombieRoute, infer_root_cause, infer_root_causes
from repro.core.rootcause import build_palm_tree
from repro.net import Prefix
from repro.utils.timeutil import ts

P = "2a0d:3dc1:2233::/48"
T0 = ts(2024, 6, 7)


def outbreak_from_paths(paths):
    iv = interval(P, T0, T0 + 900)
    routes = []
    for index, path in enumerate(paths):
        record = ann(T0 + 2, P, *path, addr=f"2001:db8::{index + 1}",
                     peer_asn=path[0])
        routes.append(ZombieRoute(interval=iv, peer=("rrc00", f"2001:db8::{index + 1}"),
                                  peer_asn=path[0], detected_at=T0 + 6300,
                                  announcement=record))
    return ZombieOutbreak(iv, tuple(routes))


class TestPalmTree:
    def test_paper_impactful_zombie_shape(self):
        """All routes share the subpath 33891 25091 8298 210312 and then
        branch — the suspect must be AS33891 (§5.2)."""
        outbreak = outbreak_from_paths([
            (64801, 33891, 25091, 8298, 210312),
            (64802, 33891, 25091, 8298, 210312),
            (64803, 64900, 33891, 25091, 8298, 210312),
        ])
        inference = infer_root_cause(outbreak, origin_asn=210312)
        assert inference.suspect == 33891
        assert inference.tree.trunk == (210312, 8298, 25091, 33891)

    def test_single_path_suspect_is_peer_adjacent(self):
        """With one zombie route the trunk stops before the observing
        peer (a pure observer); the suspect is the AS that fed it."""
        outbreak = outbreak_from_paths([(9304, 6939, 43100, 25091, 8298, 210312)])
        inference = infer_root_cause(outbreak, origin_asn=210312)
        assert inference.tree.trunk == (210312, 8298, 25091, 43100, 6939)
        assert inference.suspect == 6939

    def test_branch_at_origin_gives_no_suspect(self):
        outbreak = outbreak_from_paths([
            (64801, 210312),
            (64802, 210312),
        ])
        inference = infer_root_cause(outbreak, origin_asn=210312)
        assert inference.suspect is None
        assert inference.tree.trunk == (210312,)

    def test_branches_collected(self):
        outbreak = outbreak_from_paths([
            (64801, 33891, 25091, 8298, 210312),
            (64802, 33891, 25091, 8298, 210312),
        ])
        inference = infer_root_cause(outbreak, origin_asn=210312)
        assert inference.tree.branches == frozenset({64801, 64802})

    def test_paths_not_rooted_at_origin_ignored(self):
        outbreak = outbreak_from_paths([
            (64801, 33891, 25091, 8298, 210312),
            (64803, 33891, 25091, 8298, 210312),
            (64802, 99999),  # bogus path to another origin
        ])
        inference = infer_root_cause(outbreak, origin_asn=210312)
        assert inference.suspect == 33891

    def test_peer_on_trunk_stops_walk(self):
        """If one zombie peer IS on the trunk, the trunk cannot extend
        past it."""
        outbreak = outbreak_from_paths([
            (33891, 25091, 8298, 210312),
            (64900, 33891, 25091, 8298, 210312),
        ])
        inference = infer_root_cause(outbreak, origin_asn=210312)
        assert inference.tree.trunk == (210312, 8298, 25091, 33891)
        assert inference.suspect == 33891

    def test_batch(self):
        outbreaks = [
            outbreak_from_paths([(64801, 33891, 25091, 8298, 210312)]),
            outbreak_from_paths([(64801, 9304, 6939, 43100, 25091, 8298, 210312)]),
        ]
        inferences = infer_root_causes(outbreaks, 210312)
        assert len(inferences) == 2


class TestPrepending:
    """AS-path prepending must be collapsed before the tree is built:
    ``10 10 2 1`` and ``10 2 1`` describe the same AS-level route."""

    def test_peer_prepending_does_not_blame_the_observer(self):
        """The ISSUE repro: a RIS peer that prepends its own ASN used to
        escape the pure-observer guard and get blamed."""
        tree = build_palm_tree([ASPath.of(10, 10, 2, 1)], 1)
        assert tree.suspect == 2
        assert tree.trunk == (1, 2)

    def test_peer_prepending_matches_unprepended(self):
        prepended = build_palm_tree([ASPath.of(10, 10, 2, 1)], 1)
        plain = build_palm_tree([ASPath.of(10, 2, 1)], 1)
        assert prepended.suspect == plain.suspect == 2
        assert prepended.trunk == plain.trunk

    def test_origin_prepending_collapses_trunk(self):
        """Origin prepending used to yield nonsense trunks like
        ``(1, 1, 2)``."""
        tree = build_palm_tree([ASPath.of(10, 2, 1, 1)], 1)
        assert tree.trunk == (1, 2)
        assert tree.suspect == 2

    def test_transit_prepending_collapsed(self):
        tree = build_palm_tree([
            ASPath.of(64801, 33891, 25091, 25091, 25091, 8298, 210312),
            ASPath.of(64802, 33891, 25091, 8298, 210312),
        ], 210312)
        assert tree.trunk == (210312, 8298, 25091, 33891)
        assert tree.suspect == 33891

    def test_outbreak_level_inference_sees_collapsed_paths(self):
        outbreak = outbreak_from_paths([(10, 10, 2, 1)])
        inference = infer_root_cause(outbreak, origin_asn=1)
        assert inference.suspect == 2

    @settings(max_examples=300, deadline=None)
    @given(origin=st.sampled_from([1, 2]), paths=st.lists(st.lists(
        st.tuples(st.sampled_from([1, 2, 3, 4, 10, 64500]),
                  st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=6), max_size=5))
    def test_prepending_anywhere_leaves_the_tree_unchanged(self, origin,
                                                           paths):
        """Each ASN of each path repeated 1-3 times in place: trunk,
        suspect, branches and both path counts stay the same.  A small
        ASN pool makes shared trunks, branches and rooted paths
        common."""
        plain = [ASPath.of(*(asn for asn, _ in path)) for path in paths]
        prepended = [ASPath.of(*(asn for asn, times in path
                                 for _ in range(times))) for path in paths]
        assert (build_palm_tree(prepended, origin)
                == build_palm_tree(plain, origin))


class TestEvidenceCounts:
    """'No path rooted at the origin' and 'rooted paths but no unique
    suspect' used to produce indistinguishable trees."""

    def test_no_evidence(self):
        tree = build_palm_tree([ASPath.of(64801, 99999)], 210312)
        assert tree.suspect is None
        assert tree.rooted_paths == 0
        assert tree.total_paths == 1
        assert tree.verdict == "no-evidence"

    def test_no_suspect_with_evidence(self):
        tree = build_palm_tree([
            ASPath.of(64801, 210312),
            ASPath.of(64802, 210312),
        ], 210312)
        assert tree.suspect is None
        assert tree.rooted_paths == 2
        assert tree.total_paths == 2
        assert tree.verdict == "no-suspect"

    def test_suspect_counts_rooted_subset(self):
        tree = build_palm_tree([
            ASPath.of(64801, 33891, 25091, 8298, 210312),
            ASPath.of(64802, 99999),
        ], 210312)
        assert tree.suspect == 33891
        assert tree.rooted_paths == 1
        assert tree.total_paths == 2
        assert tree.verdict == "suspect"

    def test_empty_input_is_no_evidence(self):
        tree = build_palm_tree([], 210312)
        assert tree.verdict == "no-evidence"
        assert tree.total_paths == 0


class TestCommonSubpath:
    def test_common_suffix(self):
        outbreak = outbreak_from_paths([
            (64801, 33891, 25091, 8298, 210312),
            (64803, 64900, 33891, 25091, 8298, 210312),
        ])
        assert outbreak.common_subpath() == (33891, 25091, 8298, 210312)

    def test_identical_paths(self):
        outbreak = outbreak_from_paths([
            (9304, 6939, 43100, 25091, 8298, 210312),
            (9304, 6939, 43100, 25091, 8298, 210312),
        ])
        assert outbreak.common_subpath() == (9304, 6939, 43100, 25091, 8298, 210312)

    def test_no_common(self):
        outbreak = outbreak_from_paths([(64801, 210312), (64802, 99999)])
        assert outbreak.common_subpath() == ()
