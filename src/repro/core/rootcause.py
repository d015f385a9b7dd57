"""Root-cause AS inference via the "palm tree" heuristic (paper §5.2).

The AS graph built from an outbreak's zombie AS paths typically looks
like a palm tree: starting from the origin AS there is a single chain
of ASes which eventually branches into subtrees.  The last AS of that
single chain is the one that kept propagating the zombie route — the
*suspected* root cause (with the caveats the paper lists: the previous
AS may have failed to send it the withdrawal, and invisible IXP route
servers may hide the true culprit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.bgp.attributes import ASPath
from repro.core.outbreaks import ZombieOutbreak

__all__ = ["RootCauseInference", "infer_root_cause", "build_palm_tree",
           "PalmTree"]


@dataclass(frozen=True)
class PalmTree:
    """The structure extracted from an outbreak's zombie paths."""

    origin: int
    #: the single chain from the origin up to (and including) the
    #: branching AS.
    trunk: tuple[int, ...]
    #: suspected root cause: last AS of the trunk.
    suspect: Optional[int]
    #: ASes seen after the branch point (the palm's fronds).
    branches: frozenset[int]
    #: how many input paths were rooted at the origin (and therefore
    #: contributed to the tree) vs how many were offered in total.
    #: ``rooted_paths == 0`` means "no evidence", which is a different
    #: verdict from "evidence, but no unique suspect".
    rooted_paths: int = 0
    total_paths: int = 0

    @property
    def verdict(self) -> str:
        """``suspect`` | ``no-suspect`` | ``no-evidence``."""
        if self.suspect is not None:
            return "suspect"
        if self.rooted_paths == 0:
            return "no-evidence"
        return "no-suspect"


@dataclass(frozen=True)
class RootCauseInference:
    """One outbreak's inference result."""

    outbreak: ZombieOutbreak
    tree: PalmTree

    @property
    def suspect(self) -> Optional[int]:
        return self.tree.suspect


def _collapse_prepending(asns: Sequence[int]) -> tuple[int, ...]:
    """Collapse consecutive duplicate ASNs (AS-path prepending).

    Prepending is traffic engineering, not topology: ``10 10 2 1`` and
    ``10 2 1`` describe the same AS-level route.  Left uncollapsed, a
    prepended RIS peer appears both as path head and mid-path, escapes
    the ``pure_observers`` guard below, and gets blamed; a prepending
    origin produces nonsense trunks like ``(1, 1, 2)``.
    """
    collapsed: list[int] = []
    for asn in asns:
        if not collapsed or collapsed[-1] != asn:
            collapsed.append(asn)
    return tuple(collapsed)


def _build_palm_tree(paths: Sequence[ASPath], origin: int) -> PalmTree:
    """Walk from the origin towards the peers while the next hop is
    unique across all paths.

    Refinement over the paper's heuristic (which it leaves as future
    work): the trunk never extends into a *pure observer* — an AS that
    only ever appears as the head (RIS peer end) of zombie paths.  Such
    an AS merely received the stale route; an AS that also appears
    mid-path demonstrably propagated it and remains blameable.
    """
    total = len(paths)
    reversed_paths = []
    for path in paths:
        asns = _collapse_prepending(tuple(path.asns))
        if not asns or asns[-1] != origin:
            continue  # not rooted at the beacon origin — skip
        reversed_paths.append(tuple(reversed(asns)))  # origin first
    if not reversed_paths:
        return PalmTree(origin, (origin,), None, frozenset(), 0, total)

    heads = {p[-1] for p in reversed_paths}
    mid_asns = {asn for p in reversed_paths for asn in p[:-1]}
    pure_observers = heads - mid_asns

    trunk = [origin]
    depth = 1
    while True:
        nexts = {p[depth] for p in reversed_paths if len(p) > depth}
        if len(nexts) != 1:
            break
        candidate = nexts.pop()
        if candidate in pure_observers:
            break
        trunk.append(candidate)
        depth += 1
        # Stop if some path terminates exactly at the trunk end: the
        # chain cannot extend past a peer that is itself on the trunk.
        if any(len(p) == depth for p in reversed_paths):
            break

    branches = set()
    for p in reversed_paths:
        branches.update(p[depth:])
    suspect = trunk[-1] if len(trunk) > 1 else None
    return PalmTree(origin, tuple(trunk), suspect, frozenset(branches),
                    len(reversed_paths), total)


def build_palm_tree(paths: Sequence[ASPath], origin: int) -> PalmTree:
    """Public entry point for callers that hold bare paths rather than
    a :class:`ZombieOutbreak` (e.g. the forensics endpoint)."""
    return _build_palm_tree(paths, origin)


def infer_root_cause(outbreak: ZombieOutbreak,
                     origin_asn: int) -> RootCauseInference:
    """Infer the suspected root-cause AS of one outbreak."""
    tree = _build_palm_tree(outbreak.zombie_paths(), origin_asn)
    return RootCauseInference(outbreak=outbreak, tree=tree)
