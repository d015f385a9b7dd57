"""Inter-domain routing policy: Gao-Rexford model.

ASes prefer customer routes over peer routes over provider routes
(economics), and export valley-free: routes learned from a peer or a
provider are re-exported only to customers.  The simulator's route
selection keys each route with :func:`route_key` (preference rank, then
AS-path length, then a deterministic tiebreak), mirroring the BGP
decision process closely enough for withdrawal/path-hunting dynamics to
emerge.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from repro.bgp.attributes import PathAttributes

__all__ = ["Relationship", "should_export", "route_key"]


class Relationship(Enum):
    """The business relationship of a neighbour, from the local AS's view."""

    CUSTOMER = "customer"   # neighbour pays us
    PEER = "peer"           # settlement-free
    PROVIDER = "provider"   # we pay the neighbour

    def __init__(self, value: str):
        #: Gao-Rexford local preference rank: lower is more preferred
        #: (maps to LOCAL_PREF ordering).  A plain attribute, so the
        #: decision reads it without hashing the member.
        self.rank = ("customer", "peer", "provider").index(value)

    @property
    def inverse(self) -> "Relationship":
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return Relationship.PEER


def should_export(learned_from: Optional[Relationship],
                  export_to: Relationship) -> bool:
    """Valley-free export rule.

    ``learned_from`` is ``None`` for locally originated routes, which are
    exported to everyone.  Routes learned from customers are exported to
    everyone; routes learned from peers/providers go only to customers.
    """
    if learned_from is None or learned_from is Relationship.CUSTOMER:
        return True
    return export_to is Relationship.CUSTOMER


def route_key(learned_from: Optional[Relationship], attrs: PathAttributes,
              neighbor: int) -> tuple[int, int, int]:
    """Sort key of the BGP decision process: the lowest key wins.

    Order: local preference (relationship), AS-path length, then the
    lowest neighbour ASN (standing in for lowest router-id).  Locally
    originated routes (``learned_from`` None) key as ``(-1, length, -1)``
    and so beat every learned route.  Neighbour ASNs are unique, so no
    two candidates of one prefix share a key: the order is strict.
    """
    if learned_from is None:
        return (-1, len(attrs.as_path.asns), -1)
    return (learned_from.rank, len(attrs.as_path.asns), neighbor)
