"""BGP protocol model: attributes, messages, RIBs and policy."""

from repro.bgp.attributes import Aggregator, ASPath, Origin, PathAttributes
from repro.bgp.messages import (
    Announcement,
    PeerState,
    Record,
    StateRecord,
    UpdateRecord,
    Withdrawal,
    record_sort_key,
)
from repro.bgp.policy import Relationship, route_key, should_export
from repro.bgp.rib import AdjRIB, Route

__all__ = [
    "Aggregator",
    "ASPath",
    "Origin",
    "PathAttributes",
    "Announcement",
    "Withdrawal",
    "PeerState",
    "UpdateRecord",
    "StateRecord",
    "Record",
    "record_sort_key",
    "Relationship",
    "should_export",
    "route_key",
    "AdjRIB",
    "Route",
]
