"""Zombie route / zombie outbreak data model.

Definitions follow Fontugne et al. and the paper: a **zombie route** is
a (prefix, peer) pair where the route remains in the peer's view after
the origin's withdrawal (+ detection threshold); a **zombie outbreak**
is the set of all zombie routes of the same prefix within the same
beacon interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.beacons.schedule import BeaconInterval
from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import UpdateRecord
from repro.core.state import PeerKey
from repro.net.prefix import Prefix

__all__ = ["ZombieRoute", "ZombieOutbreak"]


@dataclass(frozen=True)
class ZombieRoute:
    """One stuck route: a beacon still present at one RIS peer router."""

    interval: BeaconInterval
    peer: PeerKey
    peer_asn: int
    detected_at: int
    announcement: Optional[UpdateRecord]
    #: True when the Aggregator clock proves the stuck announcement was
    #: originated before this interval — i.e. an *old* zombie that the
    #: revised methodology refuses to double-count.
    stale: bool = False

    @property
    def prefix(self) -> Prefix:
        return self.interval.prefix

    @property
    def attributes(self) -> Optional[PathAttributes]:
        if self.announcement is None:
            return None
        return self.announcement.attributes

    @property
    def zombie_path(self):
        attrs = self.attributes
        return attrs.as_path if attrs is not None else None

    def __str__(self) -> str:
        collector, address = self.peer
        return (f"zombie {self.prefix} @ {collector}/{address} (AS{self.peer_asn})"
                f"{' [stale]' if self.stale else ''}")


@dataclass(frozen=True)
class ZombieOutbreak:
    """All zombie routes of one prefix in one beacon interval."""

    interval: BeaconInterval
    routes: tuple[ZombieRoute, ...]

    def __post_init__(self):
        for route in self.routes:
            if route.interval != self.interval:
                raise ValueError("route belongs to a different interval")

    @property
    def prefix(self) -> Prefix:
        return self.interval.prefix

    @property
    def size(self) -> int:
        return len(self.routes)

    @property
    def peer_asns(self) -> set[int]:
        return {route.peer_asn for route in self.routes}

    @property
    def peer_routers(self) -> set[PeerKey]:
        return {route.peer for route in self.routes}

    def zombie_paths(self) -> list:
        return [route.zombie_path for route in self.routes
                if route.zombie_path is not None]

    def common_subpath(self) -> tuple[int, ...]:
        """Longest common suffix of all zombie AS paths (ending at the
        origin) — the "common subpath" the paper reports per outbreak."""
        paths = [tuple(path.asns) for path in self.zombie_paths()]
        if not paths:
            return ()
        shortest = min(len(p) for p in paths)
        common: list[int] = []
        for offset in range(1, shortest + 1):
            candidates = {p[-offset] for p in paths}
            if len(candidates) != 1:
                break
            common.append(candidates.pop())
        return tuple(reversed(common))

    def __str__(self) -> str:
        return (f"outbreak {self.prefix} @ {self.interval.announce_time}: "
                f"{self.size} routes / {len(self.peer_asns)} peer ASes")
