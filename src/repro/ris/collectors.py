"""RIPE RIS collector and peer registries.

Real RIS operates route collectors ``rrc00``–``rrc26``, each peering with
volunteer ASes ("RIS peers").  A peer AS may connect several *peer
routers* (distinct addresses) to one collector, and one peer router may
feed IPv6 routes over an IPv4 transport session (as the paper's noisy
peer 176.119.234.201 does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

__all__ = ["RISPeer", "PeerRegistry", "DEFAULT_COLLECTORS"]

#: The collector names RIS has operated (rrc08/09/14 retired but present
#: in historical data).
DEFAULT_COLLECTORS: tuple[str, ...] = tuple(f"rrc{i:02d}" for i in range(27))


@dataclass(frozen=True)
class RISPeer:
    """One RIS peer *router*: (collector, address, ASN).

    ``transport_v4`` marks peers whose BGP session runs over IPv4 even
    when they feed IPv6 AFI data.
    """

    collector: str
    address: str
    asn: int
    transport_v4: bool = False

    @property
    def key(self) -> tuple[str, str]:
        """The identity the detection pipeline tracks: (collector, address)."""
        return (self.collector, self.address)


class PeerRegistry:
    """The set of RIS peers known to an experiment/archive."""

    def __init__(self, peers: Iterable[RISPeer] = ()):
        self._peers: dict[tuple[str, str], RISPeer] = {}
        for peer in peers:
            self.add(peer)

    def add(self, peer: RISPeer) -> None:
        key = peer.key
        if key in self._peers and self._peers[key] != peer:
            raise ValueError(f"conflicting registration for peer {key}")
        self._peers[key] = peer

    def get(self, collector: str, address: str) -> Optional[RISPeer]:
        return self._peers.get((collector, address))

    def __len__(self) -> int:
        return len(self._peers)

    def __iter__(self) -> Iterator[RISPeer]:
        return iter(self._peers.values())

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._peers

    def by_collector(self, collector: str) -> list[RISPeer]:
        return [p for p in self._peers.values() if p.collector == collector]

    def asns(self) -> set[int]:
        return {p.asn for p in self._peers.values()}

    def collectors(self) -> set[str]:
        return {p.collector for p in self._peers.values()}
