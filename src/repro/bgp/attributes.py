"""BGP path attributes (RFC 4271 subset used by the pipeline).

Only the attributes that matter for zombie detection are modelled in
full: AS_PATH (for path-length analysis and root-cause inference),
AGGREGATOR (whose IP address field carries the RIPE RIS beacon "clock"
that the double-counting filter decodes), plus ORIGIN / NEXT_HOP /
COMMUNITIES for fidelity of the MRT round trip.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.net.asn import validate_asn
from repro.net.prefix import format_address, packed_address

__all__ = [
    "Origin",
    "ASPath",
    "Aggregator",
    "PathAttributes",
    "ATTR_ORIGIN",
    "ATTR_AS_PATH",
    "ATTR_NEXT_HOP",
    "ATTR_AGGREGATOR",
    "ATTR_COMMUNITIES",
    "ATTR_MP_REACH_NLRI",
    "ATTR_MP_UNREACH_NLRI",
]

# Attribute type codes (RFC 4271 / 4760 / 1997).
ATTR_ORIGIN = 1
ATTR_AS_PATH = 2
ATTR_NEXT_HOP = 3
ATTR_AGGREGATOR = 7
ATTR_COMMUNITIES = 8
ATTR_MP_REACH_NLRI = 14
ATTR_MP_UNREACH_NLRI = 15


@lru_cache(maxsize=4096)
def _check_address(text: str, ipv4_only: bool = False) -> None:
    """Raise :class:`ValueError` unless ``text`` is an IP address (IPv4
    with ``ipv4_only``).  Memoised: a decoded archive repeats the same
    few next hops and aggregator addresses in every attribute bundle."""
    (ipaddress.IPv4Address if ipv4_only else ipaddress.ip_address)(text)


class Origin:
    """ORIGIN attribute values."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2

    _NAMES = {0: "IGP", 1: "EGP", 2: "INCOMPLETE"}

    @classmethod
    def name(cls, value: int) -> str:
        return cls._NAMES.get(value, f"UNKNOWN({value})")


@dataclass(frozen=True)
class ASPath:
    """An AS_PATH as a flat AS_SEQUENCE (AS_SETs are not produced by the
    simulator; the decoder flattens them if encountered).

    >>> ASPath.from_string("4637 1299 25091 8298 210312").origin_as
    210312
    """

    asns: tuple[int, ...]

    def __post_init__(self):
        for asn in self.asns:
            validate_asn(asn)

    @classmethod
    def from_string(cls, text: str) -> "ASPath":
        """Parse a space-separated AS path string."""
        return cls(tuple(int(token) for token in text.split()))

    @classmethod
    def of(cls, *asns: int) -> "ASPath":
        return cls(tuple(asns))

    @property
    def origin_as(self) -> int:
        """The rightmost AS — the route's originator."""
        if not self.asns:
            raise ValueError("empty AS path has no origin")
        return self.asns[-1]

    @property
    def head(self) -> int:
        """The leftmost AS — the neighbour that sent the route."""
        if not self.asns:
            raise ValueError("empty AS path has no head")
        return self.asns[0]

    def prepend(self, asn: int) -> "ASPath":
        """Return a new path with ``asn`` prepended (as done at export).

        Only ``asn`` is checked: the rest of the path was checked when
        this one was built."""
        validate_asn(asn)
        path = object.__new__(ASPath)
        object.__setattr__(path, "asns", (asn,) + self.asns)
        return path

    def contains(self, asn: int) -> bool:
        """Loop check: is ``asn`` already in the path?"""
        return asn in self.asns

    def __len__(self) -> int:
        return len(self.asns)

    def __iter__(self):
        return iter(self.asns)

    def __str__(self) -> str:
        return " ".join(str(asn) for asn in self.asns)


@dataclass(frozen=True)
class Aggregator:
    """AGGREGATOR attribute: (ASN, IPv4 address).

    RIPE RIS beacons abuse the address field as a clock: ``10.x.y.z``
    where ``(x << 16) | (y << 8) | z`` is the number of seconds since
    midnight UTC on the 1st of the month of the announcement.  The codec
    for that convention lives in :mod:`repro.beacons.aggregator`; this
    class is the plain protocol attribute.
    """

    asn: int
    address: str

    def __post_init__(self):
        validate_asn(self.asn)
        _check_address(self.address, ipv4_only=True)

    def address_bytes(self) -> bytes:
        return packed_address(self.address)[1]

    @classmethod
    def from_bytes(cls, asn: int, data: bytes) -> "Aggregator":
        return cls(asn, format_address(data, ipv4_only=True))

    def __str__(self) -> str:
        return f"{self.asn} {self.address}"


@dataclass(frozen=True)
class PathAttributes:
    """The attribute bundle attached to an announcement."""

    as_path: ASPath
    next_hop: str = "::"
    origin: int = Origin.IGP
    aggregator: Optional[Aggregator] = None
    communities: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        _check_address(self.next_hop)  # v4 or v6
        if self.origin not in (Origin.IGP, Origin.EGP, Origin.INCOMPLETE):
            raise ValueError(f"invalid ORIGIN value {self.origin}")
        for high, low in self.communities:
            if not (0 <= high <= 0xFFFF and 0 <= low <= 0xFFFF):
                raise ValueError(f"invalid community {high}:{low}")

    @property
    def origin_as(self) -> int:
        return self.as_path.origin_as

    def with_prepended(self, asn: int, next_hop: Optional[str] = None) -> "PathAttributes":
        """Attributes as re-exported by ``asn`` (path prepended, next hop
        rewritten to the exporter's address when provided).

        Only ``asn`` and ``next_hop`` are checked: the other fields were
        checked when this bundle was built."""
        if next_hop is None:
            next_hop = self.next_hop
        else:
            _check_address(next_hop)
        attrs = object.__new__(PathAttributes)
        attrs.__dict__.update(self.__dict__, as_path=self.as_path.prepend(asn),
                              next_hop=next_hop)
        return attrs

    def community_strings(self) -> list[str]:
        return [f"{high}:{low}" for high, low in self.communities]
