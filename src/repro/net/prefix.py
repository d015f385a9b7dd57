"""IP prefix primitives.

A :class:`Prefix` is three integers, ``(version, value, plen)``: hashing,
ordering, containment and MRT wire coding are integer arithmetic, and
the text is rendered on first use and cached.  Only parsing text goes
through :mod:`ipaddress`.  The hash is ``hash(value ^ netmask)``, that of
the equal :mod:`ipaddress` network, so set and dict order is unchanged.

:func:`format_address` is the one packed-address renderer (and
:func:`packed_address` its memoised inverse): the text of
``str(ipaddress.ip_address(packed))`` through :func:`socket.inet_ntop`,
except where the first 80 bits are zero (``::ffff:a.b.c.d``,
``::a.b.c.d``, ``::``) — there ``inet_ntop`` and :mod:`ipaddress`
disagree, and :mod:`ipaddress` changed in Python 3.13 — or the length
is wrong: those go to :mod:`ipaddress` itself, so text and exceptions
match it on every interpreter.
"""

from __future__ import annotations

import ipaddress
import socket
from functools import lru_cache, total_ordering
from typing import Union

__all__ = ["Prefix", "AFI_IPV4", "AFI_IPV6", "format_address", "packed_address"]

AFI_IPV4 = 1
AFI_IPV6 = 2

_Network = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]
_ZERO_80 = bytes(10)


def format_address(packed: bytes, ipv4_only: bool = False) -> str:
    """``str(ipaddress.ip_address(packed))`` — or of ``IPv4Address``
    with ``ipv4_only`` — without building the address object."""
    size = len(packed)
    if size == 4:
        return socket.inet_ntop(socket.AF_INET, packed)
    if size == 16 and not ipv4_only and packed[:10] != _ZERO_80:
        return socket.inet_ntop(socket.AF_INET6, packed)
    parse = ipaddress.IPv4Address if ipv4_only else ipaddress.ip_address
    return str(parse(packed))


@lru_cache(maxsize=4096)
def packed_address(text: str) -> tuple[int, bytes]:
    """``(IP version, packed bytes)`` of an address text, the inverse of
    :func:`format_address`.  Memoised: an encoded archive repeats the
    same few peer, local, next-hop and aggregator addresses."""
    address = ipaddress.ip_address(text)
    return address.version, address.packed


@total_ordering
class Prefix:
    """An immutable IPv4/IPv6 prefix.

    >>> p = Prefix("2a0d:3dc1:1145::/48")
    >>> p.afi == AFI_IPV6
    True
    >>> Prefix("10.0.0.0/8").contains(Prefix("10.1.0.0/16"))
    True
    """

    __slots__ = ("version", "value", "plen", "_hash", "_text")

    def __init__(self, text: Union[str, _Network, "Prefix"]):
        if isinstance(text, Prefix):
            self._fill(text.version, text.value, text.plen)
            return
        if isinstance(text, (ipaddress.IPv4Network, ipaddress.IPv6Network)):
            network = text
        else:
            network = ipaddress.ip_network(text, strict=True)
        self._fill(network.version, int(network.network_address),
                   network.prefixlen)

    def _fill(self, version: int, value: int, plen: int) -> None:
        width = 32 if version == 4 else 128
        self.version = version
        self.value = value
        self.plen = plen
        netmask = ((1 << width) - 1) ^ ((1 << (width - plen)) - 1)
        self._hash = hash(value ^ netmask)
        self._text = None

    @property
    def network(self) -> _Network:
        """The equal :mod:`ipaddress` network object, built on access."""
        if self.version == 4:
            return ipaddress.IPv4Network((self.value, self.plen))
        return ipaddress.IPv6Network((self.value, self.plen))

    @property
    def afi(self) -> int:
        """Address Family Identifier: 1 for IPv4, 2 for IPv6."""
        return AFI_IPV4 if self.version == 4 else AFI_IPV6

    @property
    def is_ipv4(self) -> bool:
        return self.version == 4

    @property
    def is_ipv6(self) -> bool:
        return self.version == 6

    @property
    def prefixlen(self) -> int:
        return self.plen

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        if self.version != other.version or other.plen < self.plen:
            return False
        host = (32 if self.version == 4 else 128) - self.plen
        return other.value >> host == self.value >> host

    def packed(self) -> bytes:
        """Full-width network address bytes (4 or 16 bytes)."""
        return self.value.to_bytes(4 if self.version == 4 else 16, "big")

    def wire_bytes(self) -> bytes:
        """NLRI encoding: length octet + minimal prefix bytes (RFC 4271)."""
        nbytes = (self.plen + 7) // 8
        return bytes([self.plen]) + self.packed()[:nbytes]

    @classmethod
    def from_wire(cls, data: bytes, afi: int) -> tuple["Prefix", int]:
        """Decode one NLRI entry; returns (prefix, bytes consumed).  Host
        bits past the prefix length are masked off."""
        if not data:
            raise ValueError("empty NLRI buffer")
        plen = data[0]
        nbytes = (plen + 7) // 8
        width = 32 if afi == AFI_IPV4 else 128
        if plen > width:
            raise ValueError(f"prefix length {plen} too large for AFI {afi}")
        if len(data) < 1 + nbytes:
            raise ValueError("truncated NLRI entry")
        host = width - plen
        value = int.from_bytes(data[1:1 + nbytes], "big") << (width - 8 * nbytes)
        prefix = cls.__new__(cls)
        prefix._fill(4 if width == 32 else 6, value >> host << host, plen)
        return prefix, 1 + nbytes

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = f"{format_address(self.packed())}/{self.plen}"
        return text

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return (self.value == other.value and self.plen == other.plen
                    and self.version == other.version)
        if isinstance(other, str):
            return str(self) == other
        return NotImplemented

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        # v4 sorts before v6; within a family sort by address then length.
        return ((self.version, self.value, self.plen)
                < (other.version, other.value, other.plen))
