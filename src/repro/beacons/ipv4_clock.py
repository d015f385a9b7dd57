"""Compact IPv4 beacon clock (paper §6).

IPv6 beacons can spell the announcement time directly in prefix digits
(``2a0d:3dc1:1145::/48``); IPv4 cannot — a /16 offers only 256 /24
more-specifics, i.e. 8 bits.  The paper notes that "a compact encoding
schema of the announcement time is necessary to maximize space
utilization".  This module implements that schema:

the /24 index is the slot counter modulo the pool size, so a /16 pool
with 15-minute slots recycles every 256 × 15 min = 64 h.  Decoding is
modular: given an approximate observation time, the most recent matching
slot is recovered (mirroring the Aggregator clock's best-case rule).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Iterator

from repro.beacons.schedule import BeaconInterval, BeaconSchedule
from repro.net.prefix import Prefix
from repro.utils.timeutil import MINUTE, align_up

__all__ = ["IPv4BeaconClock", "IPv4BeaconSchedule"]


@dataclass(frozen=True)
class IPv4BeaconClock:
    """Slot-counter ↔ /24 mapping inside an IPv4 pool.

    >>> clock = IPv4BeaconClock(Prefix("192.0.0.0/16"))
    >>> clock.capacity
    256
    >>> clock.recycle_seconds
    230400
    """

    pool: Prefix
    slot_period: int = 15 * MINUTE
    beacon_prefixlen: int = 24

    def __post_init__(self):
        if not self.pool.is_ipv4:
            raise ValueError("IPv4 clock needs an IPv4 pool")
        if self.beacon_prefixlen <= self.pool.prefixlen:
            raise ValueError("beacon prefixes must be more specific than "
                             "the pool")
        if self.beacon_prefixlen > 24:
            raise ValueError("prefixes longer than /24 are not globally "
                             "routable (paper §6)")
        if self.slot_period <= 0:
            raise ValueError("slot period must be positive")

    @property
    def index_bits(self) -> int:
        return self.beacon_prefixlen - self.pool.prefixlen

    @property
    def capacity(self) -> int:
        """Number of distinct beacon prefixes in the pool."""
        return 1 << self.index_bits

    @property
    def recycle_seconds(self) -> int:
        """Time before a prefix is reused."""
        return self.capacity * self.slot_period

    def slot_index(self, slot_time: int) -> int:
        if slot_time % self.slot_period:
            raise ValueError(f"{slot_time} is not aligned to the "
                             f"{self.slot_period}s slot grid")
        return (slot_time // self.slot_period) % self.capacity

    def encode(self, slot_time: int) -> Prefix:
        """The beacon prefix announced at ``slot_time``."""
        address = self.pool.value | (
            self.slot_index(slot_time) << (32 - self.beacon_prefixlen))
        return Prefix(ipaddress.IPv4Network((address, self.beacon_prefixlen)))

    def decode(self, prefix: Prefix, observed_at: int) -> int:
        """Most recent slot time <= ``observed_at`` that maps to
        ``prefix`` (modular best-case, like the Aggregator clock)."""
        if prefix.prefixlen != self.beacon_prefixlen \
                or not self.pool.contains(prefix):
            raise ValueError(f"{prefix} is not a beacon of pool {self.pool}")
        index = (prefix.value - self.pool.value) >> (32 - self.beacon_prefixlen)
        observed_slot = observed_at // self.slot_period
        # Largest slot counter <= observed_slot congruent to index.
        remainder = observed_slot % self.capacity
        delta = (remainder - index) % self.capacity
        return (observed_slot - delta) * self.slot_period


class IPv4BeaconSchedule(BeaconSchedule):
    """A beacon schedule over an IPv4 pool with the compact clock."""

    def __init__(self, clock: IPv4BeaconClock, origin_asn: int,
                 hold_time: int = 15 * MINUTE):
        if hold_time > clock.recycle_seconds - clock.slot_period:
            raise ValueError("hold time exceeds the recycle budget")
        self.clock = clock
        self.origin_asn = origin_asn
        self.hold_time = hold_time

    def intervals(self, start: int, end: int) -> Iterator[BeaconInterval]:
        slot = align_up(start, self.clock.slot_period)
        while slot < end:
            yield BeaconInterval(
                prefix=self.clock.encode(slot),
                announce_time=slot,
                withdraw_time=slot + self.hold_time,
                origin_asn=self.origin_asn)
            slot += self.clock.slot_period
