"""The RIPE RIS beacon "Aggregator clock".

RIS beacon announcements carry an AGGREGATOR attribute whose IPv4
address field is ``10.x.y.z``, where ``(x<<16)|(y<<8)|z`` is the number
of seconds between midnight UTC on the 1st day of the month and the time
the announcement was *originated*.  The revised methodology decodes this
to recognise stuck routes that belong to a previous announcement and so
eliminate double-counting (paper §3.1).

The clock is ambiguous across months (paper footnote 1): decoding uses
the "best case scenario" — the most recent month start that puts the
decoded origin at or before the observation time.
"""

from __future__ import annotations

import ipaddress

from repro.utils.timeutil import (
    MINUTE,
    month_start,
    previous_month_start,
    seconds_into_month,
)

__all__ = ["AggregatorClock"]

_MAX_COUNT = 2 ** 24 - 1


class AggregatorClock:
    """Codec for the ``10.x.y.z`` seconds-since-month-start convention."""

    PREFIX_OCTET = 10

    @classmethod
    def encode(cls, origin_time: int) -> str:
        """Encode an announcement origin time as an Aggregator address.

        >>> from repro.utils.timeutil import ts
        >>> AggregatorClock.encode(ts(2018, 7, 15, 12))
        '10.19.29.192'
        """
        count = seconds_into_month(origin_time)
        if count > _MAX_COUNT:
            raise ValueError(f"{count} seconds does not fit in 24 bits")
        return f"10.{(count >> 16) & 0xFF}.{(count >> 8) & 0xFF}.{count & 0xFF}"

    @classmethod
    def seconds(cls, address: str) -> int:
        """Extract the 24-bit seconds count from a clock address."""
        ip = ipaddress.IPv4Address(address)
        packed = ip.packed
        if packed[0] != cls.PREFIX_OCTET:
            raise ValueError(f"not an Aggregator clock address: {address}")
        return (packed[1] << 16) | (packed[2] << 8) | packed[3]

    @classmethod
    def decode(cls, address: str, observed_at: int) -> int:
        """Best-case origin time of the announcement carrying ``address``.

        Returns the most recent timestamp ``T`` such that ``T`` is
        ``seconds(address)`` into *some* month and ``T <= observed_at``.

        >>> from repro.utils.timeutil import ts
        >>> AggregatorClock.decode("10.19.29.192", ts(2018, 7, 19, 2, 0, 2)) \
            == ts(2018, 7, 15, 12)
        True
        """
        count = cls.seconds(address)
        candidate = month_start(observed_at) + count
        while candidate > observed_at:
            candidate = previous_month_start(candidate - count) + count
        return candidate

    @classmethod
    def is_clock_address(cls, address: str) -> bool:
        """True if ``address`` is in ``10.0.0.0/8`` (a plausible clock)."""
        try:
            return ipaddress.IPv4Address(address).packed[0] == cls.PREFIX_OCTET
        except (ValueError, ipaddress.AddressValueError):
            return False

    @classmethod
    def is_stale(cls, announcement, announce_time: int) -> bool:
        """The double-count test (paper §3.1, step 2): does the stuck
        ``announcement`` (an update record) pre-date the beacon
        announcement made at ``announce_time``?  False when it carries
        no Aggregator clock to tell by."""
        attrs = announcement.attributes
        if attrs is None or attrs.aggregator is None:
            return False
        address = attrs.aggregator.address
        if not cls.is_clock_address(address):
            return False
        origin_time = cls.decode(address, announcement.timestamp)
        # Allow a small slack: the clock has one-second granularity and
        # the origination may lag the scheduled slot by a moment.
        return origin_time < announce_time - MINUTE
