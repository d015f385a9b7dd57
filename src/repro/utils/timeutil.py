"""Time helpers used across the library.

All timestamps in this codebase are POSIX timestamps in UTC, stored as
``int`` seconds (BGP/MRT granularity is one second).  These helpers keep
the conversion logic in one place so that no module ever constructs a
naive :class:`datetime.datetime` by accident.
"""

from __future__ import annotations

from datetime import datetime, timezone

__all__ = [
    "MINUTE",
    "HOUR",
    "DAY",
    "ts",
    "from_iso",
    "to_iso",
    "to_datetime",
    "month_start",
    "seconds_into_month",
    "align_down",
    "align_up",
]

MINUTE = 60
HOUR = 3600
DAY = 86400


def ts(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
       second: int = 0) -> int:
    """Build a UTC POSIX timestamp from calendar components."""
    dt = datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)
    return int(dt.timestamp())


def from_iso(text: str) -> int:
    """Parse ``YYYY-MM-DD[ HH:MM[:SS]]`` (UTC assumed) into a timestamp."""
    text = text.strip().replace("T", " ")
    formats = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d")
    for fmt in formats:
        try:
            dt = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
        except ValueError:
            continue
        return int(dt.timestamp())
    raise ValueError(f"unrecognised time string: {text!r}")


def to_iso(timestamp: int) -> str:
    """Render a timestamp as ``YYYY-MM-DD HH:MM:SS`` UTC."""
    return to_datetime(timestamp).strftime("%Y-%m-%d %H:%M:%S")


def to_datetime(timestamp: int) -> datetime:
    """Convert a POSIX timestamp to an aware UTC datetime."""
    return datetime.fromtimestamp(timestamp, tz=timezone.utc)


def month_start(timestamp: int) -> int:
    """Timestamp of midnight UTC on the 1st day of the timestamp's month."""
    dt = to_datetime(timestamp)
    return ts(dt.year, dt.month, 1)


def seconds_into_month(timestamp: int) -> int:
    """Seconds elapsed since midnight UTC on the 1st of the month."""
    return timestamp - month_start(timestamp)


def previous_month_start(timestamp: int) -> int:
    """Timestamp of midnight UTC on the 1st day of the previous month."""
    dt = to_datetime(month_start(timestamp))
    year, month = (dt.year - 1, 12) if dt.month == 1 else (dt.year, dt.month - 1)
    return ts(year, month, 1)


def align_down(timestamp: int, step: int, origin: int = 0) -> int:
    """Largest ``origin + k*step`` that is <= ``timestamp``."""
    if step <= 0:
        raise ValueError("step must be positive")
    return origin + ((timestamp - origin) // step) * step


def align_up(timestamp: int, step: int, origin: int = 0) -> int:
    """Smallest ``origin + k*step`` that is >= ``timestamp``."""
    down = align_down(timestamp, step, origin)
    return down if down == timestamp else down + step
