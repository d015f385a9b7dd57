"""RPKI substrate: ROA registry and route-origin validation (RFC 6811).

Supports the paper's §5 observation: the beacon ROA was revoked on
2024-06-22 19:49 UTC, making all subsequent beacon routes RPKI-invalid —
yet zombie holders kept them, showing they do not enforce ROV.

ROAs are time-scoped: each has a validity window, so
:meth:`ROARegistry.validate` answers "what was the validation state of
this route at time T".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from repro.net.prefix import Prefix

__all__ = ["ROA", "ROARegistry", "ValidationState"]


class ValidationState(Enum):
    VALID = "valid"
    INVALID = "invalid"
    NOT_FOUND = "not-found"


@dataclass(frozen=True)
class ROA:
    """A Route Origin Authorization with a validity window.

    ``valid_until`` of ``None`` means "never revoked".
    """

    prefix: Prefix
    asn: int
    max_length: int
    valid_from: int = 0
    valid_until: Optional[int] = None

    def __post_init__(self):
        if self.max_length < self.prefix.prefixlen:
            raise ValueError("maxLength shorter than the ROA prefix")
        limit = 32 if self.prefix.is_ipv4 else 128
        if self.max_length > limit:
            raise ValueError(f"maxLength {self.max_length} exceeds {limit}")

    def active_at(self, time: int) -> bool:
        if time < self.valid_from:
            return False
        return self.valid_until is None or time < self.valid_until

    def covers(self, prefix: Prefix) -> bool:
        """True if this ROA covers ``prefix`` (ignoring maxLength)."""
        return self.prefix.contains(prefix)

    def authorizes(self, prefix: Prefix, origin_asn: int) -> bool:
        """Full RFC 6811 match: covered, length within maxLength, same AS."""
        return (self.covers(prefix)
                and prefix.prefixlen <= self.max_length
                and origin_asn == self.asn)


class ROARegistry:
    """The set of published ROAs (a toy RPKI repository)."""

    def __init__(self, roas: Iterable[ROA] = ()):
        self._roas: list[ROA] = list(roas)

    def add(self, roa: ROA) -> None:
        self._roas.append(roa)

    def revoke(self, roa: ROA, at_time: int) -> ROA:
        """Replace ``roa`` with a copy whose validity ends at ``at_time``;
        returns the revoked copy."""
        try:
            self._roas.remove(roa)
        except ValueError:
            raise KeyError(f"ROA not in registry: {roa}") from None
        revoked = ROA(roa.prefix, roa.asn, roa.max_length,
                      roa.valid_from, at_time)
        self._roas.append(revoked)
        return revoked

    def __len__(self) -> int:
        return len(self._roas)

    def __iter__(self):
        return iter(self._roas)

    def validate(self, prefix: Prefix, origin_asn: int,
                 time: int) -> ValidationState:
        """RFC 6811 origin validation at a point in time."""
        covered = False
        for roa in self._roas:
            if not roa.active_at(time) or not roa.covers(prefix):
                continue
            covered = True
            if roa.authorizes(prefix, origin_asn):
                return ValidationState.VALID
        return ValidationState.INVALID if covered else ValidationState.NOT_FOUND

    def change_times(self) -> list[int]:
        """Instants at which validation outcomes may change (ROA windows
        opening/closing) — useful to schedule router revalidation."""
        times = set()
        for roa in self._roas:
            times.add(roa.valid_from)
            if roa.valid_until is not None:
                times.add(roa.valid_until)
        return sorted(times)
