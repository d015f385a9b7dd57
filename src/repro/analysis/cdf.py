"""Empirical CDF helper used by every figure builder."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable

__all__ = ["ECDF"]


@dataclass(frozen=True)
class ECDF:
    """An empirical cumulative distribution function.

    >>> cdf = ECDF.from_values([1, 2, 2, 4])
    >>> cdf.at(2)
    0.75
    """

    xs: tuple[float, ...]
    ps: tuple[float, ...]

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "ECDF":
        data = sorted(float(v) for v in values)
        if not data:
            return cls((), ())
        n = len(data)
        xs: list[float] = []
        ps: list[float] = []
        for index, value in enumerate(data, start=1):
            if xs and xs[-1] == value:
                ps[-1] = index / n
            else:
                xs.append(value)
                ps.append(index / n)
        return cls(tuple(xs), tuple(ps))

    @property
    def is_empty(self) -> bool:
        return not self.xs

    def at(self, x: float) -> float:
        """P(X <= x)."""
        if self.is_empty:
            return 0.0
        index = bisect.bisect_right(self.xs, x)
        return self.ps[index - 1] if index else 0.0

    def mean(self) -> float:
        if self.is_empty:
            raise ValueError("empty ECDF has no mean")
        # Each step's weight is its probability mass, p_i - p_{i-1}.
        total, previous = 0.0, 0.0
        for x, p in zip(self.xs, self.ps):
            total += x * (p - previous)
            previous = p
        return total

    def series(self) -> list[tuple[float, float]]:
        """(x, p) pairs suitable for plotting/printing."""
        return list(zip(self.xs, self.ps))
