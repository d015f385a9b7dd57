"""Order statistics shared by every leg and by ``compare.py``.

One implementation of each, so a latency reported by the serving legs
and a gap reported by the A/B tool mean the same thing.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["median", "percentile", "tail_percentile", "summary",
           "iqr_share"]

#: Percentiles a timing may be reported at, ascending.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to be reported.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _rank(count: int, p: float) -> int:
    """Nearest rank of percentile ``p`` among ``count`` samples: the
    smallest rank with at least ``p`` % of the samples at or below it
    (1e-9 absorbs ``99.9 / 100`` not being a binary fraction)."""
    return max(1, math.ceil(count * p / 100.0 - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(sorted(values)[_rank(len(values), p) - 1])


def tail_percentile(values: Sequence[float]) -> tuple[str, float]:
    """The highest ladder percentile with at least ``TAIL_SAMPLES``
    samples beyond it, as ``("p99", value)``.  With fewer than 20
    samples only the median qualifies."""
    chosen = LADDER[0]
    for p in LADDER:
        if len(values) - _rank(len(values), p) >= TAIL_SAMPLES:
            chosen = p
    label = f"p{chosen:g}".replace(".", "_")
    return label, percentile(values, chosen)


def summary(values: Sequence[float]) -> dict[str, float]:
    """``{"p50": …, "<tail>": …, "n": …}`` — how every timing is
    reported in ``details``."""
    if not values:
        return {"n": 0}
    label, tail = tail_percentile(values)
    out = {"p50": median(values), "n": len(values)}
    out[label] = tail
    return out


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the driver gates on."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
