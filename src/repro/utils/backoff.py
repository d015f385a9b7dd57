"""The one retry backoff schedule: restarts, the observatory client
and the federation's shard connects all wait :func:`backoff_delay`."""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["backoff_delay"]


def backoff_delay(attempt: int, base: float, cap: float, jitter: float = 0.0,
                  rng: Optional[random.Random] = None) -> float:
    """Seconds before retry ``attempt`` (0-based): ``min(cap, base *
    2**attempt)``, plus ``jitter * rng.random()`` when an ``rng`` is
    given — one draw per call, so a seeded RNG replays its schedule."""
    delay = min(cap, base * 2 ** attempt)
    return delay if rng is None else delay + jitter * rng.random()
