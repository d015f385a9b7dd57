"""What every leg shares: the run context and the outcome it fills in."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from spans import NullTracer, Tracer
from worlds import StoreSpec, WorldSpec

__all__ = ["Context", "Outcome"]


@dataclass
class Context:
    """Inputs of one run, fixed before the first measured slice."""

    seed: int
    world_spec: WorldSpec
    store_spec: StoreSpec
    workdir: Path
    #: CPU the generator (and every in-process leg) is pinned to, and the
    #: CPU every system-under-test process is pinned to; None = unpinned.
    gen_cpu: Optional[int]
    sut_cpu: Optional[int]
    tracer: Union[Tracer, NullTracer]

    @property
    def traced(self) -> bool:
        return self.tracer.enabled


@dataclass
class Outcome:
    """Metrics, details and the correctness ledger of one run.

    Every operation whose result is checked goes through :meth:`check`:
    ``attempted`` counts them, ``failed`` counts the violations, and a
    violated check can never contribute a latency sample — callers add
    samples only after the check passed.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    #: the same metrics from raw wall-clock, for ``compare.py`` to show
    #: what normalisation buys.
    raw: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str, count: int = 1) -> bool:
        """Book ``count`` operations that passed or failed together."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.violations) < 50:
                self.violations.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0
