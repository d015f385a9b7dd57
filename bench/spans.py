"""In-memory span tracing from the benchmark's side of each layer.

``--trace 1`` installs wrappers around *public* callables only — bound
on the instance or the importing module by the benchmark for that run —
and records one span per call: name, start, end, the span that caused
it, and a group id shared by every span of one pass or one request.
Spans stay in memory and are written to ``bench/out/`` when the run
ends.  Nothing here touches ``src/``; spans inside the program are a
later issue.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover (:func:`self_seconds`); the per-layer
``*_s`` metrics are sums of self time by span name.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = ["Span", "Tracer", "NullTracer", "self_seconds",
           "profile_calls_by_package"]

#: Span records kept verbatim; past this only the per-name totals grow
#: (per-record wrappers fire ~10^5 times in one run).
MAX_SPAN_RECORDS = 150_000


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    group: Optional[str]


def self_seconds(span: tuple[float, float],
                 children: Iterable[tuple[float, float]]) -> float:
    """Duration of ``span`` not covered by any of ``children``.

    Children are clipped to the span and may overlap each other; the
    covered part is the length of their union."""
    start, end = span
    covered = 0.0
    cursor = start
    for lo, hi in sorted((max(lo, start), min(hi, end))
                         for lo, hi in children):
        if hi <= cursor:
            continue
        covered += hi - max(lo, cursor)
        cursor = hi
    return (end - start) - covered


class _Frame:
    __slots__ = ("name", "start", "child_seconds", "index")

    def __init__(self, name: str, start: float, index: Optional[int]):
        self.name = name
        self.start = start
        self.child_seconds = 0.0
        self.index = index


class Tracer:
    """Span recorder for one single-threaded run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.group: Optional[str] = None
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[_Frame] = []
        self._restore: list[tuple[Any, str, Any, bool]] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        index = None
        if len(self.spans) < MAX_SPAN_RECORDS:
            index = len(self.spans)
            parent = self._stack[-1].index if self._stack else None
            self.spans.append(Span(name, 0.0, 0.0, parent, self.group))
        frame = _Frame(name, time.perf_counter(), index)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        # Spans nest strictly on one thread, so the children of a frame
        # never overlap and their union is their sum.
        entry = self.totals.setdefault(frame.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.child_seconds
        if self._stack:
            self._stack[-1].child_seconds += duration
        if frame.index is not None:
            span = self.spans[frame.index]
            span.start, span.end = frame.start, end

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def call(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so every call is one span."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    def iterate(self, name: str, iterable: Iterable[Any]) -> Iterator[Any]:
        """Yield from ``iterable``, one span per ``next()`` — the time
        *inside* the producer, not the consumer's time between items."""
        iterator = iter(iterable)
        while True:
            frame = self._enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            yield item

    def iterating(self, name: str, fn: Callable[..., Iterable[Any]]
                  ) -> Callable[..., Iterator[Any]]:
        """``fn`` (which returns an iterable) wrapped with
        :meth:`iterate`; building the iterable is one more span."""
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            frame = self._enter(name)
            try:
                iterable = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            return self.iterate(name, iterable)
        return traced

    # -- installing wrappers ----------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             iterator: bool = False) -> None:
        """Rebind ``owner.attr`` (an instance method or a module-level
        function) to its traced version until :meth:`unwrap_all`."""
        had_own = attr in vars(owner) if hasattr(owner, "__dict__") else False
        original = getattr(owner, attr)
        wrapper = (self.iterating if iterator else self.call)(name, original)
        self._restore.append((owner, attr, original, had_own))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # fall back to the class attribute

    # -- counts and output ------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, [0, 0.0, 0.0])[0])

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "columns": ["name", "start", "end", "parent", "group"],
                "spans": [[s.name, s.start, s.end, s.parent, s.group]
                          for s in self.spans],
                "spans_dropped": max(0, sum(
                    int(v[0]) for v in self.totals.values())
                    - len(self.spans)),
                "totals": {name: {"calls": int(v[0]), "total_s": v[1],
                                  "self_s": v[2]}
                           for name, v in sorted(self.totals.items())},
                "counts": dict(sorted(self.counts.items())),
            }, handle)


class NullTracer:
    """The untraced run: every hook is free and installs nothing."""

    enabled = False
    group: Optional[str] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def iterate(self, name: str, iterable: Iterable[Any]) -> Iterable[Any]:
        return iterable

    def wrap(self, owner: Any, attr: str, name: str,
             iterator: bool = False) -> None:
        pass

    def unwrap_all(self) -> None:
        pass

    def count(self, name: str, value: float = 1) -> None:
        pass


# -- exact call counts -----------------------------------------------------

#: package label -> path fragments that identify its source files.
_PACKAGES = {
    "mrt": ("/repro/mrt/",), "ris": ("/repro/ris/",),
    "net": ("/repro/net/",), "bgp": ("/repro/bgp/",),
    "core": ("/repro/core/",), "realtime": ("/repro/realtime/",),
    "observatory": ("/repro/observatory/",),
    "stdlib_json": ("/json/",), "stdlib_ipaddress": ("/ipaddress.py",),
}


def profile_calls_by_package(fn: Callable[[], Any]) -> dict[str, int]:
    """Run ``fn`` under ``cProfile`` and roll primitive call counts up by
    package.  Counts, not times: they repeat exactly run to run (the
    profiler's per-call cost makes its times useless for proportions),
    so a later change may cite them as counts."""
    profiler = cProfile.Profile()
    profiler.runcall(fn)
    stats = pstats.Stats(profiler)
    rolled = {label: 0 for label in _PACKAGES}
    for (filename, _, _), (primitive, _, _, _, _) in stats.stats.items():
        normalised = filename.replace("\\", "/")
        for label, fragments in _PACKAGES.items():
            if any(fragment in normalised for fragment in fragments):
                rolled[label] += primitive
                break
    return rolled
