"""Fault injection: the mechanisms that create BGP zombies.

The literature attributes zombies to withdrawal-propagation failures —
wedged sessions (e.g. the TCP zero-window bug, RFC 9687), route
optimizer/reflector bugs, filter changes — and resurrections to session
resets re-announcing stale tables.  This module models those as
*link-level* faults the world consults on every message send, plus
*scheduled* session resets:

* :class:`WithdrawalSuppression` — withdrawals silently dropped on one
  directed link (the canonical zombie creator);
* :class:`LinkFreeze` — nothing crosses the link (wedged session): the
  downstream keeps a frozen, aging view, which is what makes zombies
  *double-counted* across beacon intervals;
* :class:`WithdrawalDelay` — withdrawals arrive late (creates zombies
  that clear between the 90-minute and 3-hour thresholds of Fig. 2);
* :class:`SessionResetEvent` — a scheduled reset that flushes and
  re-announces a table (the resurrection vector of §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.bgp.messages import Message, Withdrawal
from repro.net.prefix import Prefix

__all__ = [
    "Disposition",
    "LinkFault",
    "WithdrawalSuppression",
    "LinkFreeze",
    "WithdrawalDelay",
    "SessionResetEvent",
    "FaultPlan",
]


@dataclass(frozen=True)
class Disposition:
    """What happens to one message on a faulty link."""

    drop: bool = False
    extra_delay: float = 0.0

    DELIVER: "Disposition" = None  # populated below


Disposition.DELIVER = Disposition()
_DROP = Disposition(drop=True)


def _match_prefix(prefixes: Optional[frozenset[Prefix]], prefix: Prefix) -> bool:
    return prefixes is None or prefix in prefixes


@dataclass(frozen=True)
class LinkFault:
    """Base: a time-windowed fault on the directed link ``src → dst``.

    ``prefixes`` of ``None`` matches every prefix.
    """

    src: int
    dst: int
    start: float
    end: float
    prefixes: Optional[frozenset[Prefix]] = None

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("fault window must have positive length")

    def applies(self, src: int, dst: int, time: float, prefix: Prefix) -> bool:
        return (src == self.src and dst == self.dst
                and self.start <= time < self.end
                and _match_prefix(self.prefixes, prefix))

    def disposition(self, message: Message, time: float) -> Disposition:
        raise NotImplementedError


@dataclass(frozen=True)
class WithdrawalSuppression(LinkFault):
    """Withdrawals for matching prefixes vanish on this link."""

    def disposition(self, message: Message, time: float) -> Disposition:
        if isinstance(message, Withdrawal):
            return _DROP
        return Disposition.DELIVER


@dataclass(frozen=True)
class LinkFreeze(LinkFault):
    """Every matching message (announce *and* withdraw) vanishes —
    a wedged session whose downstream keeps its stale view."""

    def disposition(self, message: Message, time: float) -> Disposition:
        return _DROP


@dataclass(frozen=True)
class WithdrawalDelay(LinkFault):
    """Withdrawals arrive ``delay`` seconds late on this link."""

    delay: float = 0.0

    def disposition(self, message: Message, time: float) -> Disposition:
        if isinstance(message, Withdrawal):
            return Disposition(extra_delay=self.delay)
        return Disposition.DELIVER


@dataclass(frozen=True)
class SessionResetEvent:
    """A scheduled BGP session reset between two ASes (or between a RIS
    peer router and its collector when ``tap_address`` is set).

    On reset both sides flush what they learned on the session and,
    after ``downtime`` seconds, the session re-establishes and each side
    re-announces its current best routes — stale ones included, which is
    exactly how zombies resurrect (§5.1).
    """

    time: float
    a: int
    b: int
    downtime: float = 5.0
    tap_address: Optional[str] = None

    @property
    def is_tap_reset(self) -> bool:
        return self.tap_address is not None


class FaultPlan:
    """The full fault script of one experiment."""

    def __init__(self, link_faults: Iterable[LinkFault] = (),
                 session_resets: Iterable[SessionResetEvent] = ()):
        self.link_faults: list[LinkFault] = list(link_faults)
        self.session_resets: list[SessionResetEvent] = sorted(
            session_resets, key=lambda r: r.time)
        #: directed link -> its faults; a link absent here delivers
        #: every message as sent.
        self.by_link: dict[tuple[int, int], list[LinkFault]] = {}
        for fault in self.link_faults:
            self.by_link.setdefault((fault.src, fault.dst), []).append(fault)

    def add_link_fault(self, fault: LinkFault) -> None:
        self.link_faults.append(fault)
        self.by_link.setdefault((fault.src, fault.dst), []).append(fault)

    def add_session_reset(self, reset: SessionResetEvent) -> None:
        self.session_resets.append(reset)
        self.session_resets.sort(key=lambda r: r.time)

    def disposition(self, src: int, dst: int, message: Message,
                    time: float) -> Disposition:
        """Combined effect of all matching faults: any drop wins;
        otherwise delays accumulate."""
        faults = self.by_link.get((src, dst))
        if not faults:
            return Disposition.DELIVER
        total_delay = 0.0
        prefix = message.prefix
        for fault in faults:
            if not fault.applies(src, dst, time, prefix):
                continue
            result = fault.disposition(message, time)
            if result.drop:
                return _DROP
            total_delay += result.extra_delay
        if total_delay:
            return Disposition(extra_delay=total_delay)
        return Disposition.DELIVER
