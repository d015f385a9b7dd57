"""The §5.2 case studies: impactful and extremely long-lived zombies.

Extracts, from a campaign run, the same facts the paper reports for
``2a0d:3dc1:2233::/48`` (many peers, Core-Backbone as root cause, gone
after days) and ``2a0d:3dc1:163::/48`` (months-long at three peer ASes,
HGC as root cause).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.beacons import BEACON_ORIGIN_ASN
from repro.core import ZombieOutbreak, infer_root_cause
from repro.experiments.campaign import CampaignRun
from repro.net.prefix import Prefix
from repro.utils.timeutil import MINUTE

__all__ = ["CaseStudy", "build_case_study", "build_paper_cases"]


@dataclass(frozen=True)
class CaseStudy:
    """Everything the paper reports about one zombie outbreak."""

    prefix: Prefix
    peer_router_count: int
    peer_as_count: int
    common_subpath: tuple[int, ...]
    suspected_root_cause: Optional[int]
    root_cause_cone_size: int
    duration_days: float
    peer_durations_days: dict[int, float]


def build_case_study(run: CampaignRun, prefix: Prefix,
                     threshold: int = 180 * MINUTE) -> Optional[CaseStudy]:
    """Extract the case-study facts for one beacon prefix."""
    result = run.detect(threshold=threshold, exclude_noisy=True)
    outbreaks = result.outbreaks_for(prefix)
    if not outbreaks:
        return None
    outbreak: ZombieOutbreak = max(outbreaks, key=lambda o: o.size)
    inference = infer_root_cause(outbreak, BEACON_ORIGIN_ASN)
    suspect = inference.suspect
    cone = (run.topology.customer_cone_size(suspect)
            if suspect is not None and suspect in run.topology else 0)

    lifespan = run.lifespans(exclude_noisy=True)[prefix]
    per_as: dict[int, float] = {}
    for route in outbreak.routes:
        days = lifespan.peer_duration_days(route.peer)
        per_as[route.peer_asn] = max(per_as.get(route.peer_asn, 0.0), days)
    # Peers that join the outbreak later (e.g. AS142271 becoming visible
    # on 06-23) appear in the dump history even if absent at detection
    # time; fold them in.
    for key in lifespan.peer_spans:
        peer = run.peers.get(*key)
        if peer is None:
            continue
        days = lifespan.peer_duration_days(key)
        per_as[peer.asn] = max(per_as.get(peer.asn, 0.0), days)

    return CaseStudy(
        prefix=prefix,
        peer_router_count=len(outbreak.peer_routers),
        peer_as_count=len(outbreak.peer_asns),
        common_subpath=outbreak.common_subpath(),
        suspected_root_cause=suspect,
        root_cause_cone_size=cone,
        duration_days=lifespan.duration_days,
        peer_durations_days=per_as)


def build_paper_cases(run: CampaignRun) -> dict[str, Optional[CaseStudy]]:
    """The two §5.2 cases, keyed ``impactful`` and ``long_lived``
    (entries are None when the scripted slot is outside the run's
    window)."""
    cases: dict[str, Optional[CaseStudy]] = {}
    for name in ("impactful", "long_lived"):
        prefix = run.scripted_prefixes.get(name)
        cases[name] = build_case_study(run, prefix) if prefix else None
    return cases


def render_case(name: str, case: Optional[CaseStudy]) -> str:
    if case is None:
        return f"{name}: not present in this run"
    subpath = " ".join(str(asn) for asn in case.common_subpath)
    return (f"{name}: {case.prefix} stuck at {case.peer_router_count} peer "
            f"routers / {case.peer_as_count} peer ASes; common subpath "
            f"[{subpath}]; suspected cause AS{case.suspected_root_cause} "
            f"(cone {case.root_cause_cone_size}); lasted "
            f"{case.duration_days:.1f} days")
