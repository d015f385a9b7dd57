"""The paper's contribution: revised zombie detection and analyses."""

from repro.core.detector import (
    DEFAULT_THRESHOLD,
    DetectionResult,
    DetectorConfig,
    IntervalEvaluator,
    ZombieDetector,
)
from repro.core.legacy import LegacyDetector
from repro.core.lifespan import (
    LifespanDelta,
    LifespanSession,
    LifespanTracker,
    PresenceSegment,
    ZombieLifespan,
)
from repro.core.noisy import NoisyPeerDetector, NoisyPeerReport, PeerStat
from repro.core.outbreaks import ZombieOutbreak, ZombieRoute
from repro.core.resurrection import (
    LateAnnouncement,
    ResurrectionEvent,
    ResurrectionMonitor,
    find_late_announcements,
    find_resurrections,
)
from repro.core.rootcause import (
    PalmTree,
    RootCauseInference,
    infer_root_cause,
)
from repro.core.state import PeerKey, PrefixState, StateReconstructor

__all__ = [
    "DEFAULT_THRESHOLD",
    "DetectionResult",
    "DetectorConfig",
    "IntervalEvaluator",
    "ZombieDetector",
    "LegacyDetector",
    "LifespanDelta",
    "LifespanSession",
    "LifespanTracker",
    "PresenceSegment",
    "ZombieLifespan",
    "NoisyPeerDetector",
    "NoisyPeerReport",
    "PeerStat",
    "ZombieOutbreak",
    "ZombieRoute",
    "LateAnnouncement",
    "ResurrectionEvent",
    "ResurrectionMonitor",
    "find_late_announcements",
    "find_resurrections",
    "PalmTree",
    "RootCauseInference",
    "infer_root_cause",
    "PeerKey",
    "PrefixState",
    "StateReconstructor",
]
