"""The previous study's methodology (Fontugne et al., PAM'19), as the
baseline the paper replicates and revises.

Differences from :class:`repro.core.detector.ZombieDetector`:

* **Carried state**: the per-peer prefix state is computed over the whole
  measurement period, not per isolated interval — a route stuck since an
  earlier interval stays PRESENT and is counted again in every later
  interval (the double-counting the paper quantifies in Table 1).
* **Looking-glass staleness**: the original pipeline queried the
  RIPEstat looking glass, a black box whose state lags the raw feed by
  an unknown delay.  We model the lag as ``lg_delay``: the state at
  evaluation time is really the state as of ``eval - lg_delay``, which
  produces false positives when a withdrawal lands inside the lag
  window (the paper's §3.1 argument for using raw data instead).
* **No Aggregator filtering**.  Peer exclusion is configurable: the
  published study's counts show no noisy-peer explosion, so replication
  runs model its pipeline with the wedged peer excluded.

The output is the same :class:`DetectionResult` shape, so the comparison
tooling (Table 3) treats both pipelines symmetrically.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.beacons.schedule import BeaconInterval
from repro.bgp.messages import Record
from repro.core.detector import DEFAULT_THRESHOLD, DetectionResult, DetectorConfig
from repro.core.outbreaks import ZombieOutbreak, ZombieRoute
from repro.core.state import StateReconstructor
from repro.utils.timeutil import MINUTE

__all__ = ["LegacyDetector"]


class LegacyDetector:
    """Looking-glass-style zombie detection with carried state.

    ``miss_prob`` models the looking-glass service irregularities the
    paper documents (§3.1: RIPEstat went through updates during the
    original study [19-22]): each zombie route is independently missed
    with this probability, deterministically under ``seed``.
    """

    def __init__(self, threshold: int = DEFAULT_THRESHOLD,
                 lg_delay: int = 5 * MINUTE,
                 miss_prob: float = 0.0, seed: int = 0,
                 excluded_peers: frozenset = frozenset()):
        if not 0.0 <= miss_prob < 1.0:
            raise ValueError("miss_prob must be in [0, 1)")
        self.threshold = threshold
        self.lg_delay = lg_delay
        self.miss_prob = miss_prob
        self.seed = seed
        #: The published study's counts show no noisy-peer explosion, so
        #: its pipeline is modelled as insensitive to those peers.
        self.excluded_peers = excluded_peers

    def _misses(self, interval: BeaconInterval, key) -> bool:
        if self.miss_prob == 0.0:
            return False
        rng = random.Random((self.seed, str(interval.prefix),
                             interval.announce_time, key).__repr__())
        return rng.random() < self.miss_prob

    def detect(self, records: Sequence[Record],
               intervals: Iterable[BeaconInterval]) -> DetectionResult:
        """Detect zombies the previous study's way."""
        intervals = sorted((i for i in intervals if not i.discarded),
                           key=lambda i: (i.announce_time, str(i.prefix)))
        config = DetectorConfig(threshold=self.threshold, dedup=False)
        result = DetectionResult(config, [], [])
        # One reconstructor over the entire period: state carries over.
        state = StateReconstructor(records)
        peers = sorted((key, asn) for key, asn in state.peers().items()
                       if key not in self.excluded_peers)

        for interval in intervals:
            eval_time = interval.withdraw_time + self.threshold
            lg_time = eval_time - self.lg_delay
            visible_anywhere = False
            routes: list[ZombieRoute] = []
            for key, asn in peers:
                if not self._visible(state, key, interval):
                    continue
                visible_anywhere = True
                pair = (interval.prefix, asn)
                result.visible_pairs[pair] = result.visible_pairs.get(pair, 0) + 1
                result.router_visible[key] = result.router_visible.get(key, 0) + 1

                announcement = state.last_announcement(key, interval.prefix,
                                                       lg_time)
                if announcement is None:
                    continue
                if self._misses(interval, key):
                    continue
                routes.append(ZombieRoute(
                    interval=interval, peer=key, peer_asn=asn,
                    detected_at=eval_time, announcement=announcement,
                    stale=announcement.timestamp < interval.announce_time))
                result.zombie_pairs[pair] = result.zombie_pairs.get(pair, 0) + 1
                result.router_zombies[key] = result.router_zombies.get(key, 0) + 1
            if visible_anywhere:
                result.visible_intervals.append(interval)
            if routes:
                result.outbreaks.append(ZombieOutbreak(interval, tuple(routes)))
        return result

    def _visible(self, state: StateReconstructor, key, interval) -> bool:
        """The looking-glass notion of visibility: the peer held the
        prefix at some point during the interval's announce window."""
        announce_end = min(interval.withdraw_time,
                           interval.announce_time + 2 * 3600)
        announcement = state.last_announcement(key, interval.prefix,
                                               announce_end)
        return announcement is not None
