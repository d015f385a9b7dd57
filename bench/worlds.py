"""Seeded input generators: the simulated world, its RIS archive, the
serving event store and the request schedule.

Everything a workload feeds the system is made here from ``--seed`` and
nothing else; the program under test receives only these generated
inputs.  Each generator returns a sha256 over what it produced, and
:func:`combine_hashes` folds them into the run's ``workload_hash`` —
same seed, same hash, checked on every run.

Worlds are built from the public ``topology`` / ``simulator`` /
``beacons`` API rather than ``experiments.run_campaign``: the campaign's
peer registry formats ``2001:db8:{asn:x}::feed`` and AS142271 becomes
``2001:db8:22bbf::feed``, which ``encode_update_record`` rejects, so a
campaign run cannot be archived today (README.md, "Known defects").
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Iterator, Optional
from urllib.parse import quote

from repro.beacons import PaperCampaign
from repro.beacons.schedule import BeaconInterval
from repro.bgp.messages import Record
from repro.mrt.tabledump import RibDump
from repro.net.prefix import Prefix
from repro.observatory import EventStore, outbreak_id
from repro.ris import ArchiveWriter, PeerRegistry, RISPeer
from repro.simulator import (
    BGPWorld,
    FaultPlan,
    SessionResetEvent,
    WithdrawalDelay,
    WithdrawalSuppression,
    generate_rib_dumps,
)
from repro.topology import TopologyConfig, build_internet
from repro.utils.timeutil import DAY, HOUR, MINUTE, from_iso

__all__ = ["WorldSpec", "StoreSpec", "World", "StoreInfo", "build_world",
           "write_archive", "tree_digest", "build_store", "live_events",
           "url_schedule", "combine_hashes", "request_kind", "MIX_BLOCK",
           "MIX_WEIGHTS", "QUICK_WORLD", "FULL_WORLD", "QUICK_STORE",
           "FULL_STORE"]


# -- the simulated world ---------------------------------------------------

@dataclass(frozen=True)
class WorldSpec:
    """Shape of one simulated campaign (the seed picks the instance)."""

    n_tier2: int
    n_stub: int
    n_peers: int
    collectors: int
    beacon_hours: int
    horizon_days: int
    #: beacon slots that suffer a delayed withdrawal (clears by itself)
    #: and a suppressed one (a zombie, cured days later).  Counts, not
    #: probabilities: the record count must not move with the seed.
    n_transient: int = 2
    n_persistent: int = 3
    #: simulated seconds per ``run_until`` step while beacons are active
    #: (the public slicing the sim leg times in <=250 ms pieces).
    step_seconds: int = 4 * HOUR

    #: Campaign instant all worlds start at (inside approach B, so slot
    #: prefixes never collide within one world).
    start: int = from_iso("2024-06-17 12:00")

    @property
    def end(self) -> int:
        return self.start + self.beacon_hours * HOUR

    @property
    def horizon(self) -> int:
        return self.end + self.horizon_days * DAY


#: Seeds the AS graph and the choice of peer ASes (see build_world).
STRUCTURE_SEED = 20240617

FULL_WORLD = WorldSpec(n_tier2=14, n_stub=70, n_peers=18, collectors=4,
                       beacon_hours=8, horizon_days=20)
# Large enough that the ingest passes its first checkpoint (record 1000)
# and is killed at least once after it.
QUICK_WORLD = WorldSpec(n_tier2=10, n_stub=40, n_peers=12, collectors=2,
                        beacon_hours=6, horizon_days=6, n_transient=1,
                        n_persistent=2)


@dataclass
class World:
    """One built world: what the collectors recorded, plus the schedule
    ground truth the detectors need."""

    spec: WorldSpec
    ases: int
    sim_events: int
    records: list[Record]
    dumps: list[RibDump]
    intervals: list[BeaconInterval]

    @property
    def start(self) -> int:
        # One hour of lead-in, as the campaign runs do: the world's
        # start_time, so session-up records are inside the window.
        return self.spec.start - HOUR

    @property
    def final_withdrawals(self) -> dict[Prefix, int]:
        out: dict[Prefix, int] = {}
        for interval in self.intervals:
            if not interval.discarded:
                out[interval.prefix] = max(out.get(interval.prefix, 0),
                                           interval.withdraw_time)
        return out


def _no_timer(name: str, fn: Callable[[], Any]) -> Any:
    return fn()


def build_world(seed: int, spec: WorldSpec,
                timed: Callable[[str, Callable[[], Any]], Any] = _no_timer
                ) -> World:
    """Topology → BGPWorld + taps + beacons + faults → run → RIB dumps.

    ``timed(name, fn)`` is called for every slice of real work, so the
    sim leg can time (and calibrate around) each one; the default just
    runs them.
    """
    # The AS graph and the peer set are the same for every seed: records
    # per simulated event depend on where the peers sit, and what moves
    # a metric with the seed is spread the driver charges to the metric.
    # The seed picks the fault plan and every link delay and jitter draw.
    structure = random.Random(STRUCTURE_SEED)
    rng = random.Random(seed)
    topology = timed("topology.build", lambda: build_internet(TopologyConfig(
        seed=STRUCTURE_SEED, n_tier2=spec.n_tier2, n_stub=spec.n_stub)))

    def assemble() -> tuple[BGPWorld, list[BeaconInterval]]:
        campaign = PaperCampaign()
        intervals = list(campaign.intervals(spec.start, spec.end))
        candidates = [asn for asn in topology.asns() if asn >= 50000]
        chosen = sorted(structure.sample(
            candidates, k=min(spec.n_peers, len(candidates))))
        peers = PeerRegistry()
        for index, asn in enumerate(chosen):
            peers.add(RISPeer(f"rrc{index % spec.collectors:02d}",
                              f"2001:db8:{asn & 0xffff:x}:{index:x}::1", asn))
        plan = FaultPlan()
        faulty = [asn for asn in chosen if topology.providers(asn)]
        slots = rng.sample([i for i in intervals if not i.discarded],
                           k=spec.n_transient + spec.n_persistent)
        for index, interval in enumerate(slots):
            asn = rng.choice(faulty)
            provider = rng.choice(topology.providers(asn))
            window = (interval.withdraw_time - 60,
                      interval.withdraw_time + HOUR)
            if index < spec.n_transient:
                plan.add_link_fault(WithdrawalDelay(
                    src=provider, dst=asn, start=window[0], end=window[1],
                    prefixes=frozenset({interval.prefix}),
                    delay=rng.uniform(95, 185) * MINUTE))
            else:
                plan.add_link_fault(WithdrawalSuppression(
                    src=provider, dst=asn, start=window[0], end=window[1],
                    prefixes=frozenset({interval.prefix})))
                cure = interval.withdraw_time + rng.uniform(
                    0.3, spec.horizon_days * 0.8) * DAY
                plan.add_session_reset(SessionResetEvent(
                    time=cure, a=provider, b=asn, downtime=5.0))
        world = BGPWorld(topology, seed=seed + 1, fault_plan=plan,
                         start_time=spec.start - HOUR)
        world.attach_taps(peers)
        world.schedule_beacon_events(campaign.events(spec.start, spec.end))
        return world, intervals

    world, intervals = timed("simulator.assemble", assemble)

    sim_events = 0
    instant = spec.start
    while instant < spec.end + 4 * HOUR:
        instant += spec.step_seconds
        sim_events += timed("simulator.run",
                            lambda: world.run_until(instant))
    sim_events += timed("simulator.run",
                        lambda: world.run_until(spec.horizon))
    records = timed("simulator.run", world.sorted_records)
    dumps = timed("simulator.ribgen", lambda: list(generate_rib_dumps(
        records, spec.start, spec.horizon)))
    return World(spec=spec, ases=len(list(topology.asns())),
                 sim_events=sim_events, records=records, dumps=dumps,
                 intervals=intervals)


def write_archive(world: World, root: Path,
                  timed: Callable[[str, Callable[[], Any]], Any] = _no_timer
                  ) -> int:
    """Write the world's records and dumps as a RIS archive; returns the
    number of files written (update bins + bviews, sidecars excluded)."""
    writer = ArchiveWriter(root)
    by_collector: dict[str, list[Record]] = {}
    for record in world.records:
        by_collector.setdefault(record.collector, []).append(record)
    files = 0
    for collector, items in sorted(by_collector.items()):
        # ~1k records per call keeps each timed slice short.
        for offset in range(0, len(items), 1000):
            chunk = items[offset:offset + 1000]
            files += len(timed("ris.write", lambda: writer.write_updates(
                collector, chunk)))
    for offset in range(0, len(world.dumps), 60):
        chunk = world.dumps[offset:offset + 60]
        timed("ris.write", lambda: [writer.write_rib(d) for d in chunk])
        files += len(chunk)
    return files


def tree_digest(root: Path, suffixes: Optional[tuple[str, ...]] = None
                ) -> tuple[str, int]:
    """sha256 over (relative path, bytes) of every file under ``root``
    in sorted order, and the total byte count."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        if suffixes is not None and not path.name.endswith(suffixes):
            continue
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(data)
        total += len(data)
    return digest.hexdigest(), total


def combine_hashes(parts: dict[str, str]) -> str:
    digest = hashlib.sha256()
    for name in sorted(parts):
        digest.update(f"{name}={parts[name]}\n".encode("utf-8"))
    return digest.hexdigest()


# -- the serving store -----------------------------------------------------

@dataclass(frozen=True)
class StoreSpec:
    """Shape of the event store the serving legs read."""

    events: int
    prefixes: int
    segment_records: int
    #: sealed segments rewritten to ``.colseg`` (the older half); the
    #: rest stay sealed JSONL, plus the active JSONL segment.
    colseg_share: float = 0.5
    #: requests in the seeded URL schedule (legs consume a prefix of it).
    schedule_urls: int = 2000
    #: distinct URLs the schedule draws from (vs the 128-entry caches).
    distinct_urls: int = 400


FULL_STORE = StoreSpec(events=2400, prefixes=200, segment_records=128,
                       colseg_share=0.9)
QUICK_STORE = StoreSpec(events=800, prefixes=60, segment_records=128,
                        schedule_urls=600, distinct_urls=150)


@dataclass
class StoreInfo:
    root: Path
    spec: StoreSpec
    prefixes: list[str]
    outbreak_ids: list[str]
    #: events appended (the next seq) and events the store still holds
    #: after the older part was compacted.
    events: int
    stored: int
    digest: str
    #: generator state the live writer continues from.
    rng_state: Any = field(repr=False, default=None)
    clock: int = 0


_STORE_EPOCH = from_iso("2024-06-17 12:00")
_PEERS = [(f"rrc{index % 6:02d}", f"2001:db8:{0xa0 + index:x}::1",
           64500 + index) for index in range(24)]


def _prefix_name(index: int) -> str:
    return f"2a0d:3dc1:{0x1000 + index:x}::/48"


def _lifespan(rng: random.Random, prefix: str, time: int,
              history: dict[str, dict]) -> dict[str, Any]:
    """The next cumulative lifespan summary for ``prefix`` (the shape
    ``ObservatoryIngest._append_lifespans`` writes)."""
    state = history.setdefault(prefix, {
        "withdraw_time": time - rng.randrange(2, 40) * HOUR,
        "first_seen": time, "segments": 1, "resurrections": 0})
    resurrection = rng.random() < 0.03
    if resurrection:
        state["segments"] += 1
        state["resurrections"] += 1
    collector, address, _ = _PEERS[rng.randrange(len(_PEERS))]
    return {
        "prefix": prefix, "visible": rng.random() < 0.8,
        "started_segment": resurrection, "resurrection": resurrection,
        "peers": [[collector, address]],
        "withdraw_time": state["withdraw_time"],
        "first_seen": state["first_seen"], "last_seen": time,
        "duration_seconds": time - state["withdraw_time"],
        "segment_count": state["segments"],
        "resurrection_count": state["resurrections"],
    }


def _outbreak_pair(rng: random.Random, prefix: str, time: int
                   ) -> tuple[dict[str, Any], dict[str, Any]]:
    """An ``outbreak`` payload and the ``forensics`` snapshot beside it
    (the shapes ``serialise_alert`` / ``forensics_payload`` write)."""
    collector, address, asn = _PEERS[rng.randrange(len(_PEERS))]
    announce = time - 105 * MINUTE
    outbreak = {
        "prefix": prefix, "collector": collector, "peer_address": address,
        "peer_asn": asn, "announce_time": announce,
        "withdraw_time": announce + 15 * MINUTE, "detected_at": time,
        "path": f"{asn} 1299 25091 8298 210312", "stale": False,
    }
    outbreak["id"] = outbreak_id(outbreak)
    peers = []
    for offset in range(rng.randrange(3, 9)):
        p_collector, p_address, p_asn = _PEERS[
            (asn + offset * 5) % len(_PEERS)]
        transit = (1299, 3356, 6939)[offset % 3]
        peers.append({
            "prefix": prefix, "collector": p_collector,
            "peer_address": p_address, "peer_asn": p_asn,
            "path": f"{p_asn} {transit} 25091 8298 210312",
            "announced_at": announce + 5 + offset,
            "withdrawn_at": (None if offset % 3 == 0
                             else announce + 15 * MINUTE + 7 + offset),
            "aggregator_asn": None, "aggregator_address": None,
        })
    forensics = {
        "outbreak_id": outbreak["id"], "prefix": prefix,
        "origin_asn": 210312, "collector": collector,
        "peer_address": address, "peer_asn": asn,
        "announce_time": outbreak["announce_time"],
        "withdraw_time": outbreak["withdraw_time"],
        "detected_at": time, "peers": peers,
    }
    return outbreak, forensics


def _resurrection(rng: random.Random, prefix: str, time: int
                  ) -> dict[str, Any]:
    collector, address, asn = _PEERS[rng.randrange(len(_PEERS))]
    quiet = rng.randrange(120, 400) * MINUTE
    return {"prefix": prefix, "collector": collector,
            "peer_address": address, "peer_asn": asn,
            "withdrawn_at": time - quiet, "resurrected_at": time,
            "quiet_seconds": quiet,
            "path": f"{asn} 4637 1299 25091 8298 210312"}


def _event_stream(rng: random.Random, prefixes: list[str], clock: int,
                  history: dict[str, dict]
                  ) -> Iterator[list[tuple[str, int, dict[str, Any]]]]:
    """Endless stream of append groups in the ISSUE's mix: 80 %
    lifespan, 15 % outbreak+forensics pairs, 5 % resurrection."""
    while True:
        clock += rng.randrange(20, 90)
        roll = rng.random()
        prefix = prefixes[rng.randrange(len(prefixes))]
        if roll < 0.80:
            yield [("lifespan", clock, _lifespan(rng, prefix, clock,
                                                 history))]
        elif roll < 0.95:
            outbreak, forensics = _outbreak_pair(rng, prefix, clock)
            yield [("outbreak", clock, outbreak),
                   ("forensics", clock, forensics)]
        else:
            yield [("resurrection", clock, _resurrection(rng, prefix,
                                                         clock))]


def build_store(seed: int, root: Path, spec: StoreSpec) -> StoreInfo:
    """Write the serving store: ``spec.events`` events over
    ``spec.prefixes`` zombie prefixes, the older sealed segments
    columnar, the newer sealed ones JSONL, one active segment."""
    rng = random.Random(seed ^ 0x5707E)
    prefixes = [_prefix_name(index) for index in range(spec.prefixes)]
    history: dict[str, dict] = {}
    outbreak_ids: list[str] = []
    colseg_events = int(spec.events * spec.colseg_share)
    store = EventStore(root, segment_max_records=spec.segment_records)
    stream = _event_stream(rng, prefixes, _STORE_EPOCH, history)
    clock = _STORE_EPOCH
    compacted = False
    while store.next_seq < spec.events:
        for kind, clock, payload in next(stream):
            store.append(kind, clock, payload)
            if kind == "outbreak":
                outbreak_ids.append(payload["id"])
        if not compacted and store.next_seq >= colseg_events:
            # Everything so far becomes sealed .colseg; later appends
            # open fresh JSONL segments after it.
            store.compact(fmt="columnar")
            compacted = True
    stored = sum(1 for _ in store.events())
    store.close()
    digest, _ = tree_digest(root)
    return StoreInfo(root=root, spec=spec, prefixes=sorted(history),
                     outbreak_ids=outbreak_ids, events=store.next_seq,
                     stored=stored, digest=digest, rng_state=(rng.getstate(), history),
                     clock=clock)


def live_events(info: StoreInfo
                ) -> Iterator[list[tuple[str, int, dict[str, Any]]]]:
    """The writer's append groups for the live phase: same mix, only
    prefixes the store already knows (lifespans for existing zombies)."""
    state, history = info.rng_state
    rng = random.Random()
    rng.setstate(state)
    return _event_stream(rng, info.prefixes, info.clock, history)


# -- the request schedule --------------------------------------------------

#: One block of the read mix: 8 + 4 + 3 + 2 + 2 + 1 = 20 requests, i.e.
#: 40 % /zombies/<prefix>, 20 % /zombies walks, 15 % /outbreaks pages,
#: 10 % /resurrections, 10 % forensics, 5 % repeat-with-ETag.
_BLOCK_MIX = (("zombie", 8), ("walk", 4), ("outbreaks", 3),
              ("resurrections", 2), ("forensics", 2), ("repeat", 1))
#: Non-repeat requests per block sent with If-None-Match (30 %).
_BLOCK_CONDITIONAL = 6
MIX_BLOCK = sum(count for _, count in _BLOCK_MIX)
#: Share of each request kind among the non-repeat requests (a repeat
#: is a request of the kind it repeats).
MIX_WEIGHTS = {kind: count / (MIX_BLOCK - 1)
               for kind, count in _BLOCK_MIX if kind != "repeat"}


def request_kind(target: str) -> str:
    """Which kind of the read mix ``target`` is."""
    if target.startswith("/zombies/"):
        return "zombie"
    if target.startswith("/zombies"):
        return "walk"
    if target.endswith("/forensics"):
        return "forensics"
    if target.startswith("/outbreaks"):
        return "outbreaks"
    return "resurrections"


def url_schedule(seed: int, info: StoreInfo) -> tuple[list[tuple[str, bool]],
                                                      str]:
    """The seeded read mix: ``(target, conditional)`` pairs and their
    sha256.  A ``conditional`` request carries ``If-None-Match`` with
    the ETag the client last saw for that target, if it saw one.

    Every block of 20 requests holds the mix in exact proportion
    (``_BLOCK_MIX``), shuffled: latency differs several-fold between
    request kinds, so a sampled mix would move the median with the
    seed.  Within a kind, targets are drawn Zipf-skewed from a pool, and
    the pools together hold ``spec.distinct_urls`` distinct targets —
    several times the servers' 128-entry rendered-response caches.
    """
    spec = info.spec
    rng = random.Random(seed ^ 0x0A11CE)
    prefixes = info.prefixes
    n = spec.distinct_urls

    def some(items: list[str], share: float) -> list[str]:
        return rng.sample(items, k=min(len(items), max(1, int(n * share))))

    pools = {
        "zombie": [f"/zombies/{_quote(p)}" for p in some(prefixes, 0.50)],
        "walk": ["/zombies?limit=100"] + [
            f"/zombies?limit=100&cursor={_quote(p)}"
            for p in some(prefixes, 0.15)],
        # Recent-favoured: cursors cluster just below the newest seq.
        "outbreaks": ["/outbreaks?limit=100"] + [
            f"/outbreaks?limit=100&cursor={cursor}" for cursor in sorted(
                {max(0, info.events - 1 - int(rng.paretovariate(1.2) * 40))
                 for _ in range(max(1, int(n * 0.15)))}, reverse=True)],
        "resurrections": ["/resurrections?limit=100"] + [
            f"/resurrections?limit=100&prefix={_quote(p)}"
            for p in some(prefixes, 0.08)],
        "forensics": [f"/outbreaks/{_quote(i)}/forensics"
                      for i in some(info.outbreak_ids, 0.12)],
    }
    zipf = {kind: list(accumulate(1.0 / rank
                                  for rank in range(1, len(pool) + 1)))
            for kind, pool in pools.items()}
    schedule: list[tuple[str, bool]] = []
    while len(schedule) < spec.schedule_urls:
        kinds = [kind for kind, count in _BLOCK_MIX for _ in range(count)]
        rng.shuffle(kinds)
        if kinds[0] == "repeat" and not schedule:
            kinds.append(kinds.pop(0))
        plain = [i for i, kind in enumerate(kinds) if kind != "repeat"]
        conditional = set(rng.sample(plain, k=_BLOCK_CONDITIONAL))
        for index, kind in enumerate(kinds):
            if kind == "repeat":
                schedule.append((schedule[-1][0], True))
            else:
                target = rng.choices(pools[kind],
                                     cum_weights=zipf[kind], k=1)[0]
                schedule.append((target, index in conditional))
    digest = hashlib.sha256("\n".join(
        f"{target} {int(cond)}" for target, cond in schedule
    ).encode("utf-8")).hexdigest()
    return schedule, digest


def _quote(text: str) -> str:
    return quote(text, safe="")
