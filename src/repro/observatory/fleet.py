"""Sharded observatory fleet: one ingest+serve worker per shard.

The paper's measurement plane is federated — zombies are detected per
RIS collector and aggregated into one answer.  This module is the shard
side of that split; :mod:`repro.observatory.federation` is the query
tier in front of it.

**Routing.**  :func:`shard_for` hashes an event's prefix with a stable
hash (crc32 — Python's built-in ``hash`` is salted per process and
useless for cross-process routing), so every process — partitioner,
worker, federated query tier — agrees on which shard owns a prefix
without coordination.

**Global seqs.**  Shard stores keep the *source* store's seqs
(``EventStore.append(seq=...)``), holding a gapped-but-ascending subset
of the global stream.  That single decision is what makes federation
honest: merged listings sorted by seq are byte-identical to a
monolithic observatory — including every event's ``seq`` and every
``next_cursor`` — and a pagination cursor is meaningful against any
shard with no translation.  Gapped histories are already first-class in
the store (compaction folds events in place), so nothing downstream
needed to learn anything new.

**Workers.**  A :class:`ShardWorker` tails a source event store
(readonly, through the same :class:`~repro.observatory.store.TailCursor`
the views use), appends the events it owns to its private shard store
seq-preserved, and serves that store through a full
:class:`AsyncObservatoryServer` — views, ETags, pagination, SSE and
all.  Its durable resume point is the shard
store's own ``next_seq``: routing scans the source in ascending seq
order, so everything below the last routed seq has been considered,
and a restarted worker re-scans at most the filtered suffix once.  A
source generation bump (truncate/compact/repair upstream) rebuilds the
shard store from scratch, exactly like the materialized views.

**Fleet.**  :class:`ShardFleet` supervises one worker *subprocess* per
shard — a real process, so ``kill -9`` chaos tests exercise the real
failure — restarting each under its own
:class:`~repro.observatory.restart.RestartPolicy` (the ingest
supervisor's: seeded-jitter exponential backoff, a consecutive-failure
budget), with a healthy/degraded/stalled state per shard and
fleet-wide.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import zlib
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.observatory.asyncserver import AsyncObservatoryServer
from repro.observatory.restart import STATES, RestartPolicy
from repro.observatory.store import EventStore, TailCursor

__all__ = ["ShardFleet", "ShardWorker", "partition_store", "pick_free_port",
           "shard_for", "shard_name"]

SIDECAR_NAME = "shard.json"
#: Seconds between two passes of :class:`ShardFleet`'s monitor loop.
MONITOR_INTERVAL = 0.2


def shard_for(prefix: str, count: int) -> int:
    """Which of ``count`` shards owns ``prefix`` — stable across
    processes and Python versions (crc32, not the salted ``hash``)."""
    if count <= 0:
        raise ValueError("shard count must be positive")
    return zlib.crc32(prefix.encode("utf-8")) % count


def shard_name(index: int) -> str:
    """Canonical shard directory/display name (``shard-00`` ...)."""
    return f"shard-{index:02d}"


def pick_free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (bind-and-release)."""
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _event_payload(event: dict[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in event.items()
            if key not in ("seq", "time", "kind")}


def _routing_key(event: dict[str, Any]) -> str:
    # Every observatory event kind carries a prefix; anything that does
    # not still needs exactly one deterministic owner.
    return event.get("prefix") or ""


def _write_sidecar(root: Path, index: int, count: int,
                   source_generation: Optional[int]) -> None:
    payload = {"version": 1, "index": index, "count": count,
               "source_generation": source_generation}
    tmp = root / (SIDECAR_NAME + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    os.replace(tmp, root / SIDECAR_NAME)


def _read_sidecar(root: Path) -> Optional[dict[str, Any]]:
    path = root / SIDECAR_NAME
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def partition_store(source_root: Union[str, Path],
                    fleet_root: Union[str, Path], count: int) -> list[Path]:
    """Split one event store into ``count`` shard stores under
    ``fleet_root``, routing by prefix hash and preserving every event's
    global seq.  Returns the shard store roots (created even for shards
    that end up empty)."""
    tail = TailCursor(EventStore(source_root, readonly=True))
    tail.poll()
    fleet_root = Path(fleet_root)
    roots = [fleet_root / shard_name(index) for index in range(count)]
    stores = [EventStore(root) for root in roots]
    try:
        for event in tail.read():
            stores[shard_for(_routing_key(event), count)].append(
                event["kind"], event["time"], _event_payload(event),
                seq=event["seq"])
    finally:
        for index, store in enumerate(stores):
            store.close()
            _write_sidecar(roots[index], index, count, tail.generation)
    return roots


class ShardWorker:
    """One shard: tail the source store, keep what it owns, serve it.

    The shard store lives at ``shard_root`` with a ``shard.json``
    sidecar pinning ``(index, count)`` — reopening a shard under a
    different fleet geometry is refused rather than silently served
    wrong — plus the source generation its contents were routed from.
    """

    def __init__(self, source_root: Union[str, Path],
                 shard_root: Union[str, Path], index: int, count: int,
                 host: str = "127.0.0.1", port: int = 0,
                 poll_interval: float = 0.05):
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} out of range for "
                             f"{count} shard(s)")
        self.index = index
        self.count = count
        self.name = shard_name(index)
        self.poll_interval = poll_interval
        self.shard_root = Path(shard_root)
        self.store = EventStore(self.shard_root)
        sidecar = _read_sidecar(self.shard_root)
        if sidecar is not None and (sidecar.get("index") != index
                                    or sidecar.get("count") != count):
            raise ValueError(
                f"{self.shard_root} belongs to shard "
                f"{sidecar.get('index')}/{sidecar.get('count')}, not "
                f"{index}/{count}")
        #: Where this shard is in the source.  The durable resume point
        #: is the shard store's own next_seq: a restart re-scans at
        #: most the filtered suffix once, never routes a duplicate.
        self._tail = TailCursor(
            EventStore(source_root, readonly=True),
            sidecar.get("source_generation") if sidecar is not None else None,
            self.store.next_seq)
        self.server = AsyncObservatoryServer(self.store, host=host,
                                             port=port)
        self.server.healthz_extra = {
            "shard": {"name": self.name, "index": index, "count": count}}
        self.events_routed = 0
        self.rebuilds = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- routing ----------------------------------------------------------

    def sync_once(self) -> int:
        """One tail pass: route everything new; returns events appended."""
        if self._tail.poll():
            # History behind us was rewritten upstream: rebuild, exactly
            # like the materialized views on a generation bump.
            if self.store.next_seq:
                self.store.truncate(0)
                self.rebuilds += 1
            _write_sidecar(self.shard_root, self.index, self.count,
                           self._tail.generation)
        appended = 0
        for event in self._tail.read():
            if shard_for(_routing_key(event), self.count) == self.index:
                self.store.append(event["kind"], event["time"],
                                  _event_payload(event), seq=event["seq"])
                appended += 1
        if appended:
            self.store.sync()
            self.events_routed += appended
        return appended

    def _tail_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.sync_once()
            except FileNotFoundError:
                pass  # source mid-rewrite: retry next pass
            self._stop.wait(self.poll_interval)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ShardWorker":
        self.server.start()
        self._thread = threading.Thread(target=self._tail_loop,
                                        name=f"{self.name}-tail", daemon=True)
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.server.stop()
        self.store.close()

    def run_forever(self) -> int:
        """Foreground mode (the ``fleet worker`` subprocess entry):
        serve until SIGTERM/SIGINT, then drain and exit 0."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: self._stop.set())
        self.start()
        print(f"{self.name} serving {self.shard_root} on {self.server.url} "
              f"({self.index + 1}/{self.count})", flush=True)
        while not self._stop.is_set():
            # signal.sigwait would miss KeyboardInterrupt on some
            # platforms; a polled Event is portable and cheap.
            self._stop.wait(0.2)
        self.stop()
        return 0


class ShardFleet:
    """Supervise one :class:`ShardWorker` subprocess per shard.

    Workers are real processes (``python -m repro observatory fleet
    worker ...``), so a ``kill -9`` in a chaos test dies the way a
    production worker dies.  The monitor loop restarts dead workers
    when their :class:`RestartPolicy` says so — exponential backoff
    with seeded jitter, giving up on a shard after ``max_restarts``
    consecutive failures — and reports the shared health vocabulary:

    ``healthy``   every worker running, no restarts;
    ``degraded``  forward progress, but restarts happened (or a worker
                  is between death and its scheduled restart);
    ``stalled``   a shard exhausted its restart budget (or restarts are
                  held) and is down.
    """

    def __init__(self, source_root: Union[str, Path],
                 fleet_root: Union[str, Path], shards: int = 3,
                 host: str = "127.0.0.1",
                 ports: Optional[list[int]] = None,
                 poll_interval: float = 0.05,
                 backoff: float = 0.2, backoff_cap: float = 5.0,
                 jitter: float = 0.2, seed: int = 0,
                 max_restarts: int = 5,
                 python: str = sys.executable,
                 clock: Callable[[], float] = time.monotonic):
        if shards <= 0:
            raise ValueError("need at least one shard")
        self.source_root = Path(source_root)
        self.fleet_root = Path(fleet_root)
        self.shards = shards
        self.host = host
        self.poll_interval = poll_interval
        self.python = python
        self._clock = clock
        rng = random.Random(seed)  # one jitter stream for the whole fleet
        self._policies = [RestartPolicy(backoff, backoff_cap, jitter,
                                        max_restarts, rng)
                          for _ in range(shards)]
        self.ports = list(ports) if ports is not None else [
            pick_free_port(host) for _ in range(shards)]
        if len(self.ports) != shards:
            raise ValueError("need one port per shard")
        #: Chaos hook: with auto_restart False the monitor observes
        #: deaths but never respawns (tests hold a shard down, assert
        #: partial answers, then flip it back on).
        self.auto_restart = True
        self.restarts = [0] * shards
        self._procs: list[Optional[subprocess.Popen]] = [None] * shards
        self._last_ok: list[Optional[float]] = [None] * shards
        self._stopping = False
        self._monitor: Optional[threading.Thread] = None
        self._wake = threading.Event()

    # -- addressing -------------------------------------------------------

    def shard_root(self, index: int) -> Path:
        return self.fleet_root / shard_name(index)

    def shard_url(self, index: int) -> str:
        return f"http://{self.host}:{self.ports[index]}"

    def shard_urls(self) -> list[str]:
        return [self.shard_url(index) for index in range(self.shards)]

    # -- lifecycle --------------------------------------------------------

    def _spawn(self, index: int) -> subprocess.Popen:
        self.fleet_root.mkdir(parents=True, exist_ok=True)
        log_path = self.fleet_root / f"{shard_name(index)}.log"
        env = os.environ.copy()
        src = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        with open(log_path, "ab") as log:
            return subprocess.Popen(
                [self.python, "-m", "repro", "observatory", "fleet",
                 "worker", str(self.source_root),
                 str(self.shard_root(index)),
                 "--index", str(index), "--count", str(self.shards),
                 "--host", self.host, "--port", str(self.ports[index]),
                 "--poll-interval", str(self.poll_interval)],
                stdout=log, stderr=subprocess.STDOUT, env=env)

    def start(self) -> "ShardFleet":
        for index in range(self.shards):
            self._procs[index] = self._spawn(index)
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="fleet-monitor", daemon=True)
        self._monitor.start()
        return self

    def _monitor_loop(self) -> None:
        while not self._stopping:
            now = self._clock()
            for index, policy in enumerate(self._policies):
                if self._alive(index):
                    if self._probe(index):
                        self._last_ok[index] = now
                        policy.progressed()
                    continue
                if policy.gave_up or not self.auto_restart:
                    continue
                if policy.restart_at is None:
                    policy.failed(now)  # schedules the restart, or gives up
                if policy.due(now):
                    self._procs[index] = self._spawn(index)
                    self.restarts[index] += 1
            self._wake.wait(MONITOR_INTERVAL)

    def _alive(self, index: int) -> bool:
        proc = self._procs[index]
        return proc is not None and proc.poll() is None

    def _probe(self, index: int) -> bool:
        try:
            with urllib.request.urlopen(
                    self.shard_url(index) + "/healthz", timeout=1.0) as resp:
                return resp.status == 200
        except (urllib.error.URLError, OSError, ValueError):
            return False

    def kill(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Chaos helper: signal one worker (default SIGKILL)."""
        proc = self._procs[index]
        if proc is not None and proc.poll() is None:
            proc.send_signal(sig)
            proc.wait(timeout=10)

    def stop(self) -> None:
        self._stopping = True
        self._wake.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10)
            self._monitor = None
        for proc in self._procs:
            if proc is not None and proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 10
        for proc in self._procs:
            if proc is None:
                continue
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)

    # -- health -----------------------------------------------------------

    def shard_state(self, index: int) -> str:
        alive = self._alive(index)
        return self._policies[index].state(
            stalled=not alive and not self.auto_restart,
            degraded=not alive or self.restarts[index] > 0)

    @property
    def state(self) -> str:
        states = [self.shard_state(index) for index in range(self.shards)]
        return max(states, key=STATES.index)

    def stats(self) -> dict[str, Any]:
        """Fleet-wide counters for the federated ``/healthz``."""
        now = self._clock()
        shards = []
        for index in range(self.shards):
            proc = self._procs[index]
            last_ok = self._last_ok[index]
            shards.append({
                "name": shard_name(index),
                "state": self.shard_state(index),
                "url": self.shard_url(index),
                "pid": proc.pid if proc is not None else None,
                "alive": self._alive(index),
                "restarts": self.restarts[index],
                "gave_up": self._policies[index].gave_up,
                "last_ok_age_seconds": (max(0.0, now - last_ok)
                                        if last_ok is not None else None),
            })
        return {"state": self.state, "shard_count": self.shards,
                "restarts": sum(self.restarts), "shards": shards}
