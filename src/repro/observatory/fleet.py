"""Sharded observatory fleet: one serve worker per shard.

The paper's measurement plane is federated — zombies are detected per
RIS collector and aggregated into one answer, all from one archive.
This module is the shard side of that split;
:mod:`repro.observatory.federation` is the query tier in front of it.

**Routing.**  :func:`~repro.observatory.views.shard_for` hashes an
event's prefix with a stable hash (crc32 — Python's built-in ``hash``
is salted per process and useless for cross-process routing), so every
process — worker, federated query tier — agrees on which shard owns a
prefix without coordination.

**One store.**  A shard is a filtered read of the one event store, not
a copy of it: a :class:`ShardWorker` opens the source store readonly
and serves it through a full :class:`AsyncObservatoryServer` built with
``shard=(index, count)``, whose materialized views fold only the events
the shard owns.  Seqs, cursors, generations and ETag positions are the
store's own by construction, so merged listings are byte-identical to
a monolithic observatory, a pagination cursor is meaningful against
any shard, and a single-owner answer carries the monolith's ETag.  A
worker has no state to resume: a restarted one rebuilds its views from
the store, exactly like the monolith after a generation bump.

**Fleet.**  :class:`ShardFleet` supervises one worker *subprocess* per
shard — a real process, so ``kill -9`` chaos tests exercise the real
failure — restarting each under its own
:class:`~repro.observatory.restart.RestartPolicy` (the ingest
supervisor's: seeded-jitter exponential backoff, a consecutive-failure
budget), with a healthy/degraded/stalled state per shard and
fleet-wide.  Shards split serving memory and failure domains, not
storage.
"""

from __future__ import annotations

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
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.observatory.asyncserver import AsyncObservatoryServer
from repro.observatory.restart import STATES, RestartPolicy
from repro.observatory.store import EventStore
from repro.observatory.views import shard_name

__all__ = ["ShardFleet", "ShardWorker", "partition_store", "pick_free_port"]

#: Seconds between two passes of :class:`ShardFleet`'s monitor loop.
MONITOR_INTERVAL = 0.2
#: Restart jitter (seconds, times a draw from one RNG seeded with
#: ``JITTER_SEED`` for the whole fleet), and the consecutive crashes a
#: shard may have before the fleet gives up on it.
JITTER, JITTER_SEED, MAX_RESTARTS = 0.2, 0, 5
#: The shortest cap on one restart delay, in seconds.
MIN_BACKOFF_CAP = 5.0


def pick_free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (bind-and-release)."""
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def partition_store(source_root: Union[str, Path],
                    fleet_root: Union[str, Path], count: int) -> Path:
    """Prepare ``fleet_root`` for a ``count``-shard fleet over
    ``source_root``.  Shards read the source store themselves, so
    nothing is copied: this checks ``count`` and creates the directory
    the workers log into.  Returns ``fleet_root``."""
    if count <= 0:
        raise ValueError("need at least one shard")
    fleet_root = Path(fleet_root)
    fleet_root.mkdir(parents=True, exist_ok=True)
    return fleet_root


class ShardWorker:
    """One shard: serve the slice of the source store it owns.

    The worker has no store of its own — its server reads the source
    store readonly on every request and folds only this shard's
    prefixes into its views.
    """

    def __init__(self, source_root: Union[str, Path], index: int,
                 count: int, host: str = "127.0.0.1", port: int = 0):
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} out of range for "
                             f"{count} shard(s)")
        self.index = index
        self.count = count
        self.name = shard_name(index)
        self.source_root = Path(source_root)
        self.server = AsyncObservatoryServer(
            EventStore(self.source_root, readonly=True), host=host,
            port=port, shard=(index, count))
        self._stop = threading.Event()

    def start(self) -> "ShardWorker":
        self.server.start()
        return self

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self) -> None:
        self.server.stop()
        self.server.store.close()

    def run_forever(self) -> int:
        """Foreground mode (the ``fleet worker`` subprocess entry):
        serve until SIGTERM/SIGINT, then drain and exit 0."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: self._stop.set())
        self.start()
        print(f"{self.name} serving {self.source_root} on "
              f"{self.server.url} ({self.index + 1}/{self.count})",
              flush=True)
        while not self._stop.is_set():
            # signal.sigwait would miss KeyboardInterrupt on some
            # platforms; a polled Event is portable and cheap.
            self._stop.wait(0.2)
        self.stop()
        return 0


class ShardFleet:
    """Supervise one :class:`ShardWorker` subprocess per shard.

    Workers are real processes (``python -m repro observatory fleet
    worker ...``, on this interpreter), so a ``kill -9`` in a chaos
    test dies the way a production worker dies.  The monitor loop
    restarts dead workers when their :class:`RestartPolicy` says so —
    exponential backoff from ``backoff`` seconds, capped at
    ``max(MIN_BACKOFF_CAP, backoff)``, with seeded jitter, giving up on
    a shard after :data:`MAX_RESTARTS` consecutive failures — and
    reports the shared health vocabulary:

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
                 backoff: float = 0.2,
                 clock: Callable[[], float] = time.monotonic):
        if shards <= 0:
            raise ValueError("need at least one shard")
        self.source_root = Path(source_root)
        self.fleet_root = Path(fleet_root)
        self.shards = shards
        self.host = host
        self._clock = clock
        rng = random.Random(JITTER_SEED)  # one jitter stream for the fleet
        self._policies = [RestartPolicy(backoff,
                                        max(MIN_BACKOFF_CAP, backoff),
                                        JITTER, MAX_RESTARTS, rng)
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
                [sys.executable, "-m", "repro", "observatory", "fleet",
                 "worker", str(self.source_root),
                 "--index", str(index), "--count", str(self.shards),
                 "--host", self.host, "--port", str(self.ports[index])],
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

    def _shard_stats(self, index: int, now: float) -> dict[str, Any]:
        proc = self._procs[index]
        last_ok = self._last_ok[index]
        return {
            "name": shard_name(index),
            "state": self.shard_state(index),
            "url": self.shard_url(index),
            "pid": proc.pid if proc is not None else None,
            "alive": self._alive(index),
            "restarts": self.restarts[index],
            "gave_up": self._policies[index].gave_up,
            "last_ok_age_seconds": (max(0.0, now - last_ok)
                                    if last_ok is not None else None),
        }

    def stats(self) -> dict[str, Any]:
        """Fleet-wide counters for the federated ``/healthz``."""
        now = self._clock()
        return {"state": self.state, "shard_count": self.shards,
                "restarts": sum(self.restarts),
                "shards": [self._shard_stats(index, now)
                           for index in range(self.shards)]}
