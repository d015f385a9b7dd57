"""The serving legs: system-under-test processes and the load generator.

Servers run as real subprocesses through the public CLI (``python -m
repro observatory serve`` / ``observatory fleet serve``), pinned to the
system-under-test CPU together with the kernel helper; the generator is
this process — one asyncio loop, raw HTTP/1.1 over at most two
keep-alive connections (``ObservatoryClient``'s ETag cache would hide
the server), pinned to the other CPU.

Two legs share one event loop:

* :func:`static_leg` — the store is static; a closed loop on one
  connection alternates blocks of the seeded URL sequence between the
  monolith and the 3-shard federation edge and compares their bodies;
* :func:`live_leg` — the generator owns the writer ``EventStore`` and
  appends on a Poisson schedule while it reads the mix open-loop (timed
  from the due time) and then closed-loop on two connections, with one
  SSE subscriber on ``/stream/events`` throughout.

The kernel helper is asked for one kernel time before every block and
never runs while requests or appends are in flight.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import random
import re
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.observatory import EventStore, ObservatoryApp

from common import Context, Outcome
from inproc import Leg
from kernel import REF_KERNEL_MS
from stats import median, percentile, summary
from worlds import (MIX_BLOCK, MIX_WEIGHTS, StoreInfo, live_events,
                    request_kind)

__all__ = ["Servers", "Helper", "Http", "Calibration", "StaticLeg",
           "LiveSession", "OpenLeg", "ClosedLeg", "scrape_metrics",
           "wait_ready"]

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
HOST = "127.0.0.1"

#: Requests of the schedule the static leg cycles over (two blocks of
#: the mix; fewer distinct URLs than the 128-entry caches hold).
STATIC_URLS = 40
#: Open-loop request rate (requests/s) and append rate (groups/s).
OPEN_RATE = 25.0
APPEND_RATE = 60.0
#: Nominal wall seconds of one live round.  The live legs run a number
#: of rounds fixed by ``--seconds``, not by the clock: the store grows
#: with every append and reads slow down with it, so the k-th round
#: must see the same store on every host.
OPEN_ROUND_SECONDS = 20 / OPEN_RATE + 0.1
CLOSED_ROUND_SECONDS = 0.3
#: A request slower than this is a failure, not a latency sample.
REQUEST_TIMEOUT = 10.0


# -- processes -------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def _cpu_seconds(pid: int) -> float:
    """On-CPU seconds of every thread of one live process, from the
    scheduler's own nanosecond accounting (``utime``/``stime`` are
    sampled at 10 ms ticks: too coarse for a block of requests)."""
    total = 0
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/schedstat",
                      encoding="ascii") as handle:
                total += int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        pass
    return total / 1e9


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if int(fields[1]) == pid:
                out.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue
    return out


def _child_setup(cpus: set[int]):
    """``preexec_fn`` for a child: run on ``cpus`` (all of ours, or the
    one it is pinned to) and die with the benchmark — should the
    benchmark be killed outright, the kernel sends the child SIGTERM."""
    def setup() -> None:
        if cpus:
            os.sched_setaffinity(0, cpus)
        try:
            ctypes.CDLL(None, use_errno=True).prctl(
                1, signal.SIGTERM)  # PR_SET_PDEATHSIG
        except (OSError, AttributeError):
            pass
    return setup


class Servers:
    """The system-under-test processes of one run."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self._procs: dict[str, subprocess.Popen] = {}
        self._keepers: list[subprocess.Popen] = []
        self.ports: dict[str, int] = {}

    def _spawn(self, name: str, argv: list[str]) -> None:
        env = os.environ.copy()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + existing if existing else "")
        log = open(self.ctx.workdir / f"{name}.log", "ab")
        try:
            # Unpinned while it starts (the generator only waits, so
            # both CPUs are free); pin() confines it before measuring.
            self._procs[name] = subprocess.Popen(
                [sys.executable, *argv], env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                preexec_fn=_child_setup(
                    {self.ctx.gen_cpu, self.ctx.sut_cpu} - {None}))
        finally:
            log.close()

    def pin(self) -> None:
        """Confine every thread of every server process (and of the
        fleet's shard workers) to the system-under-test CPU."""
        cpu = self.ctx.sut_cpu
        if cpu is None:
            return
        for proc in self._procs.values():
            for pid in [proc.pid, *_children(proc.pid)]:
                try:
                    for tid in os.listdir(f"/proc/{pid}/task"):
                        os.sched_setaffinity(int(tid), {cpu})
                except (OSError, ValueError):
                    continue  # exited, or no /proc: stays unpinned

    def start_monolith(self, store_root: Path) -> None:
        self.ports["monolith"] = _free_port()
        self._spawn("monolith", [
            "-m", "repro", "observatory", "serve", str(store_root),
            "--host", HOST, "--port", str(self.ports["monolith"])])

    def start_fleet(self, store_root: Path, fleet_root: Path,
                    shards: int) -> None:
        self.ports["fleet"] = _free_port()
        self._spawn("fleet", [
            "-m", "repro", "observatory", "fleet", "serve", str(store_root),
            str(fleet_root), "--shards", str(shards), "--host", HOST,
            "--port", str(self.ports["fleet"])])

    async def wait_fleet(self, fleet_root: Path, shards: int,
                         timeout: float = 60.0) -> None:
        """Ready when every shard worker has logged its listening line
        and the edge then reports ``ok``.  The edge is not polled before
        its shards are up: a ``/healthz`` scatter that finds them down
        trips their circuit breakers, which stay open for five seconds."""
        deadline = time.perf_counter() + timeout
        logs = [fleet_root / f"shard-{index:02d}.log"
                for index in range(shards)]
        while not all(log.exists() and b" serving " in log.read_bytes()
                      for log in logs):
            if time.perf_counter() > deadline or not self.alive("fleet"):
                raise RuntimeError("the shard fleet never came up")
            await asyncio.sleep(0.03)
        await wait_ready(self.ports["fleet"],
                         timeout=deadline - time.perf_counter())

    def start_keep_awake(self) -> None:
        """One idle-class spinner per CPU we use (see keepawake.py)."""
        for cpu in sorted({self.ctx.gen_cpu, self.ctx.sut_cpu} - {None}):
            self._keepers.append(subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "keepawake.py"), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.DEVNULL))

    def pid(self, name: str) -> int:
        return self._procs[name].pid

    def alive(self, name: str) -> bool:
        return name in self._procs and self._procs[name].poll() is None

    def cpu_seconds(self, name: str, children: bool = False) -> float:
        pid = self.pid(name)
        if children:
            return sum(_cpu_seconds(child) for child in _children(pid))
        return _cpu_seconds(pid)

    def stop(self, name: str) -> None:
        proc = self._procs.pop(name, None)
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)

    def stop_all(self) -> None:
        """Stop every server process (the keep-awake ones stay)."""
        for name in list(self._procs):
            self.stop(name)

    def stop_keep_awake(self) -> None:
        for keeper in self._keepers:
            keeper.terminate()
            keeper.wait(timeout=15)
        self._keepers.clear()

    @staticmethod
    def peak_child_rss_mb() -> float:
        """Largest peak RSS among every reaped descendant (the fleet
        edge reaps its shard workers, so they count)."""
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Helper:
    """The pinned kernel helper process (``python kernel.py``)."""

    def __init__(self, ctx: Context):
        self._ctx = ctx
        self._proc: Optional[asyncio.subprocess.Process] = None
        self.samples_ms: list[float] = []

    async def start(self) -> None:
        cpu = self._ctx.sut_cpu
        self._proc = await asyncio.create_subprocess_exec(
            sys.executable, str(BENCH_DIR / "kernel.py"),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            preexec_fn=_child_setup({cpu} - {None}))
        await self.probe()  # first answer proves it is up and warm

    async def probe(self) -> float:
        """Kernel CPU milliseconds on the system-under-test CPU, now."""
        assert self._proc is not None and self._proc.stdin is not None \
            and self._proc.stdout is not None
        self._proc.stdin.write(b"k\n")
        await self._proc.stdin.drain()
        line = await self._proc.stdout.readline()
        cpu_ms = float(line.split()[0])
        self.samples_ms.append(cpu_ms)
        return cpu_ms

    async def stop(self) -> None:
        if self._proc is None:
            return
        assert self._proc.stdin is not None
        self._proc.stdin.write(b"quit\n")
        try:
            await self._proc.stdin.drain()
            await asyncio.wait_for(self._proc.wait(), timeout=10)
        except (asyncio.TimeoutError, ConnectionError):
            self._proc.kill()
            await self._proc.wait()
        self._proc = None


# -- HTTP ------------------------------------------------------------------

class Http:
    """One keep-alive HTTP/1.1 connection, GET only."""

    def __init__(self, port: int):
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Http":
        self._reader, self._writer = await asyncio.open_connection(
            HOST, self.port)
        return self

    async def get(self, target: str, etag: Optional[str] = None
                  ) -> tuple[int, dict[str, str], bytes]:
        assert self._reader is not None and self._writer is not None
        lines = [f"GET {target} HTTP/1.1", f"Host: {HOST}:{self.port}"]
        if etag is not None:
            lines.append(f"If-None-Match: {etag}")
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await self._writer.drain()
        head = await self._reader.readuntil(b"\r\n\r\n")
        status, headers = _parse_head(head)
        length = int(headers.get("content-length", "0") or "0")
        body = await self._reader.readexactly(length) if length else b""
        return status, headers, body

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = None


def _parse_head(head: bytes) -> tuple[int, dict[str, str]]:
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(None, 2)[1])
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return status, headers


async def wait_ready(port: int, want_status_ok: bool = True,
                     timeout: float = 60.0) -> None:
    """Poll ``/healthz`` until the server answers 200 with status ok."""
    deadline = time.perf_counter() + timeout
    while True:
        try:
            conn = await Http(port).open()
            try:
                status, _, body = await asyncio.wait_for(
                    conn.get("/healthz"), timeout=5.0)
            finally:
                await conn.close()
            if status == 200 and (not want_status_ok
                                  or b'"status": "ok"' in body):
                return
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            pass
        if time.perf_counter() > deadline:
            raise RuntimeError(f"server on port {port} never became ready")
        await asyncio.sleep(0.03)


_METRIC_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


async def scrape_metrics(port: int) -> dict[str, float]:
    """``/metrics`` as ``{name: value}``; labelled series are summed."""
    conn = await Http(port).open()
    try:
        _, _, body = await conn.get("/metrics")
    finally:
        await conn.close()
    out: dict[str, float] = {}
    for line in body.decode("utf-8").splitlines():
        match = _METRIC_LINE.match(line)
        if match:
            try:
                out[match.group(1)] = out.get(match.group(1), 0.0) \
                    + float(match.group(3))
            except ValueError:
                continue
    return out


class _Requester:
    """Issues one schedule entry on one connection and books the result:
    a checked response yields a latency sample, anything else a failure
    that contributes none."""

    def __init__(self, out: Outcome, label: str):
        self.out = out
        self.label = label
        self.etags: dict[str, str] = {}
        self.bodies: dict[str, bytes] = {}
        self.statuses: dict[int, int] = {}
        self.bytes_in = 0

    async def issue(self, conn: Http, target: str, conditional: bool
                    ) -> Optional[tuple[int, dict[str, str], bytes]]:
        etag = self.etags.get(target) if conditional else None
        try:
            status, headers, body = await asyncio.wait_for(
                conn.get(target, etag), timeout=REQUEST_TIMEOUT)
        except (OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ValueError) as exc:
            self.out.check(False, f"{self.label} GET {target}: "
                                  f"{type(exc).__name__}: {exc}")
            return None
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.bytes_in += len(body)
        ok = status == 200 or (status == 304 and etag is not None)
        if not self.out.check(ok, f"{self.label} GET {target}: HTTP "
                                  f"{status}"):
            return None
        if "etag" in headers:
            self.etags[target] = headers["etag"]
        if status == 200:
            self.bodies[target] = body
        return status, headers, body


# -- static leg ------------------------------------------------------------

class Calibration:
    """Kernel samples around blocks of requests: the sample that closes
    one block opens the next when they run back to back."""

    def __init__(self, helper: Helper):
        self._helper = helper
        self._sample: Optional[float] = None
        self._taken = float("-inf")

    async def opening(self) -> float:
        if time.perf_counter() - self._taken > 0.005:
            await self.closing()
        assert self._sample is not None
        return self._sample

    async def closing(self) -> float:
        self._sample = await self._helper.probe()
        self._taken = time.perf_counter()
        return self._sample


def mix_weighted_median(samples: list[tuple[str, float]]) -> float:
    """One latency for one block of the mix: the median of each request
    kind, weighted by the kind's share of the mix.

    The kinds cost 1 ms to 40 ms, so the plain median of a block sits in
    the gap between two kinds and jumps from one to the other with a
    single sample, and a plain mean moves 10 % with every preemption
    that lands on one request.  Every block holds the mix in exact
    proportion, so the weights are constants."""
    by_kind: dict[str, list[float]] = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    total = sum(MIX_WEIGHTS[kind] for kind in by_kind)
    return sum(MIX_WEIGHTS[kind] / total * median(values)
               for kind, values in by_kind.items())


class StaticLeg(Leg):
    """Closed loop, one connection, on the static store: the first
    ``STATIC_URLS`` requests of the schedule, monolith then federation,
    round after round.

    The first round (``start``) is cold — every rendered-response cache
    misses — and is reported on its own; the later rounds find every
    cache warm (the working set is smaller than the 128-entry caches),
    so their latency is what the transport and the federation hop cost:
    the number ``fed_read_p50_ms`` gates, as the median over rounds of
    the round's :func:`mix_weighted_median`.  Every federated body must be
    byte-identical to the monolith's and carry no
    ``X-Observatory-Partial``."""

    name = "static"
    minimum = 3

    def __init__(self, ctx: Context, out: Outcome, servers: Servers,
                 calibration: Calibration,
                 schedule: list[tuple[str, bool]]):
        super().__init__(ctx, out)
        self.servers = servers
        self.calibration = calibration
        self.urls = schedule[:STATIC_URLS]
        self.sides = {"monolith": _Requester(out, "monolith"),
                      "federation": _Requester(out, "federation")}
        self.conns: dict[str, Http] = {}
        #: per side: the normalised / wall latency of each warm round
        #: (its mix-weighted median), and every warm sample.
        self.round_norm: dict[str, list[float]] = {
            "monolith": [], "federation": []}
        self.round_wall: dict[str, list[float]] = {
            "monolith": [], "federation": []}
        self.samples: dict[str, list[float]] = {
            "monolith": [], "federation": []}
        self.cold: dict[str, list[float]] = {}

    async def start(self) -> None:
        servers = self.servers
        self.conns = {
            "monolith": await Http(servers.ports["monolith"]).open(),
            "federation": await Http(servers.ports["fleet"]).open()}
        self.cpu_before = {
            "edge": servers.cpu_seconds("fleet"),
            "shards": servers.cpu_seconds("fleet", children=True)}
        self.metrics_before = await scrape_metrics(servers.ports["fleet"])
        self.cold, _ = await self._round()

    async def _round(self) -> tuple[dict[str, list[float]],
                                    dict[str, list[float]]]:
        """The URL set once on each side; (normalised, wall) latencies."""
        normalised: dict[str, list[float]] = {}
        wall: dict[str, list[float]] = {}
        mono = self.sides["monolith"]
        for label, side in self.sides.items():
            opening = await self.calibration.opening()
            timings = []
            for target, conditional in self.urls:
                t0 = time.perf_counter()
                answer = await side.issue(self.conns[label], target,
                                          conditional)
                elapsed = (time.perf_counter() - t0) * 1e3
                if answer is None:
                    continue
                status, headers, body = answer
                if side is not mono:
                    partial = "x-observatory-partial" in headers
                    same = (status != 200
                            or mono.bodies.get(target) in (None, body))
                    if not self.out.check(
                            same and not partial,
                            f"federation GET {target}: "
                            + ("partial answer" if partial else
                               "body differs from the monolith's")):
                        continue
                timings.append(elapsed)
            factor = REF_KERNEL_MS / (
                (opening + await self.calibration.closing()) / 2.0)
            normalised[label] = [t * factor for t in timings]
            wall[label] = timings
        return normalised, wall

    async def step(self) -> None:
        self.rounds += 1
        self.ctx.tracer.group = f"static#{self.rounds}"
        normalised, wall = await self._round()
        kinds = [request_kind(target) for target, _ in self.urls]
        for label, values in normalised.items():
            if len(values) == len(self.urls):
                self.samples[label] += values
                self.round_norm[label].append(
                    mix_weighted_median(list(zip(kinds, values))))
                self.round_wall[label].append(
                    mix_weighted_median(list(zip(kinds, wall[label]))))

    async def finish(self) -> None:
        out, servers, tracer = self.out, self.servers, self.ctx.tracer
        for conn in self.conns.values():
            await conn.close()
        after = await scrape_metrics(servers.ports["fleet"])
        fed, mono = self.round_norm["federation"], self.round_norm["monolith"]
        if fed:
            out.metrics["fed_read_p50_ms"] = median(fed)
            out.raw["fed_read_p50_ms"] = median(
                self.round_wall["federation"])
        out.details["static"] = {
            "loop": f"closed, 1 connection, {len(self.urls)} URLs per "
                    "round, monolith then federation",
            "warm_rounds": self.rounds,
            "distinct_urls": len({target for target, _ in self.urls}),
            "warm_round_norm_ms": {"monolith": mono, "federation": fed},
            "warm_norm_ms": {label: summary(values)
                             for label, values in self.samples.items()},
            "cold_norm_ms": {label: summary(values)
                             for label, values in self.cold.items()},
            "statuses": {label: side.statuses
                         for label, side in self.sides.items()}}
        reads = len(self.samples["federation"]) + len(
            self.cold.get("federation", []))
        tracer.count("static.reads", reads)
        tracer.count("static.monolith_ms", median(mono) if mono else 0.0)
        cold = self.cold
        if cold.get("monolith") and cold.get("federation"):
            tracer.count("static.cold_overhead_x",
                         (sum(cold["federation"]) / len(cold["federation"]))
                         / (sum(cold["monolith"]) / len(cold["monolith"])))
        tracer.count("observatory.federation.edge_cpu_ms", (
            servers.cpu_seconds("fleet") - self.cpu_before["edge"]) * 1e3)
        tracer.count("observatory.fleet.shard_cpu_ms", (
            servers.cpu_seconds("fleet", children=True)
            - self.cpu_before["shards"]) * 1e3)
        for short, name in (
                ("partial_responses",
                 "observatory_federation_partial_responses_total"),
                ("retried_connects",
                 "observatory_federation_retried_connects_total"),
                ("shard_requests", "observatory_http_requests_total")):
            tracer.count(f"observatory.federation.{short}",
                         after.get(name, 0.0)
                         - self.metrics_before.get(name, 0.0))


# -- live legs -------------------------------------------------------------

class _Writer(threading.Thread):
    """The generator-owned writer: Poisson append groups, each followed
    by ``sync()``, only while ``active`` is set.  A thread of its own:
    ``sync()`` waits for the disk, and the event loop that stamps
    response times must not wait with it."""

    def __init__(self, info: StoreInfo, seed: int):
        super().__init__(name="bench-writer", daemon=True)
        self.store = EventStore(info.root,
                                segment_max_records=info.spec.segment_records)
        self._groups = live_events(info)
        self._rng = random.Random(seed ^ 0xF00D)
        self.active = threading.Event()
        self.sent: dict[int, float] = {}
        self.order: list[int] = []
        self.append_ms: list[float] = []
        self._done = False

    def run(self) -> None:
        while True:
            time.sleep(self._rng.expovariate(APPEND_RATE))
            self.active.wait()
            if self._done:
                return
            t0 = time.perf_counter()
            for kind, instant, payload in next(self._groups):
                seq = self.store.append(kind, instant, payload)
                self.sent[seq] = t0
                self.order.append(seq)
            self.store.sync()
            self.append_ms.append((time.perf_counter() - t0) * 1e3)

    def finish(self) -> None:
        self._done = True
        self.active.set()
        if self.is_alive():
            self.join(timeout=30)


class _Subscriber:
    """One SSE subscriber on ``/stream/events`` (live tail only)."""

    def __init__(self, port: int):
        self.port = port
        self.received: list[tuple[int, float]] = []
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> asyncio.StreamReader:
        reader, self._writer = await asyncio.open_connection(HOST, self.port)
        self._writer.write((f"GET /stream/events HTTP/1.1\r\nHost: {HOST}"
                            f":{self.port}\r\n\r\n").encode("latin-1"))
        await self._writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status, _ = _parse_head(head)
        if status != 200:
            raise RuntimeError(f"/stream/events answered HTTP {status}")
        return reader

    async def run(self, reader: asyncio.StreamReader) -> None:
        """Read frames until the connection ends; book ``(seq, time)``
        per event frame.  The ``id:`` token names the position *after*
        the event, so the event's seq is ``next_seq - 1``."""
        try:
            while True:
                frame = await reader.readuntil(b"\n\n")
                now = time.perf_counter()
                if frame.startswith(b":"):
                    continue  # keepalive / shutdown comment
                token = None
                kind = None
                for line in frame.split(b"\n"):
                    if line.startswith(b"id: "):
                        token = line[4:]
                    elif line.startswith(b"event: "):
                        kind = line[7:]
                if token is None or kind == b"reset":
                    self.received.append((-1, now))
                    continue
                self.received.append((int(token.split(b":")[1]) - 1, now))
        except (asyncio.IncompleteReadError, ConnectionError):
            return

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass


class LiveSession:
    """What the two live legs share: the writer thread, the SSE
    subscriber, two connections to the monolith and the cursor into the
    schedule.  ``open`` before the legs, ``close`` after: quiesce, check
    delivery and bodies, report ``deliver_p50_ms``."""

    def __init__(self, ctx: Context, out: Outcome, servers: Servers,
                 calibration: Calibration, info: StoreInfo,
                 schedule: list[tuple[str, bool]]):
        self.ctx = ctx
        self.out = out
        self.servers = servers
        self.calibration = calibration
        self.info = info
        self.schedule = schedule
        self.port = servers.ports["monolith"]
        self.writer = _Writer(info, ctx.seed)
        self.subscriber = _Subscriber(self.port)
        self.requester = _Requester(out, "monolith")
        self.conns: list[Http] = []
        self.position = 0

    def next_block(self) -> list[tuple[str, bool]]:
        """The next whole block of the mix (the schedule wraps)."""
        if self.position + MIX_BLOCK > len(self.schedule):
            self.position = 0
        block = self.schedule[self.position:self.position + MIX_BLOCK]
        self.position += MIX_BLOCK
        return block

    async def open(self) -> None:
        self.metrics_before = await scrape_metrics(self.port)
        self.cpu_before = self.servers.cpu_seconds("monolith")
        reader = await self.subscriber.connect()
        self.listening = asyncio.ensure_future(self.subscriber.run(reader))
        self.writer.start()
        self.conns = [await Http(self.port).open(),
                      await Http(self.port).open()]
        # One untimed block beside the first appends: whatever the
        # servers set up lazily on the first write is paid for here.
        self.writer.active.set()
        for target, conditional in self.next_block():
            await self.requester.issue(self.conns[0], target, conditional)
        self.writer.active.clear()

    async def close(self) -> None:
        out, writer, subscriber = self.out, self.writer, self.subscriber
        deliver_ms: list[float] = []
        try:
            # Quiesce: every appended seq delivered once, in order.
            writer.finish()
            last = writer.order[-1] if writer.order else None
            waited = time.perf_counter() + 5.0
            while last is not None and time.perf_counter() < waited \
                    and not (subscriber.received
                             and subscriber.received[-1][0] == last):
                await asyncio.sleep(0.02)
            got = [seq for seq, _ in subscriber.received]
            if out.check(got == writer.order,
                         f"SSE delivered {len(got)} frames for "
                         f"{len(writer.order)} appended events, or out of "
                         f"order / with a reset",
                         count=max(1, len(writer.order))):
                deliver_ms = [(when - writer.sent[seq]) * 1e3
                              for seq, when in subscriber.received]
            # After quiesce the HTTP bodies must equal what the app core
            # renders in-process over the same store.
            writer.store.close()
            reference = ObservatoryApp(EventStore(self.info.root,
                                                  readonly=True))
            for target in dict.fromkeys(
                    t for t, _ in self.schedule[:MIX_BLOCK]):
                answer = await self.requester.issue(self.conns[0], target,
                                                    False)
                if answer is None:
                    continue
                url = urlsplit(target)
                _, _, payload = reference.respond(url.path,
                                                  parse_qs(url.query))
                out.check(answer[2] == payload,
                          f"GET {target}: HTTP body differs from in-process "
                          f"ObservatoryApp.respond")
            reference.store.close()
        finally:
            writer.finish()
            await subscriber.close()
            for conn in self.conns:
                await conn.close()
            await asyncio.gather(self.listening, return_exceptions=True)
        after = await scrape_metrics(self.port)
        if deliver_ms:
            out.metrics["deliver_p50_ms"] = median(deliver_ms)
        out.details["live"] = {
            "appends": {"rate_per_s": APPEND_RATE,
                        "groups": len(writer.append_ms),
                        "events": len(writer.order),
                        "append_sync_ms": summary(writer.append_ms)},
            "deliver_ms": summary(deliver_ms),
            "statuses": self.requester.statuses}
        tracer = self.ctx.tracer
        tracer.count("live.bytes_in", self.requester.bytes_in)
        tracer.count("live.monolith_cpu_ms", (
            self.servers.cpu_seconds("monolith") - self.cpu_before) * 1e3)
        tracer.count("observatory.stream.deliver_p95_ms",
                     percentile(deliver_ms, 95) if deliver_ms else 0.0)
        for short, name in (
                ("observatory.views.refreshes",
                 "observatory_view_refreshes_total"),
                ("observatory.views.events_folded",
                 "observatory_view_events_folded_total"),
                ("observatory.server.response_cache_hits",
                 "observatory_http_response_cache_hits_total"),
                ("observatory.server.not_modified",
                 "observatory_http_not_modified_total"),
                ("observatory.server.requests",
                 "observatory_http_requests_total"),
                ("observatory.asyncserver.responses_dropped",
                 "observatory_http_responses_dropped_total"),
                ("observatory.stream.events_sent",
                 "observatory_stream_events_sent_total"),
                ("observatory.stream.lagged",
                 "observatory_stream_lagged_total"),
                ("observatory.stream.resets",
                 "observatory_stream_resets_total")):
            tracer.count(short, after.get(name, 0.0)
                         - self.metrics_before.get(name, 0.0))


class OpenLeg(Leg):
    """Open loop under live appends: one block of the mix per round at
    ``OPEN_RATE`` requests/s on two connections, each request timed from
    its due time.  ``read_p50_ms`` is the median over rounds of the
    round's :func:`mix_weighted_median`: every round holds the mix in
    exact proportion, so rounds are comparable, and the median over
    rounds shrugs off the round a burst of host noise landed on."""

    name = "open"
    minimum = 2

    def __init__(self, ctx: Context, out: Outcome, session: LiveSession,
                 budget: float):
        super().__init__(ctx, out)
        self.session = session
        self.fixed_rounds = max(self.minimum,
                                round(budget / OPEN_ROUND_SECONDS))
        self.round_norm: list[float] = []
        self.round_wall: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.late_ms: list[float] = []
        self.round_cpu_ms: list[float] = []
        self.round_cpu_norm_ms: list[float] = []

    async def step(self) -> None:
        session = self.session
        self.rounds += 1
        self.ctx.tracer.group = f"open#{self.rounds}"
        block = session.next_block()
        done: list[tuple[str, float]] = []
        # The schedule pauses for one kernel run: nothing of ours runs
        # on the servers' CPU while it is calibrated.
        opening = await session.calibration.opening()
        cpu0 = session.servers.cpu_seconds("monolith")
        session.writer.active.set()
        base = time.perf_counter()

        queue: asyncio.Queue = asyncio.Queue()

        async def worker(conn: Http) -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                due, target, conditional = item
                if await session.requester.issue(conn, target,
                                                 conditional) is not None:
                    done.append((request_kind(target),
                                 (time.perf_counter() - due) * 1e3))

        workers = [asyncio.ensure_future(worker(conn))
                   for conn in session.conns]
        for index, (target, conditional) in enumerate(block):
            due = base + index / OPEN_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late_ms.append((time.perf_counter() - due) * 1e3)
            queue.put_nowait((due, target, conditional))
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        session.writer.active.clear()
        cpu = session.servers.cpu_seconds("monolith") - cpu0
        factor = REF_KERNEL_MS / (
            (opening + await session.calibration.closing()) / 2.0)
        if len(done) == len(block):
            self.round_wall.append(mix_weighted_median(done))
            self.round_norm.append(self.round_wall[-1] * factor)
            self.round_cpu_ms.append(cpu * 1e3 / len(block))
            self.round_cpu_norm_ms.append(cpu * 1e3 / len(block) * factor)
            for kind, elapsed in done:
                self.by_kind.setdefault(kind, []).append(elapsed * factor)

    def finish(self) -> None:
        if self.round_norm:
            self.out.metrics["read_p50_ms"] = median(self.round_norm)
            self.out.raw["read_p50_ms"] = median(self.round_wall)
        self.out.details["open_loop"] = {
            "rate_per_s": OPEN_RATE, "connections": 2, "block": MIX_BLOCK,
            "round_norm_ms": self.round_norm,
            "round_wall_ms": self.round_wall,
            "round_cpu_ms": self.round_cpu_ms,
            "round_cpu_norm_ms": self.round_cpu_norm_ms,
            "norm_ms_by_kind": {kind: summary(values) for kind, values
                                in sorted(self.by_kind.items())},
            "late_ms": summary(self.late_ms)}
        self.ctx.tracer.count("generator.late_p90_ms", percentile(
            self.late_ms, 90) if self.late_ms else 0.0)


class ClosedLeg(Leg):
    """Closed loop under live appends: one block of the mix per round,
    two connections back to back — fixed work.

    ``reads_per_s`` is reads ÷ normalised on-CPU seconds of the server
    process over those rounds: the rate one server CPU sustains.  The
    server is pinned to one CPU and kept busy by two connections, so
    that is what bounds a closed loop; the wall-clock rate of the very
    same rounds (``raw_wall_metrics``, ``details``) swings four times as
    much from run to run, with the host's scheduling of the two
    processes rather than with anything the server does."""

    name = "closed"
    minimum = 2

    def __init__(self, ctx: Context, out: Outcome, session: LiveSession,
                 budget: float):
        super().__init__(ctx, out)
        self.session = session
        self.fixed_rounds = max(self.minimum,
                                round(budget / CLOSED_ROUND_SECONDS))
        self.reads = 0
        self.wall_s = 0.0
        self.cpu_norm_s = 0.0
        self.round_rates: list[float] = []

    async def step(self) -> None:
        session = self.session
        self.rounds += 1
        self.ctx.tracer.group = f"closed#{self.rounds}"
        block = list(session.next_block())
        served = [0]
        opening = await session.calibration.opening()
        cpu0 = session.servers.cpu_seconds("monolith")
        session.writer.active.set()
        t0 = time.perf_counter()

        async def drain(conn: Http) -> None:
            while block:
                target, conditional = block.pop(0)
                if await session.requester.issue(conn, target,
                                                 conditional) is not None:
                    served[0] += 1

        await asyncio.gather(*(drain(conn) for conn in session.conns))
        wall = time.perf_counter() - t0
        session.writer.active.clear()
        cpu = session.servers.cpu_seconds("monolith") - cpu0
        factor = REF_KERNEL_MS / (
            (opening + await session.calibration.closing()) / 2.0)
        if served[0] == MIX_BLOCK:
            self.reads += MIX_BLOCK
            self.wall_s += wall
            self.cpu_norm_s += cpu * factor
            self.round_rates.append(MIX_BLOCK / (cpu * factor))

    def finish(self) -> None:
        if self.reads:
            self.out.metrics["reads_per_s"] = self.reads / self.cpu_norm_s
            self.out.raw["reads_per_s"] = self.reads / self.wall_s
        self.out.details["closed_loop"] = {
            "connections": 2, "block": MIX_BLOCK, "reads": self.reads,
            "server_cpu_norm_s": self.cpu_norm_s, "wall_s": self.wall_s,
            "round_reads_per_cpu_norm_s": self.round_rates}
