"""The frozen reference kernel behind host-drift normalisation.

Wall-clock and CPU time on the shared 2-vCPU host this benchmark runs
on move by tens of percent from one second to the next (same code, same
input, one CPU; README.md, "Host-drift normalisation").  Every timed
metric is therefore reported in *normalised* seconds::

    normalised = slice_seconds * REF_KERNEL_MS / kernel_ms_around_the_slice

where ``kernel_ms_around_the_slice`` is the mean CPU time of
:func:`kernel` run on the same CPU immediately before and immediately
after the slice.  The kernel does, in miniature and in fixed
proportion, what the pipeline's time goes to — ``struct`` packing and
integer work, dictionary lookups over a table larger than the L2
cache, building small dicts, ``json.dumps(sort_keys=True)`` — so that a
slow phase of the host stretches it by the factor it stretches the
pipeline by (measured: within a few percent for the study, simulate and
ingest legs).

**The kernel body, its tables and** ``REF_KERNEL_MS`` **are frozen.**
Changing any of them rebaselines every normalised metric of every
earlier run.
"""

from __future__ import annotations

import gc
import json
import struct
import sys
import time

__all__ = ["REF_KERNEL_MS", "kernel", "kernel_times"]

#: Median kernel CPU time on the host the baseline was recorded on (ms).
#: Only a scale factor: it makes normalised seconds read like seconds on
#: that host.
REF_KERNEL_MS = 20.0

_PACK = struct.Struct("!IHHQ")
_BUFFER = bytearray(_PACK.size * 64)
_TABLE = {index: index * 7 for index in range(60_000)}


def _lookup_keys() -> list[int]:
    # A fixed pseudo-random walk over the table (own LCG: the sequence
    # must never change with the Python version).
    keys = []
    state = 12345
    for _ in range(25_000):
        state = (state * 1_103_515_245 + 12_345) % 2_147_483_648
        keys.append(state % 60_000)
    return keys


_KEYS = _lookup_keys()
_EVENT = {"prefix": "2a0d:3dc1:1851::/48", "kind": "lifespan",
          "peers": [["rrc00", "2001:db8::1"]], "seq": 12345,
          "time": 1718625600, "visible": True,
          "path": "64500 1299 25091 8298 210312"}


def kernel() -> int:
    """~20 ms of pure-Python work in the pipeline's own proportions."""
    checksum = 0
    for index in range(3000):                      # pack, unpack, format
        offset = (index & 63) * _PACK.size
        _PACK.pack_into(_BUFFER, offset, index, index & 0xffff,
                        (index * 7) & 0xffff, index * 1_000_003)
        a, b, c, d = _PACK.unpack_from(_BUFFER, offset)
        checksum += (d ^ (a << 3)) % 9973 + len(f"{b:x}:{c:x}")
    table = _TABLE
    for key in _KEYS:                              # cache-unfriendly reads
        checksum += table[key]
    built = {}
    for index in range(900):                       # small-object churn
        built[f"2a0d:3dc1:{index:x}::/48|rrc{index % 24:02d}"] = {
            "seq": index, "peer": index & 0xffff, "time": index * 1_000_003,
            "path": [index, 8298, 210312], "visible": bool(index & 1)}
    checksum += len(built)
    for _ in range(600):                           # canonical JSON
        checksum += len(json.dumps(_EVENT, sort_keys=True))
    return checksum


def kernel_times() -> tuple[float, float]:
    """``(cpu_ms, wall_ms)`` of one kernel run.

    CPU time is the calibration signal: it follows the host's slow
    phases as wall time does but is blind to the 20-60 ms preemptions
    that hit one sample in twenty here.  The collector is paused for the
    run: a collection triggered inside the kernel would scan the
    *caller's* heap, and the kernel would measure how many objects the
    system under test holds, not how fast the host is.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        w0 = time.perf_counter()
        c0 = time.thread_time()
        kernel()
        cpu = time.thread_time() - c0
        wall = time.perf_counter() - w0
    finally:
        if was_enabled:
            gc.enable()
    return cpu * 1e3, wall * 1e3


def _serve() -> int:
    """Helper-process mode: answer each input line with one kernel time.

    The serving legs start ``python kernel.py`` pinned to the CPU of the
    system under test, so calibration sees the same host phase the
    servers do without running inside them."""
    kernel()  # warm the code path before the first request
    for line in sys.stdin:
        if line.strip() == "quit":
            break
        cpu_ms, wall_ms = kernel_times()
        sys.stdout.write(f"{cpu_ms:.6f} {wall_ms:.6f}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(_serve())
