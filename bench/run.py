#!/usr/bin/env python3
"""The pipeline benchmark: one command, four workloads, twelve metrics.

    python3 bench/run.py --workload archive_backfill --seed 7 \\
        --seconds 20 --trace 0

Prints a JSON report (every metric by name with its unit, the details
behind it, the host header and the ``workload_hash``), then — as the
last line of standard output — the one-object result the driver reads:
``{"correct": …, "attempted": …, "failed": …, "metrics": {…}}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics.

Every workload runs every leg of the pipeline, so every metric is a
real measurement on every workload; a workload decides how the
``--seconds`` budget is split between the legs (``shares``).  README.md
explains why, and what each number means.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"


def _parse_args(argv: Optional[list[str]],
                workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for smoke tests")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    if not (SRC_DIR / "repro").is_dir() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print("bench/run.py must run from a checkout that holds src/repro "
              "and BENCHMARK.json", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    args = _parse_args(argv, [w["name"] for w in contract["workloads"]])
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    import harness  # needs the program under test on the path

    return asyncio.run(harness.run(args, contract))


if __name__ == "__main__":
    raise SystemExit(main())
