#!/usr/bin/env python3
"""A/B repeatability: two sets of runs of the same code, compared.

    python3 bench/compare.py [--seeds 3] [--seconds 20] [--quick]
                             [--workloads sim_world,serve_live]

Runs set A, then set B — each ``--seeds`` runs of every workload on
seeds of its own, workloads alternating — and prints, per (workload,
metric): both medians, the gap (how much worse B's median is than A's,
as a share of A's), each set's spread (interquartile distance over
median, from four seeds up) and the same gap on the raw wall-clock
companion of the metric, so what normalisation buys is on the page.
Exits 1 when a gap exceeds the metric's bound in ``BENCHMARK.json``, or
any run is incorrect.

This is the check the driver applies to the benchmark itself; it is not
a way to claim a gain (for that: ten alternating pairs of parent and
change, see the choosing-metrics guide).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from stats import iqr_share, median  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, quick: bool
             ) -> Optional[dict]:
    """One benchmark run; its report (None when the run itself died)."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"] + (["--quick"] if quick else [])
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        return None
    last = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((BENCH_DIR / "out" / (
        f"result-{workload}-seed{seed}-trace0.json")).read_text("utf-8"))
    report["_last_line"] = last
    return report


def spread(values: list[float]) -> str:
    """Interquartile distance over median, from four values up."""
    return f"{iqr_share(values):8.3f}" if len(values) >= 4 else "       -"


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=3,
                        help="runs per workload per set (>= 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=None,
                        help="also write every value as JSON here")
    args = parser.parse_args(argv)
    if args.seeds < 3:
        parser.error("--seeds must be at least 3")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = args.seconds or contract["run_seconds"]
    workloads = [w["name"] for w in contract["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = contract["end_to_end"]

    # values[set][workload][metric] -> list over seeds; raw likewise.
    values: list[dict] = [{}, {}]
    raws: list[dict] = [{}, {}]
    bad_runs = 0
    for which in (0, 1):
        for offset in range(args.seeds):
            seed = args.first_seed + which * args.seeds + offset
            for workload in workloads:  # alternating, not back to back
                report = run_once(workload, seed, seconds, args.quick)
                ok = report is not None and report["correct"] \
                    and report["failed"] == 0
                print(f"set {'AB'[which]} seed {seed:3d} {workload:17s} "
                      f"{'ok' if ok else 'FAILED'}", flush=True)
                if not ok:
                    bad_runs += 1
                    if report is None:
                        continue
                for metric in metrics:
                    name = metric["name"]
                    cell = report["metrics"].get(name)
                    if cell is not None:
                        values[which].setdefault(workload, {}).setdefault(
                            name, []).append(cell["value"])
                    raw = report["raw_wall_metrics"].get(name)
                    if raw is not None:
                        raws[which].setdefault(workload, {}).setdefault(
                            name, []).append(raw)

    print(f"\n{'workload':17s} {'metric':22s} {'median A':>11s} "
          f"{'median B':>11s} {'gap':>7s} {'bound':>6s} {'spread A':>8s} "
          f"{'spread B':>8s} {'raw gap':>8s} {'raw spr':>8s}")
    over = 0
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = values[0].get(workload, {}).get(name, [])
            b = values[1].get(workload, {}).get(name, [])
            if not a or not b:
                print(f"{workload:17s} {name:22s} missing")
                over += 1
                continue
            gap = worse_by(median(a), median(b), metric["better"])
            flag = ""
            if gap > bound:
                over += 1
                flag = "  <-- over bound"
            raw_a = raws[0].get(workload, {}).get(name, [])
            raw_b = raws[1].get(workload, {}).get(name, [])
            raw_gap = (f"{worse_by(median(raw_a), median(raw_b), metric['better']):+8.3f}"
                       if raw_a and raw_b else "       -")
            raw_spread = spread(raw_a + raw_b) if raw_a else "       -"
            print(f"{workload:17s} {name:22s} {median(a):11.4f} "
                  f"{median(b):11.4f} {gap:+7.3f} {bound:6.2f} {spread(a)} "
                  f"{spread(b)} {raw_gap} {raw_spread}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"values": values, "raw_wall": raws}, indent=1), "utf-8")
    print(f"\n{over} gap(s) over bound, {bad_runs} failed run(s)")
    return 1 if over or bad_runs else 0


if __name__ == "__main__":
    raise SystemExit(main())
