"""The one command, end to end: ``--quick`` smoke of every workload,
hash determinism, and that a failing request is counted, not timed."""

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(workload, seed, trace=0, seconds=3):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((BENCH_DIR / "out" / (
        f"result-{workload}-seed{seed}-trace{trace}.json")).read_text())
    return last, report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_smoke_reports_every_end_to_end_metric(workload):
    last, report = _run(workload, seed=21)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert set(last["metrics"]) == set(wanted)
    for name, cell in last["metrics"].items():
        assert cell["unit"] == wanted[name]
        assert cell["value"] > 0
    header = report["header"]
    for key in ("git_commit", "python", "cpu_model", "kernel", "nproc",
                "affinity", "steal_share_since_boot", "seed", "seconds",
                "ref_kernel_ms"):
        assert key in header
    assert len(report["workload_hash"]) == 64


def test_traced_run_reports_every_per_layer_metric():
    last, report = _run("archive_backfill", seed=22, trace=1)
    assert last["correct"] is True and last["failed"] == 0
    wanted = {m["name"] for m in CONTRACT["per_layer"]}
    assert set(last["metrics"]) == wanted
    assert report["details"]["extras"]["calls_per_record"]["mrt"] > 0
    trace = json.loads((BENCH_DIR / "out" / (
        "trace-archive_backfill-seed22.json")).read_text())
    assert trace["spans"] and trace["columns"][0] == "name"


def test_same_seed_same_workload_hash():
    _, first = _run("sim_world", seed=23)
    _, again = _run("sim_world", seed=23)
    _, other = _run("sim_world", seed=24)
    assert first["workload_hash"] == again["workload_hash"]
    assert first["workload_hash"] != other["workload_hash"]
    assert first["input_hashes"] == again["input_hashes"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and bench/, the
    command exits non-zero and prints no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_world",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_failing_request_is_counted_and_never_timed():
    """A request that comes back 500 lands in ``failed`` and yields no
    answer for the caller to take a latency sample from."""
    from common import Outcome
    from serving import Http, _Requester

    async def scenario():
        async def broken(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(b"HTTP/1.1 500 Internal Server Error\r\n"
                         b"Content-Length: 2\r\n\r\n{}")
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(broken, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        out = Outcome()
        requester = _Requester(out, "injected")
        conn = await Http(port).open()
        try:
            answer = await requester.issue(conn, "/zombies", False)
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()
        return out, answer

    out, answer = asyncio.run(scenario())
    assert answer is None
    assert (out.attempted, out.failed, out.correct) == (1, 1, False)
    assert "HTTP 500" in out.violations[0]
