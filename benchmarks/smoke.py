"""Tiny-size smoke check of the benchmark itself.

    python3 benchmarks/smoke.py

Runs every workload for a handful of ops, untraced and traced, and asserts
that each end-to-end and per-layer metric of BENCHMARK.json (plus
error_rate) prints with its unit, that every output verified, that the
corrupted-output self-test failed as it must, and that traced counts
repeated.  Each per-layer metric must be nonzero on some workload, which
catches a metric name that no wrapper feeds.  Finally the benchmark must
refuse to run, without a result, in a directory holding only
BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lamps", "metabelian", "width3", "cli")
SECONDS = "0.5"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, declared: list[dict], nonzero: set[str]) -> None:
    done = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{where}: {result}\n{done.stdout}"
    printed = {}
    for line in lines:
        parts = line.split()
        if parts[:1] == ["metric"]:
            printed[parts[1]] = (float(parts[2]), parts[3])
    expected = {m["name"]: m["unit"] for m in declared}
    if not trace:
        expected["error_rate"] = "ratio"
    for name, unit in expected.items():
        assert name in printed and printed[name][1] == unit, f"{where}: {name} [{unit}]"
        if name != "error_rate":
            assert result["metrics"][name]["unit"] == unit, f"{where}: {name} in JSON"
        if printed[name][0]:
            nonzero.add(name)
    assert set(result["metrics"]) == set(expected) - {"error_rate"}, where
    assert "selftest corrupted output counted as failed: True" in lines, where
    if trace:
        assert any(line.endswith("counts repeat across the two traced passes: True")
                   for line in lines), where


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(bare, "lamps", 0)
        assert done.returncode != 0, "benchmark ran without the program's sources"
        assert '"correct"' not in done.stdout, "benchmark printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    nonzero: set[str] = set()
    for workload in WORKLOADS:
        check_run(workload, 0, spec["end_to_end"], nonzero)
        check_run(workload, 1, spec["per_layer"], nonzero)
    silent = [m["name"] for m in spec["per_layer"] if m["name"] not in nonzero]
    assert not silent, f"per-layer metrics zero on every workload: {silent}"
    check_bare_directory()
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
