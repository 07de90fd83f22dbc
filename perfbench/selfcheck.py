#!/usr/bin/env python3
"""Self-check of the benchmark on its smallest inputs.

    python3 perfbench/selfcheck.py

Runs every workload at its smallest sizes, untraced and traced, and requires
that every job check passes and that every metric named in BENCHMARK.json
is printed with its unit.  It also copies the benchmark into a directory
without the cubekit sources and requires that the run fails there without
printing a result.  Exits 1 on the first failed requirement.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


class SelfCheckError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SelfCheckError(message)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    require(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
    require(result["correct"] and result["failed"] == 0, f"{label}: {proc.stderr}")
    require(result["attempted"] >= 1, f"{label}: nothing attempted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    require(set(got) == names,
            f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ names)}")
    for m in wanted:
        require(got[m["name"]]["unit"] == m["unit"], f"{label}: unit of {m['name']}")
        require(isinstance(got[m["name"]]["value"], (int, float)), f"{label}: {m['name']}")
    print(f"ok  {label}: {result['attempted']} jobs checked, {len(got)} metrics")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: the run must refuse."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare)
    require(proc.returncode != 0, "run succeeded without the cubekit sources")
    require('"metrics"' not in proc.stdout, "run printed a result without the sources")
    print("ok  bare directory: exit", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        require({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workload names")
        for workload in WORKLOADS:
            for trace in (0, 1):
                check_result(spec, workload, trace)
        check_bare_directory()
    except SelfCheckError as e:
        print(f"FAIL {e}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
