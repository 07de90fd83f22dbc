#!/usr/bin/env python3
"""cubekit benchmark: closed-loop ``cubekit`` workloads, timed end to end or traced.

    python3 perfbench/run.py --workload median-recognition --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client runs one job at a time.  Jobs run in-process through
``cubekit.cli.main`` with stdout captured and checked; a pass is one run
over the workload's jobs.  The run first times fresh interpreters importing
``cubekit.cli`` (set-up), then repeats passes for about ``--seconds``.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it spends
half the time untraced and half with spans on, and prints the per-layer
metrics.  The last line of stdout is the result object; the line before it
is a fuller report with reproducibility metadata.  ``--workload all`` runs
every workload untraced and traced, each in a fresh process, and prints
every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# Pin BLAS threads before numpy is imported, here and in set-up children.
os.environ.update(tr.BLAS_THREADS)

SETUP_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "exact_share": "ratio",
}
PER_LAYER_UNITS = {
    **{m: "s" for m in tr.LAYER_SELF.values()},
    **{m: "s" for m in tr.SELF_GROUPS},
    "median.is_median_accept_s": "s",
    "median.is_median_reject_s": "s",
    "median.is_median_peak_mib": "MiB",
    "cli.calls": "count",
    "cli.output_bytes": "bytes",
    "formats.bytes": "bytes",
    "median.is_median_vertices": "count",
    "diagnostics.wall_pairs": "count",
    "diagnostics.grid_nodes": "count",
    "diagnostics.rect_states": "count",
    "diagnostics.rect_yield": "rect/state",
    "diagnostics.cap_hits": "count",
    "racg.ball_vertices": "count",
    "racg.walls": "count",
    "smallcancel.members": "count",
    "polygonal.dual_vertices": "count",
    "polygonal.transfer_pairs": "count",
    **{f"{layer}.src_lines": "lines" for layer in tr.LAYERS},
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Harness:
    """Runs jobs one at a time and keeps the tallies of every pass."""

    def __init__(self, ck, jobs: list[wl.Job]):
        self.ck = ck
        self.jobs = jobs
        self.attempted = 0
        self.failures: list[str] = []
        self.capped: list[str] = []
        self.output_bytes = 0
        self.job_names: list[str] = []
        self.tracer: tr.Tracer | None = None

    def run_job(self, job: wl.Job) -> float:
        """Runs one job, checks it, and returns the time the program took."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.job = len(self.job_names)
            self.job_names.append(job.id)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            if job.argv is not None:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = self.ck.cli.main(["--json", *job.argv])
                    except SystemExit as e:  # argparse refuses the command line
                        code = e.code if isinstance(e.code, int) else 2
                result = None
            else:
                code, result = 0, job.call(self.ck)
        except Exception:
            elapsed = time.perf_counter() - start
            self.failures.append(f"{job.id}: {traceback.format_exc(limit=-1).strip()}")
            return elapsed
        elapsed = time.perf_counter() - start
        self.output_bytes += len(out.getvalue())
        try:
            if code != job.exit_code:
                raise wl.CheckError(f"exit code {code}: {err.getvalue().strip()}")
            if job.argv is not None:
                result = json.loads(out.getvalue())
            self.capped += job.check(result)
        except Exception as e:
            self.failures.append(f"{job.id}: {type(e).__name__}: {e}")
        return elapsed

    def run_for(self, seconds: float) -> list[list[float]]:
        """Whole passes for about ``seconds``: a pass starts while at least
        half of one, as long as the last, fits before the deadline.  Each
        pass lists the program time of every job."""
        passes = []
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            passes.append([self.run_job(job) for job in self.jobs])
            end = time.perf_counter()
            if end + (end - start) / 2 >= deadline:
                return passes


def pass_wall(passes: list[list[float]]) -> float:
    """Wall time of one pass: the sum over jobs of each job's median time.

    Per-job medians drop the bursts of a shared machine that land on single
    jobs, which a median of whole passes keeps.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import ``cubekit.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cubekit.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def import_cubekit():
    sys.path.insert(0, str(SRC))
    import cubekit
    from cubekit import cli, diagnostics, formats, median, polygonal, racg, smallcancel

    if Path(cubekit.__file__).resolve().parent != SRC / "cubekit":
        raise SystemExit(f"error: imported cubekit from {cubekit.__file__}, not {SRC}")
    return SimpleNamespace(
        cli=cli, diagnostics=diagnostics, formats=formats, median=median,
        polygonal=polygonal, racg=racg, smallcancel=smallcancel,
    )


def metadata(seed: int) -> dict:
    import networkx
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": tr.BLAS_THREADS,
        "src_lines": src_lines(),
    }


def src_lines() -> dict[str, int]:
    return {layer: len((SRC / "cubekit" / f"{layer}.py").read_text().splitlines())
            for layer in tr.LAYERS}


def run_workload(args) -> int:
    if not (SRC / "cubekit" / "cli.py").is_file():
        print(f"error: no cubekit sources under {SRC}", file=sys.stderr)
        return 2
    setup = measure_setup()
    ck = import_cubekit()
    workdir = OUT / f"{args.workload}-{args.seed}"
    jobs = wl.build(args.workload, args.seed, args.small, workdir, ck)
    harness = Harness(ck, jobs)
    report = {"workload": args.workload, "trace": args.trace, "jobs": len(jobs),
              "meta": metadata(args.seed)}
    if args.trace:
        untraced = harness.run_for(args.seconds / 2)
        tracer = harness.tracer = tr.Tracer()
        tracer.install()
        traced = harness.run_for(args.seconds / 2)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl", harness.job_names)
        values = tr.layer_metrics(tracer, len(traced))
        traced_total = sum(map(sum, traced))
        values.update({f"{layer}.src_lines": n for layer, n in report["meta"]["src_lines"].items()})
        values["cli.output_bytes"] = harness.output_bytes / (len(untraced) + len(traced))
        values["trace.wall_s"] = traced_total / len(traced)
        values["trace.untraced_wall_s"] = sum(map(sum, untraced)) / len(untraced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        values["bench.self_s"] = (traced_total - tracer.covered()) / len(traced)
        units = PER_LAYER_UNITS
        report["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    else:
        passes = harness.run_for(args.seconds)
        values = {
            "wall_s": pass_wall(passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "exact_share": harness.capped.count(wl.EXACT) / max(1, len(harness.capped)),
        }
        units = END_TO_END
        report["passes"] = {"untraced": len(passes)}
        report["pass_walls_s"] = [sum(p) for p in passes]
        report["setup_runs_s"] = setup
    failed = len(harness.failures)
    metrics = {m: {"value": values[m], "unit": u} for m, u in units.items()}
    report["failed_share"] = {"value": failed / harness.attempted, "unit": "ratio"}
    report["capped_searches"] = len(harness.capped)
    report["failures"] = harness.failures[:20]
    for line in harness.failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": harness.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced and then traced."""
    code = 0
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.small:
                cmd.append("--small")
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or len(lines) < 2:
                print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                code = 1
                continue
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            share = report["failed_share"]
            print(f"{name} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"passes={report['passes']}")
            for metric, m in [("failed_share", share), *result["metrics"].items()]:
                print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
    return code


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="smallest input sizes (self-check)")
    args = p.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
