#!/usr/bin/env python3
"""Traced timings of the cases quoted as the ROADMAP baseline.

    python3 perfbench/baseline.py

Runs each case once under the benchmark's tracer (tracemalloc on inside
``is_median`` only) and prints its wall time, its self time per layer and
the search counts.  The cases: ``is_median`` on the 14x14 and 17x17 vertex
grids, ``max_thick_rectangle`` on the 14x14 vertex grid at the default cap,
and ``racg.ball_walls`` on the C5 defining graph at radius 5.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import families as fm  # noqa: E402
import tracer as tr  # noqa: E402

os.environ.update(tr.BLAS_THREADS)

from cubekit import diagnostics, median, racg  # noqa: E402


def grid(vertices_per_side: int):
    side = fm.Factor.path(vertices_per_side - 1)
    p = fm.Product([side, side])
    return p, median.MedianGraph(p.vertices, p.edges)


def main() -> int:
    tracer = tr.Tracer()
    tracer.install()
    p14, g14 = grid(14)
    g17 = grid(17)[1]

    def rectangle():
        rep = diagnostics.max_thick_rectangle(g14)
        return (f"{rep.method} thickness {rep.thickness} (truth {p14.rect_thickness()}), "
                f"{rep.states} states")

    def walls():
        bw = racg.ball_walls(racg.DefiningGraph(*fm.C5), 5)
        return f"{bw.ball.graph.n} vertices, {len(bw.reflections)} walls"

    cases = [
        ("is_median 14x14 grid", lambda: g14.is_median().ok),
        ("is_median 17x17 grid", lambda: g17.is_median().ok),
        ("max_thick_rectangle 14x14 grid", rectangle),
        ("ball_walls C5 r=5", walls),
    ]
    for label, case in cases:
        first = len(tracer.spans)
        tracer.peaks.clear()
        start = time.perf_counter()
        answer = case()
        wall = time.perf_counter() - start
        layers = tr.layer_self(tracer, first)
        split = ", ".join(f"{k} {v:.2f}s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
                          if v > 0)
        peak = tracer.peaks.get("median.is_median_peak_mib")
        extra = f", is_median peak {peak:.0f} MiB" if peak else ""
        print(f"{label}: {wall:.2f}s ({split}{extra}) -> {answer}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
