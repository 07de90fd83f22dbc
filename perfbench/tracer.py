"""Span tracer for the traced run.

``Tracer.install`` wraps the public functions, methods and properties of
each layer module from outside the package and rebinds every name that
points at them, including the names ``cli`` and ``racg`` import from other
modules, so nested calls become child spans.  Each span records its name,
start, end, parent span and job; spans stay in memory until ``write``.
Counts are read from the returned reports at the same boundaries.

The module imports nothing heavy, so its users can pin BLAS threads from
``BLAS_THREADS`` before numpy is imported.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

# Thread pinning for every benchmark process and its set-up children.
BLAS_THREADS = {
    v: "1"
    for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}

LAYERS = ("cli", "formats", "median", "diagnostics", "racg", "smallcancel", "polygonal")

# Helpers that run inside loops of wrapped functions.  A span each would cost
# more than they do and would bury their callers' shape; their time counts
# as self time of the caller.
SKIP = {
    "median.UnionFind",
    "median.MedianGraph.id_of",
    "median.MedianGraph.degree",
    "median.MedianGraph.indices_of",
    "diagnostics.WallSystem.side_size_toward",
    "diagnostics.WallSystem.wall_side",
    "racg.DefiningGraph.link",
    "racg.DefiningGraph.star",
    "racg.DefiningGraph.is_complete_set",
    "smallcancel.Factor",
    "polygonal.PolygonalComplex.sides",
    "polygonal.Piece.length",
    "polygonal.Wall.two_sided",
    "polygonal.walls_cross",
}

MIB = 1 << 20


def _skipped(name: str) -> bool:
    return any(name == s or name.startswith(s + ".") for s in SKIP)


# Per-span hooks: ``fresh`` runs before the call on its arguments and says
# whether the call does new work (many results are cached per graph, and a
# cache hit is left to its caller); ``count`` runs after it on the span, the
# arguments and the result.  The ``fresh`` hooks read the per-graph caches
# ``MedianGraph._cache`` (median.py) and ``WallSystem._pairs``
# (diagnostics.py); a cache that is renamed or gone counts as fresh work.

MEDIAN_CACHE_KEYS = {
    "is_connected": "connected",
    "dist": "dist",
    "sides": "hyp",
    "hyperplane_count": "hyp",
    "transverse": "transverse",
    "hyperplanes": "hyperplanes",
    "cubes": "cubes",
    "linf_adjacency": "linf_adj",
}


def _uncached(key):
    return lambda args: key not in getattr(args[0], "_cache", ())


def _pairs_fresh(args):
    return getattr(args[0], "_pairs", None) is None


def _tally(metric: str, of):
    def count(tr, span, args, out):
        tr.counts[metric] += of(out)
    return count


def _cap_hits(methods):
    return _tally("diagnostics.cap_hits", lambda out: sum(m != "exact" for m in methods(out)))


def _count_is_median(tr, span, args, out):
    tr.counts["median.is_median_vertices"] += args[0].n
    span[5] = "accept" if out.ok else "reject"


def _count_grid(tr, span, args, out):
    tr.counts["diagnostics.grid_nodes"] += out.nodes
    tr.counts["diagnostics.cap_hits"] += out.method != "exact"


def _count_rect(tr, span, args, out):
    rects, method, states = out
    tr.counts["diagnostics.rect_states"] += states
    tr.counts["diagnostics.rectangles"] += len(rects)
    tr.counts["diagnostics.cap_hits"] += method != "exact"


def _count_parse(tr, span, args, out):
    tr.counts["formats.bytes"] += len(args[0].encode())


HOOKS = {
    **{f"median.MedianGraph.{attr}": (_uncached(key), None)
       for attr, key in MEDIAN_CACHE_KEYS.items()},
    "median.MedianGraph.is_median": (_uncached("median_verdict"), _count_is_median),
    "diagnostics.WallSystem.pairs": (_pairs_fresh, _tally("diagnostics.wall_pairs", len)),
    "diagnostics.grid_search": (None, _count_grid),
    "diagnostics.flat_rectangles": (None, _count_rect),
    "diagnostics.cycle_probe": (None, _cap_hits(lambda out: [out[1]])),
    "diagnostics.contracting": (None, _cap_hits(lambda out: [v.method for v in out.verdicts])),
    "racg.ball": (None, _tally("racg.ball_vertices", lambda b: b.graph.n)),
    "racg.ball_walls": (None, _tally("racg.walls", lambda bw: len(bw.reflections))),
    "smallcancel.check_small_cancellation": (
        None, _tally("smallcancel.members", lambda v: v.member_count)),
    "polygonal.dual_cube_complex": (
        None, _tally("polygonal.dual_vertices", lambda dc: dc.graph.n)),
    "polygonal.separation_transfer": (None, _tally("polygonal.transfer_pairs", lambda t: 1)),
}
for _name in ("parse_graph", "parse_subsets", "parse_polygons", "parse_presentation_file"):
    HOOKS[f"formats.{_name}"] = (None, _count_parse)

# Spans run under tracemalloc, which records the peak of what they allocate.
PEAK = {"median.MedianGraph.is_median": "median.is_median_peak_mib"}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, job, tag]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, name: str, fn):
        fresh, count = HOOKS.get(name, (None, None))
        peak_metric = PEAK.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fresh is not None and not fresh(args):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            if peak_metric:
                tracemalloc.start()
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if peak_metric:
                    peak = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    self.peaks[peak_metric] = max(self.peaks.get(peak_metric, 0.0), peak)
            if count is not None:
                count(self, span, args, out)
            return out

        return traced

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if _skipped(name):
                continue
            if isinstance(raw, property) and raw.fget is not None:
                wrapped = property(self.wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
                setattr(cls, attr, wrapped)
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def install(self) -> None:
        """Wrap every layer of the imported cubekit and rebind all its names."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cubekit.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if _skipped(name):
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "cubekit" or modname.startswith("cubekit."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, attr, replaced[id(obj)])

    # -- results -------------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def covered(self) -> float:
        """Time under root spans, that is under any layer."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def write(self, path: Path, jobs: list[str]) -> None:
        """Spans as JSON lines, after one line naming the job of each index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"jobs": jobs}) + "\n")
            for name, start, end, parent, job, tag in self.spans:
                span = [name, round(start, 7), round(end, 7), parent, job, tag]
                fh.write(json.dumps(span) + "\n")


# -- per-layer metrics ---------------------------------------------------------------

# Self time of the spans under each name (a name covers its dotted children).
SELF_GROUPS = {
    "median.construct_s": ("median.MedianGraph.__init__",),
    "median.dist_s": ("median.MedianGraph.dist",),
    "median.is_median_s": ("median.MedianGraph.is_median",),
    "median.hyperplanes_s": (
        "median.MedianGraph.hyperplanes", "median.MedianGraph.hyperplane_count",
        "median.MedianGraph.sides", "median.MedianGraph.transverse",
        "median.MedianGraph.separating", "median.MedianGraph.halfspace",
        "median.MedianGraph.crossing_hyperplanes",
    ),
    "median.cubes_s": ("median.MedianGraph.cubes", "median.MedianGraph.maximal_cubes"),
    "median.linf_s": (
        "median.MedianGraph.dist_matrix", "median.MedianGraph.linf_adjacency",
        "median.MedianGraph.distance",
    ),
    "diagnostics.wall_pairs_s": ("diagnostics.WallSystem.pairs",),
    "diagnostics.grid_s": (
        "diagnostics.grid_search", "diagnostics.max_grid",
        "diagnostics.has_grid_through", "diagnostics.verify_grid",
    ),
    "diagnostics.rect_s": (
        "diagnostics.flat_rectangles", "diagnostics.max_thick_rectangle",
        "diagnostics.verify_flat_rectangle",
    ),
    "diagnostics.delta_s": ("diagnostics.delta",),
    "diagnostics.bigon_s": ("diagnostics.bigon_thinness", "diagnostics.bigon_thinness_in"),
    "diagnostics.coneoff_s": (
        "diagnostics.cone_off", "diagnostics.ConeOff",
        "diagnostics.fineness_certificate", "diagnostics.cycle_probe",
    ),
    "diagnostics.contracting_s": ("diagnostics.contracting", "diagnostics.hyperplane_carrier"),
    "racg.ball_s": ("racg.ball",),
    "racg.ball_walls_s": ("racg.ball_walls",),
    "racg.decomp_s": (
        "racg.j_sequence", "racg.j_infinity", "racg.relhyp_report",
        "racg.maximal_large_joins", "racg.cp_closure", "racg.validate_decomposition",
        "racg.contracting_generators",
    ),
    "polygonal.sc_s": ("polygonal.polygonal_sc_check", "polygonal.pieces"),
    "polygonal.dual_s": ("polygonal.dual_cube_complex", "polygonal.walls"),
    "polygonal.classify_s": ("polygonal.classify_maximal_cubes",),
    "polygonal.transfer_s": ("polygonal.separation_transfer", "polygonal.dual_projection"),
}

# Whole-layer self time, under the names the layers are best known by.
LAYER_SELF = {
    "cli": "cli.self_s",
    "formats": "formats.parse_s",
    "median": "median.busy_s",
    "diagnostics": "diagnostics.busy_s",
    "racg": "racg.busy_s",
    "smallcancel": "smallcancel.check_s",
    "polygonal": "polygonal.busy_s",
}

COUNTS = (
    "formats.bytes", "median.is_median_vertices", "diagnostics.wall_pairs",
    "diagnostics.grid_nodes", "diagnostics.rect_states", "diagnostics.cap_hits",
    "racg.ball_vertices", "racg.walls", "smallcancel.members",
    "polygonal.dual_vertices", "polygonal.transfer_pairs",
)


def _in_group(name: str, prefixes) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def layer_self(tr: Tracer, first: int = 0) -> dict[str, float]:
    """Self time of each layer, summed over the spans from index ``first`` on."""
    own = tr.self_times()
    layers = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(tr.spans[first:], own[first:]):
        layers[span[0].split(".", 1)[0]] += t
    return layers


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-pass self times and counts, from every span of ``passes`` passes."""
    out = {LAYER_SELF[layer]: t for layer, t in layer_self(tr).items()}
    out.update(dict.fromkeys(SELF_GROUPS, 0.0))
    out["median.is_median_accept_s"] = out["median.is_median_reject_s"] = 0.0
    calls = 0
    for span, t in zip(tr.spans, tr.self_times()):
        name = span[0]
        for metric, prefixes in SELF_GROUPS.items():
            if _in_group(name, prefixes):
                out[metric] += t
        if span[5] in ("accept", "reject"):
            out[f"median.is_median_{span[5]}_s"] += t
        calls += name == "cli.main"
    out = {m: v / passes for m, v in out.items()}
    out["cli.calls"] = calls / passes
    for c in COUNTS:
        out[c] = tr.counts[c] / passes
    states = tr.counts["diagnostics.rect_states"]
    out["diagnostics.rect_yield"] = tr.counts["diagnostics.rectangles"] / states if states else 0.0
    out["median.is_median_peak_mib"] = tr.peaks.get("median.is_median_peak_mib", 0.0)
    return out
