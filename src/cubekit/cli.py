"""The ``cubekit`` command line tool.

One binary with a subcommand tree (``median``, ``diag``, ``coneoff``,
``racg``, ``sc``, ``poly``) that parses the text formats, dispatches into
the library, and emits either a human summary or deterministic JSON.

Every report carries the input digests, the parameters, a list of results
tagged with their method (exact or lower_bound), the statement
each command checks, and the wall-clock duration.  Exit codes: 0 for a
computed or passing result, 1 when a pass/fail verdict is negative, 2 for
input errors, 3 for a bug (a failed internal cross-check or any unexpected
exception), and 4 when the input exceeds the size cap of an exact
computation.

``main`` may be called any number of times in one process; the argparse
tree is built on the first call and reused.

Importing this module, or building the tree, loads no layer and no numpy:
the constants the tree needs come from ``cubekit.errors``, and each handler
imports the layer names it uses when it runs.  So ``--version``, ``--help``
and a refused command line load no layer, and a subcommand loads only its
own layers.  Handlers read those names from their layers at every call, so
a layer attribute rebound later (a test patch, a tracer) is honoured.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import (
    APEX,
    CLIQUE,
    EXACT,
    L1,
    LARGE_JOINS,
    LINF,
    RECT_STATE_CAP,
    SQUARES,
    ConsistencyError,
    CubekitError,
    SizeCapError,
    ValidationError,
)

ANCHORS = {
    "median check": "a graph is median when every vertex triple has exactly one median vertex",
    "median hyperplanes": "hyperplanes are edge classes under opposite-sides-of-a-square and split the graph into two halfspaces",
    "median cubes": "cubes are vertex sets pairwise differing on a fixed set of pairwise transverse hyperplanes",
    "median dist": "l1 counts separating hyperplanes; linf counts the steps of greedy moves across disjoint hyperplane batches",
    "diag grid": "a (p,q)-grid is two families of hyperplanes, consecutively separating within each and fully transverse across",
    "diag rect": "a flat rectangle is an isometrically embedded a-by-b grid graph; L-thick when both sides reach L",
    "diag delta": "the four-point constant is half the defect between the two largest of the three pair-sum distances",
    "diag bigon": "bigon thinness is the largest divergence between two geodesics sharing both endpoints",
    "coneoff build": "coning off convex subcomplexes joins member vertices directly (clique) or through an apex; the two metrics differ by at most a factor of two",
    "coneoff fineness": "an edge lies in few members and two members cross few common hyperplanes when the cone-off is fine",
    "coneoff probe": "counting simple cycles of a fixed length through an edge probes fineness of the cone-off",
    "racg nf": "shortlex normal forms rewrite words using involutions and the commutations of the defining graph",
    "racg ball": "the ball of radius r in the Cayley graph of a right-angled Coxeter group is median",
    "racg squares": "induced 4-cycles of the defining graph generate flats in the group",
    "racg contracting": "a generator's wall is contracting exactly when the generator lies on no induced square",
    "racg jdecomp": "iterating merge-and-close on square joins reaches the canonical minimal join decomposition",
    "racg relhyp": "the group is hyperbolic relative to the decomposition's members unless the iteration swallows the whole graph",
    "sc check": "pieces are common prefixes of distinct symmetrized relators; C'(lambda) bounds pieces below lambda times the relator, T(q) forbids short relator cycles",
    "poly validate": "polygons must close up, embed, and have an even number of at least four sides",
    "poly sc": "pieces are shared boundary paths; C'(lambda) bounds them against both polygons, C(n) forbids covering a boundary by fewer than n pieces, T(n) forbids short link cycles",
    "poly walls": "walls are edge classes under opposite-in-a-polygon; cutting one splits a small-cancellation complex in two",
    "poly dual": "orienting every wall consistently and closing under compatible flips cubulates the wall space into a median graph",
    "poly classify": "every maximal dual cube comes from an isolated edge or from a polygon with twice its dimension in sides",
    "poly project": "a dual vertex projects to the center, midpoint, or vertex of the intersection of its surrounding polygons; R+2 disjoint dual hyperplanes transfer to R disjoint walls",
}


def _plain(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    if isinstance(x, (frozenset, set)):
        items = [_plain(v) for v in x]
        try:
            return sorted(items)
        except TypeError:
            return sorted(items, key=repr)
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


def _read(path: str) -> tuple[str, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8"), {
        "path": path,
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def _result(quantity, value, method=EXACT, witness=None):
    out = {"quantity": quantity, "value": _plain(value), "method": method}
    if witness is not None:
        out["witness"] = _plain(witness)
    return out


def _emit(payload: dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(payload["command"])
        for inp in payload["inputs"]:
            print(f"  input {inp['path']}  sha256:{inp['sha256'][:12]}")
        for k, v in sorted(payload["parameters"].items()):
            print(f"  param {k} = {v}")
        for r in payload["results"]:
            print(f"{r['quantity']}: {r['value']}  [{r['method']}]")
            if "witness" in r:
                print(f"  witness: {r['witness']}")
        if payload["verdict"] is not None:
            print("verdict:", "pass" if payload["verdict"] else "fail")
    return 1 if payload["verdict"] is False else 0


def _load_graph(path: str):
    """The graph in ``path`` as a ``MedianGraph``, and the file's digest."""
    from .formats import parse_graph
    from .median import MedianGraph

    text, digest = _read(path)
    vs, es = parse_graph(text)
    return MedianGraph(vs, es), digest


def _load_median(path: str):
    """As `_load_graph`, refusing a graph that is not median."""
    g, digest = _load_graph(path)
    g.require_median()
    return g, digest


def _load_complex(path: str):
    """The polygonal complex in ``path``, and the file's digest."""
    from .formats import parse_polygons
    from .polygonal import PolygonalComplex

    text, digest = _read(path)
    return PolygonalComplex.from_raw(parse_polygons(text)), digest


def _lambda(text: str) -> Fraction:
    """``--lambda`` as an exact rational; a value that does not parse is bad input."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValidationError(f"--lambda {text} has a zero denominator") from None
    except ValueError as e:
        raise ValidationError(str(e)) from None


# -- command handlers: each returns (inputs, parameters, results, verdict) ---------


def _cmd_median_check(args):
    g, digest = _load_graph(args.file)
    v = g.is_median()
    results = [
        _result("vertices", g.n),
        _result("edges", len(g.edges)),
        _result(
            "is_median",
            v.ok,
            witness=None if v.ok else {"triple": v.witness, "medians": v.medians},
        ),
    ]
    return [digest], {}, results, v.ok


def _cmd_median_hyperplanes(args):
    g, digest = _load_median(args.file)
    hps = g.hyperplanes()
    listing = [
        {
            "index": h.index,
            "dual_edges": h.dual_edges,
            "side_sizes": [len(h.side_a), len(h.side_b)],
            "dimension": h.dimension,
        }
        for h in hps
    ]
    return [digest], {}, [
        _result("hyperplane_count", len(hps)),
        _result("hyperplanes", listing),
    ], None


def _cmd_median_cubes(args):
    g, digest = _load_median(args.file)
    maximal = g.maximal_cubes()
    return [digest], {}, [
        _result("cube_count_by_dimension", {str(k): v for k, v in g.cube_counts().items()}),
        _result("maximal_cube_count", len(maximal)),
        _result(
            "maximal_cubes",
            [
                {"dimension": c.dimension, "vertices": c.vertices}
                for c in sorted(maximal, key=lambda c: (c.dimension, sorted(c.vertices)))
            ],
        ),
    ], None


def _cmd_median_dist(args):
    g, digest = _load_median(args.file)
    d = g.dist_matrix(args.metric)
    ix, iy = g.indices_of([args.x, args.y])
    return [digest], {"metric": args.metric, "x": args.x, "y": args.y}, [
        _result("distance", int(d[ix, iy]))
    ], None


def _cmd_diag_grid(args):
    from .diagnostics import max_grid

    g, digest = _load_median(args.file)
    rep = max_grid(g)
    witness = None
    if rep.witnesses:
        best = rep.witnesses[-1]
        witness = {"verticals": best.verticals, "horizontals": best.horizontals}
    return [digest], {}, [
        _result("grid_pareto", rep.pareto, rep.method),
        _result("grid_thinness", rep.thinness, rep.method, witness),
    ], None


def _cmd_diag_rect(args):
    from .diagnostics import max_thick_rectangle

    # a cap below 1 would only ever report an empty lower bound
    if args.cap < 1:
        raise ValidationError(f"--cap must be at least 1 (got {args.cap})")
    g, digest = _load_median(args.file)
    rep = max_thick_rectangle(g, cap=args.cap)
    witness = None
    if rep.best is not None:
        witness = {"a": rep.best.a, "b": rep.best.b, "embedding": rep.best.embedding}
    return [digest], {"cap": args.cap}, [
        _result("rectangle_pareto", rep.pareto, rep.method),
        _result("rectangle_thickness", rep.thickness, rep.method, witness),
    ], None


def _cmd_diag_delta(args):
    from .diagnostics import delta

    g, digest = _load_median(args.file)
    rep = delta(g, metric=args.metric)
    return [digest], {"metric": args.metric}, [
        _result("delta", rep.value, rep.method, rep.witness)
    ], None


def _cmd_diag_bigon(args):
    from .diagnostics import bigon_thinness

    g, digest = _load_median(args.file)
    rep = bigon_thinness(g, metric=args.metric)
    return [digest], {"metric": args.metric}, [
        _result("bigon_thinness", rep.value, rep.method, rep.witness)
    ], None


def _cmd_coneoff_build(args):
    from .diagnostics import cone_off
    from .formats import parse_subsets

    g, dg = _load_median(args.graph)
    text, ds = _read(args.subs)
    family = parse_subsets(text)
    cone = cone_off(g, family, kind=args.kind)
    results = [
        _result("kind", cone.kind),
        _result("members", sorted(cone.members)),
        _result("vertices", cone.graph.n),
        _result("edges", len(cone.graph.edges)),
    ]
    params = {"kind": args.kind}
    if args.pair:
        x, y = args.pair
        results.append(_result("pair_distance", cone.distance(x, y)))
        params.update({"x": x, "y": y})
    return [dg, ds], params, results, None


def _cmd_coneoff_fineness(args):
    from .diagnostics import fineness_certificate
    from .formats import parse_subsets

    g, dg = _load_median(args.graph)
    text, ds = _read(args.subs)
    cert = fineness_certificate(g, parse_subsets(text))
    return [dg, ds], {}, [
        _result("edge_multiplicity", cert.multiplicity, witness=cert.multiplicity_edge),
        _result("common_crossings", cert.common_crossings, witness=cert.crossing_pair),
    ], None


def _cmd_coneoff_probe(args):
    from .diagnostics import cone_off, cycle_probe
    from .formats import parse_subsets

    g, dg = _load_median(args.graph)
    text, ds = _read(args.subs)
    cone = cone_off(g, parse_subsets(text), kind=args.kind)
    count, method = cycle_probe(cone, tuple(args.edge), args.probe_length)
    return [dg, ds], {
        "kind": args.kind,
        "edge": list(args.edge),
        "probe_length": args.probe_length,
    }, [_result("cycle_count", count, method)], None


def _load_defining(path: str):
    """The defining graph in ``path``, and the file's digest."""
    from .formats import parse_graph
    from .racg import DefiningGraph

    text, digest = _read(path)
    vs, es = parse_graph(text)
    return DefiningGraph(vs, es), digest


def _cmd_racg_nf(args):
    from .racg import normal_form

    dg, digest = _load_defining(args.file)
    nf = normal_form(dg, args.word)
    return [digest], {"word": list(args.word)}, [
        _result("normal_form", str(nf)),
        _result("length", len(nf)),
    ], None


def _cmd_racg_ball(args):
    from .racg import ball

    dg, digest = _load_defining(args.file)
    b = ball(dg, args.radius)
    return [digest], {"radius": args.radius}, [
        _result("radius", b.radius),
        _result("vertices", b.graph.n),
        _result("edges", len(b.graph.edges)),
        _result("identity", b.identity),
    ], None


def _cmd_racg_squares(args):
    dg, digest = _load_defining(args.file)
    squares = dg.induced_squares()
    return [digest], {}, [
        _result("square_count", len(squares)),
        _result("squares", squares),
        _result("square_vertices", frozenset(v for quad in squares for v in quad)),
    ], None


def _cmd_racg_contracting(args):
    from .racg import contracting_generators

    dg, digest = _load_defining(args.file)
    rep = contracting_generators(dg)
    return [digest], {}, [
        _result("contracting", dict(rep.contracting)),
        _result("star_peripherals", rep.star_peripherals),
        _result("join_peripherals", rep.join_peripherals),
    ], None


def _cmd_racg_jdecomp(args):
    from .racg import j_sequence

    dg, digest = _load_defining(args.file)
    rep = j_sequence(dg, seed=args.seed)
    return [digest], {"seed": args.seed}, [
        _result("trace", [list(step) for step in rep.trace]),
        _result("members", rep.members),
        _result("trivial", rep.trivial),
    ], None


def _cmd_racg_relhyp(args):
    from .racg import relhyp_report

    dg, digest = _load_defining(args.file)
    rep = relhyp_report(dg, seed=args.seed)
    return [digest], {"seed": args.seed}, [
        _result("relatively_hyperbolic", rep.relatively_hyperbolic),
        _result("peripherals", rep.peripherals),
        _result("meaning", rep.meaning),
        _result("trace", [list(step) for step in rep.decomposition.trace]),
    ], rep.relatively_hyperbolic


def _cmd_sc_check(args):
    from .smallcancel import check_small_cancellation, presentation_from_text

    text, digest = _read(args.file)
    values = None
    if args.values:
        values = tuple(int(t) for t in args.values.split(","))
    pres = presentation_from_text(text, values=values)
    lam = _lambda(args.lam)
    verdict = check_small_cancellation(pres, lam, t=args.t)
    cp = verdict.cprime
    tv = verdict.t
    results = [
        _result("kind", verdict.kind),
        _result("relator_count", len(pres.relators)),
        _result("symmetrized_count", verdict.member_count),
        _result(
            "Cprime",
            "pass" if cp.passed else "fail",
            witness=None
            if cp.witness is None
            else {
                "piece": cp.witness.word,
                "length": cp.witness.length,
                "relator": cp.witness.relator,
                "ratio": cp.witness.ratio,
            },
        ),
        _result(
            "T",
            "pass" if tv.passed else "fail",
            witness=tv.witness,
        ),
    ]
    if tv.detail:
        results.append(_result("T_detail", tv.detail))
    for note in verdict.notes:
        results.append(_result("note", note))
    params = {"lambda": str(lam), "t": args.t}
    if values is not None:
        params["values"] = list(values)
    results.insert(2, _result("relators", [pres.display(r) for r in pres.relators]))
    return [digest], params, results, cp.passed and tv.passed


def _cmd_poly_validate(args):
    from .formats import parse_polygons
    from .polygonal import PolygonalComplex

    text, digest = _read(args.file)
    raw = parse_polygons(text)
    try:
        x = PolygonalComplex.from_raw(raw)
    except CubekitError as e:
        return [digest], {}, [
            _result("valid", False, witness=str(e))
        ], False
    return [digest], {}, [
        _result("valid", True),
        _result("vertices", len(x.ids)),
        _result("edges", len(x.edges)),
        _result("polygons", len(x.polygons)),
        _result("sides", {pid: x.sides(pid) for pid in sorted(x.polygons)}),
    ], True


def _cmd_poly_sc(args):
    from .polygonal import polygonal_sc_check

    x, digest = _load_complex(args.file)
    rep = polygonal_sc_check(
        x, _lambda(args.lam), n_cover=args.cover, n_link=args.link
    )
    results = [
        _result("piece_count", len(rep.pieces)),
        _result("max_piece", rep.max_piece),
        _result(
            "Cprime",
            "pass" if rep.metric.passed else "fail",
            witness=None
            if rep.metric.witness is None
            else {
                "piece_edges": rep.metric.witness[0].edges,
                "polygon": rep.metric.witness[1],
            },
        ),
        _result(
            "cover",
            "pass" if rep.cover.passed else "fail",
            witness=rep.cover.witness,
        ),
        _result("cover_values", dict(rep.cover.covers)),
        _result(
            "T",
            "pass" if rep.link.passed else "fail",
            witness=rep.link.witness,
        ),
    ]
    params = {"lambda": args.lam, "cover": args.cover, "link": args.link}
    return [digest], params, results, rep.passed


def _cmd_poly_walls(args):
    from .polygonal import walls

    x, digest = _load_complex(args.file)
    ws = walls(x)
    listing = [
        {
            "index": w.index,
            "edges": w.edges,
            "polygons": w.polygons,
            "sides": [sorted(s) for s in w.sides],
            "two_sided": w.two_sided,
        }
        for w in ws
    ]
    return [digest], {}, [
        _result("wall_count", len(ws)),
        _result("walls", listing),
    ], None


def _cmd_poly_dual(args):
    from .polygonal import dual_cube_complex

    x, digest = _load_complex(args.file)
    dc = dual_cube_complex(x)
    g = dc.graph
    results = [
        _result("vertices", g.n),
        _result("edges", len(g.edges)),
        _result("walls", len(dc.walls)),
        _result("hyperplane_walls", list(dc.hyperplane_walls)),
        _result(
            "graph",
            {
                "vertices": list(g.ids),
                "edges": [[g.ids[a], g.ids[b]] for a, b in g.edges],
            },
        ),
        _result("principal", dc.principal),
    ]
    return [digest], {}, results, None


def _render_dual_text(args) -> int:
    from .formats import serialize_graph
    from .polygonal import dual_cube_complex

    x, _ = _load_complex(args.file)
    dc = dual_cube_complex(x)
    g = dc.graph
    print(f"# dual cube complex of {args.file}")
    print(serialize_graph(g.ids, [(g.ids[a], g.ids[b]) for a, b in g.edges]), end="")
    print("# sidecar: wall labels")
    for w in dc.walls:
        print(f"# wall {w.index} : {' '.join(w.edges)}")
    for j, k in enumerate(dc.hyperplane_walls):
        print(f"# hyperplane {j} -> wall {k}")
    for v in x.ids:
        print(f"# principal {v} -> {dc.principal[v]}")
    return 0


def _cmd_poly_classify(args):
    from .polygonal import classify_maximal_cubes, dual_cube_complex

    x, digest = _load_complex(args.file)
    dc = dual_cube_complex(x)
    rep = classify_maximal_cubes(dc)
    return [digest], {}, [
        _result("classified", rep.ok),
        _result(
            "tags",
            [
                {
                    "kind": t.kind,
                    "ref": t.ref,
                    "dimension": t.dimension,
                    "vertices": t.vertices,
                }
                for t in rep.tags
            ],
        ),
        _result(
            "unmatched",
            [{"walls": wset, "vertices": verts} for wset, verts in rep.unmatched],
        ),
    ], rep.ok


def _cmd_poly_project(args):
    from .polygonal import (
        classify_maximal_cubes,
        dual_cube_complex,
        dual_projection,
        separation_transfer,
    )

    x, digest = _load_complex(args.file)
    dc = dual_cube_complex(x)
    rep = classify_maximal_cubes(dc)

    def point_dict(pt):
        out = {"kind": pt.kind, "cell": list(pt.cell), "carrier": pt.carrier}
        if pt.path:
            out["path"] = pt.path
        if pt.note:
            out["note"] = pt.note
        return out

    if not args.other:
        pu = dual_projection(x, dc, args.vertex, rep)
        return [digest], {"vertex": args.vertex}, [
            _result("projection", point_dict(pu))
        ], None
    tr = separation_transfer(x, dc, args.vertex, args.other, rep)
    return [digest], {"vertex": args.vertex, "other": args.other}, [
        _result("projection", point_dict(tr.point_u)),
        _result("other_projection", point_dict(tr.point_w)),
        _result("dual_disjoint", tr.dual_disjoint, witness=tr.dual_family),
        _result("wall_disjoint", tr.wall_disjoint, witness=tr.wall_family),
    ], tr.holds


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="cubekit",
        description="median graphs, hyperbolicity diagnostics, Coxeter "
        "decompositions, small-cancellation checks, polygonal duals",
    )
    root.add_argument("--json", action="store_true", help="emit a JSON report")
    subs = root.add_subparsers(dest="module", required=True)

    def metric_flag(p):
        p.add_argument("--metric", choices=[L1, LINF], default=L1)

    median = subs.add_parser("median").add_subparsers(dest="op", required=True)
    p = median.add_parser("check")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_median_check)
    p = median.add_parser("hyperplanes")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_median_hyperplanes)
    p = median.add_parser("cubes")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_median_cubes)
    p = median.add_parser("dist")
    p.add_argument("file")
    p.add_argument("x")
    p.add_argument("y")
    metric_flag(p)
    p.set_defaults(handler=_cmd_median_dist)

    diag = subs.add_parser("diag").add_subparsers(dest="op", required=True)
    p = diag.add_parser("grid")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_diag_grid)
    p = diag.add_parser("rect")
    p.add_argument("file")
    p.add_argument(
        "--cap", type=int, default=RECT_STATE_CAP,
        help="distinct separation masks to examine before the result is a "
        "lower bound (default %(default)s)",
    )
    p.set_defaults(handler=_cmd_diag_rect)
    p = diag.add_parser("delta")
    p.add_argument("file")
    metric_flag(p)
    p.set_defaults(handler=_cmd_diag_delta)
    p = diag.add_parser("bigon")
    p.add_argument("file")
    metric_flag(p)
    p.set_defaults(handler=_cmd_diag_bigon)

    cone = subs.add_parser("coneoff").add_subparsers(dest="op", required=True)
    p = cone.add_parser("build")
    p.add_argument("graph")
    p.add_argument("subs")
    p.add_argument("--kind", choices=[CLIQUE, APEX], default=CLIQUE)
    p.add_argument("--pair", nargs=2, metavar=("X", "Y"))
    p.set_defaults(handler=_cmd_coneoff_build)
    p = cone.add_parser("fineness")
    p.add_argument("graph")
    p.add_argument("subs")
    p.set_defaults(handler=_cmd_coneoff_fineness)
    p = cone.add_parser("probe")
    p.add_argument("graph")
    p.add_argument("subs")
    p.add_argument("--kind", choices=[CLIQUE, APEX], default=CLIQUE)
    p.add_argument("--edge", nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--probe-length", type=int, default=3)
    p.set_defaults(handler=_cmd_coneoff_probe)

    racg = subs.add_parser("racg").add_subparsers(dest="op", required=True)
    p = racg.add_parser("nf")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    p.set_defaults(handler=_cmd_racg_nf)
    p = racg.add_parser("ball")
    p.add_argument("file")
    p.add_argument("-r", "--radius", type=int, required=True)
    p.set_defaults(handler=_cmd_racg_ball)
    p = racg.add_parser("squares")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_racg_squares)
    p = racg.add_parser("contracting")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_racg_contracting)
    p = racg.add_parser("jdecomp")
    p.add_argument("file")
    p.add_argument("--seed", choices=[SQUARES, LARGE_JOINS], default=SQUARES)
    p.set_defaults(handler=_cmd_racg_jdecomp)
    p = racg.add_parser("relhyp")
    p.add_argument("file")
    p.add_argument("--seed", choices=[SQUARES, LARGE_JOINS], default=SQUARES)
    p.set_defaults(handler=_cmd_racg_relhyp)

    sc = subs.add_parser("sc").add_subparsers(dest="op", required=True)
    p = sc.add_parser("check")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", default="1/4")
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--values", help="comma-separated parameter values")
    p.set_defaults(handler=_cmd_sc_check)

    poly = subs.add_parser("poly").add_subparsers(dest="op", required=True)
    p = poly.add_parser("validate")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_poly_validate)
    p = poly.add_parser("sc")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", default="1/4")
    p.add_argument("--cover", type=int, default=4)
    p.add_argument("--link", type=int, default=4)
    p.set_defaults(handler=_cmd_poly_sc)
    p = poly.add_parser("walls")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_poly_walls)
    p = poly.add_parser("dual")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_poly_dual)
    p = poly.add_parser("classify")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_poly_classify)
    p = poly.add_parser("project")
    p.add_argument("file")
    p.add_argument("vertex")
    p.add_argument("other", nargs="?")
    p.set_defaults(handler=_cmd_poly_project)

    return root


def _print_version() -> int:
    print(f"cubekit {__version__}")
    print("command anchors:")
    for cmd in sorted(ANCHORS):
        print(f"  {cmd}: {ANCHORS[cmd]}")
    return 0


def _fail(e: Exception) -> int:
    """Report an error; its exit code tells a bug and a cap hit from bad input."""
    if not isinstance(e, (CubekitError, OSError, ValueError)):
        # no layer raises any other exception on purpose; imported here so
        # that only a call that reports a bug pays for it
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    print(f"error: {e}", file=sys.stderr)
    if isinstance(e, ConsistencyError):
        return 3
    if isinstance(e, SizeCapError):
        return 4
    return 2


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--version" in argv:
        return _print_version()
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = f"{args.module} {args.op}"
    start = time.perf_counter()
    try:
        # plain-text dual export doubles as the graph-format round-trip surface
        if command == "poly dual" and not args.json:
            return _render_dual_text(args)
        inputs, params, results, verdict = args.handler(args)
    except Exception as e:
        return _fail(e)
    payload = {
        "command": command,
        "inputs": inputs,
        "parameters": _plain(params),
        "results": results,
        "verdict": verdict,
        "anchors": [ANCHORS[command]],
        "duration_s": round(time.perf_counter() - start, 6),
    }
    return _emit(payload, args.json)


if __name__ == "__main__":
    raise SystemExit(main())
