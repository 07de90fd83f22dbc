"""Shared graph builders for the test suite.

Vertex ids follow simple conventions: grid vertices are "x,y", hypercube
vertices are binary strings, product vertices join the factor ids with "|".
"""

from __future__ import annotations

import gc
import itertools
import random

from cubekit.median import MedianGraph
from cubekit.polygonal import PolygonalComplex


def path_graph(length: int) -> MedianGraph:
    """Path with `length` edges, vertices "0" .. "length"."""
    vs = [str(i) for i in range(length + 1)]
    es = [(str(i), str(i + 1)) for i in range(length)]
    return MedianGraph(vs, es)


def cycle_graph(n: int) -> MedianGraph:
    vs = [str(i) for i in range(n)]
    es = [(str(i), str((i + 1) % n)) for i in range(n)]
    return MedianGraph(vs, es)


def grid_graph(a: int, b: int) -> MedianGraph:
    """Grid [0,a] x [0,b] (a, b = edge counts per side)."""
    vs = [f"{x},{y}" for x in range(a + 1) for y in range(b + 1)]
    es = []
    for x in range(a + 1):
        for y in range(b + 1):
            if x < a:
                es.append((f"{x},{y}", f"{x + 1},{y}"))
            if y < b:
                es.append((f"{x},{y}", f"{x},{y + 1}"))
    return MedianGraph(vs, es)


def hypercube(n: int) -> MedianGraph:
    vs = ["".join(bits) for bits in itertools.product("01", repeat=n)] if n else ["0"]
    if n == 0:
        return MedianGraph(vs, [])
    es = []
    for v in vs:
        for i in range(n):
            if v[i] == "0":
                w = v[:i] + "1" + v[i + 1 :]
                es.append((v, w))
    return MedianGraph(vs, es)


def k23() -> MedianGraph:
    vs = ["a", "b", "1", "2", "3"]
    es = [(x, y) for x in "ab" for y in "123"]
    return MedianGraph(vs, es)


def c6_with_chord() -> MedianGraph:
    """Six-cycle plus a short chord; the chord makes a triangle."""
    g = [str(i) for i in range(6)]
    es = [(str(i), str((i + 1) % 6)) for i in range(6)] + [("0", "2")]
    return MedianGraph(g, es)


def random_tree(n: int, rng: random.Random) -> MedianGraph:
    vs = [str(i) for i in range(n)]
    es = [(str(rng.randrange(i)), str(i)) for i in range(1, n)]
    return MedianGraph(vs, es)


def product_graph(g1: MedianGraph, g2: MedianGraph) -> MedianGraph:
    vs = [f"{a}|{b}" for a in g1.ids for b in g2.ids]
    es = []
    for a in g1.ids:
        for u, v in g2.edges:
            es.append((f"{a}|{g2.ids[u]}", f"{a}|{g2.ids[v]}"))
    for u, v in g1.edges:
        for b in g2.ids:
            es.append((f"{g1.ids[u]}|{b}", f"{g1.ids[v]}|{b}"))
    return MedianGraph(vs, es)


def cyclic_garbage(call) -> int:
    """How many unreachable objects in reference cycles `call()` leaves for
    the cycle collector (which is off while it runs)."""
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        gc.enable()


def lshape() -> tuple[MedianGraph, list[str]]:
    """Unit square plus the L-shaped vertex set used in convexity tests."""
    g = grid_graph(1, 1)
    return g, ["0,0", "1,0", "1,1"]


def tree_y() -> MedianGraph:
    """A tripod: three legs of length 2 glued at a center."""
    vs = ["c"] + [f"{leg}{i}" for leg in "abz" for i in (1, 2)]
    es = []
    for leg in "abz":
        es.append(("c", f"{leg}1"))
        es.append((f"{leg}1", f"{leg}2"))
    return MedianGraph(vs, es)


def named_fixtures() -> dict[str, MedianGraph]:
    """The standing registry of small median-graph fixtures (all <= 200 vertices)."""
    reg = {
        "single_vertex": MedianGraph(["v"], []),
        "single_edge": path_graph(1),
        "path4": path_graph(4),
        "path7": path_graph(7),
        "square": grid_graph(1, 1),
        "grid_3x2": grid_graph(3, 2),
        "grid_2x2": grid_graph(2, 2),
        "grid_3x3": grid_graph(3, 3),
        "grid_5x4": grid_graph(5, 4),
        "grid_4x4": grid_graph(4, 4),
        "grid_6x6": grid_graph(6, 6),
        "cube3": hypercube(3),
        "cube4": hypercube(4),
        "cube5": hypercube(5),
        "tripod": tree_y(),
        "tree_rand": random_tree(24, random.Random(7)),
        "tree_x_path": product_graph(tree_y(), path_graph(2)),
        "square_x_path": product_graph(grid_graph(1, 1), path_graph(3)),
        "staircase": staircase(5),
    }
    return reg


def staircase(steps: int) -> MedianGraph:
    """A staircase strip of unit squares, a convex-corner-rich median graph."""
    vs = set()
    es = set()

    def add_square(x, y):
        corners = [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]
        for c in corners:
            vs.add(c)
        for a, b in [
            ((x, y), (x + 1, y)),
            ((x, y), (x, y + 1)),
            ((x + 1, y), (x + 1, y + 1)),
            ((x, y + 1), (x + 1, y + 1)),
        ]:
            es.add((a, b))

    for i in range(steps):
        add_square(i, i)
        add_square(i + 1, i)
    name = lambda c: f"{c[0]},{c[1]}"
    return MedianGraph(
        sorted(name(v) for v in vs),
        sorted((name(a), name(b)) for a, b in es),
    )


def line_arrangement_graph(rng: random.Random, points: int = 12, lines: int = 7) -> MedianGraph:
    """The cubulation of random lines through a random planar point set.

    Each line that leaves points on both sides, and splits them as no
    earlier line did, is a wall, its sides the points on either side; two
    lines cross when all four quadrants hold points.  The vertices are the orientations, one side per wall, whose
    chosen sides pairwise meet (named "o" and the chosen side of each wall,
    as ``bruteforce.dual_orientations_brute`` does), and the edges are the
    single flips.  The result is median but rarely a product.
    """
    pts = [(rng.randrange(100), rng.randrange(100)) for _ in range(points)]
    sides = []
    while len(sides) < lines:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        # integer points never lie on a line at a half-integer offset
        c = rng.randrange(100 * (abs(a) + abs(b)) + 1) + 0.5
        side = frozenset(i for i, (x, y) in enumerate(pts) if a * x + b * y < c)
        split = (side, frozenset(range(points)) - side)
        if side and split[1] and not any(side in old for old in sides):
            sides.append(split)
    chosen = [()]
    for k, wall in enumerate(sides):
        chosen = [
            o + (s,) for o in chosen for s in (0, 1)
            if all(wall[s] & sides[i][t] for i, t in enumerate(o))
        ]
    names = ["o" + "".join(map(str, o)) for o in chosen]
    known = set(names)
    edges = []
    for name in names:
        for k in range(1, len(sides) + 1):
            other = name[:k] + ("1" if name[k] == "0" else "0") + name[k + 1 :]
            if name < other and other in known:
                edges.append((name, other))
    return MedianGraph(names, edges)


# polygonal complexes


def square_complex() -> PolygonalComplex:
    es = {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "d"), "e4": ("d", "a")}
    return PolygonalComplex(
        ["a", "b", "c", "d"], es, {"P": [(e, 1) for e in es]}
    )


def ngon_complex(sides: int) -> PolygonalComplex:
    vs = [f"v{i}" for i in range(sides)]
    es = {f"e{i}": (f"v{i}", f"v{(i + 1) % sides}") for i in range(sides)}
    return PolygonalComplex(vs, es, {"P": [(f"e{i}", 1) for i in range(sides)]})


def lone_edge_complex() -> PolygonalComplex:
    return PolygonalComplex(["a", "b"], {"e": ("a", "b")}, {})


def square_pendant_complex() -> PolygonalComplex:
    es = {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "d"), "e4": ("d", "a"),
          "p": ("d", "t")}
    return PolygonalComplex(
        ["a", "b", "c", "d", "t"], es,
        {"P": [("e1", 1), ("e2", 1), ("e3", 1), ("e4", 1)]},
    )


def two_hexagons_complex() -> PolygonalComplex:
    vs = [f"v{i}" for i in range(6)] + [f"w{i}" for i in range(4)]
    es = {f"e{i}": (f"v{i}", f"v{(i + 1) % 6}") for i in range(6)}
    es.update({"f0": ("v1", "w0"), "f1": ("w0", "w1"), "f2": ("w1", "w2"),
               "f3": ("w2", "w3"), "f4": ("w3", "v0")})
    return PolygonalComplex(
        vs, es,
        {"P": [(f"e{i}", 1) for i in range(6)],
         "Q": [("e0", 1), ("f0", 1), ("f1", 1), ("f2", 1), ("f3", 1), ("f4", 1)]},
    )


def hex_chain_complex(n: int) -> PolygonalComplex:
    """n hexagons in a row, consecutive ones sharing one edge."""
    vs = []
    es = {}
    ps = {}
    for i in range(n):
        vs += [f"t{i}.0", f"t{i}.1", f"b{i}.0", f"b{i}.1"]
        es[f"s{i}"] = (f"t{i}.0", f"b{i}.0")
        es[f"ta{i}"] = (f"t{i}.0", f"t{i}.1")
        es[f"tb{i}"] = (f"t{i}.1", f"t{i + 1}.0" if i + 1 < n else "t.end")
        es[f"ba{i}"] = (f"b{i}.0", f"b{i}.1")
        es[f"bb{i}"] = (f"b{i}.1", f"b{i + 1}.0" if i + 1 < n else "b.end")
        nxt = f"s{i + 1}" if i + 1 < n else "s.end"
        ps[f"P{i}"] = [(f"s{i}", -1), (f"ta{i}", 1), (f"tb{i}", 1),
                       (nxt, 1), (f"bb{i}", -1), (f"ba{i}", -1)]
    vs += ["t.end", "b.end"]
    es["s.end"] = ("t.end", "b.end")
    return PolygonalComplex(vs, es, ps)


def square_chain_complex(n: int) -> PolygonalComplex:
    vs = [f"t{i}" for i in range(n + 1)] + [f"b{i}" for i in range(n + 1)]
    es = {f"v{i}": (f"t{i}", f"b{i}") for i in range(n + 1)}
    es.update({f"top{i}": (f"t{i}", f"t{i + 1}") for i in range(n)})
    es.update({f"bot{i}": (f"b{i}", f"b{i + 1}") for i in range(n)})
    ps = {f"P{i}": [(f"top{i}", 1), (f"v{i + 1}", 1), (f"bot{i}", -1), (f"v{i}", -1)]
          for i in range(n)}
    return PolygonalComplex(vs, es, ps)


def three_square_fan_complex() -> PolygonalComplex:
    """Three squares around one vertex, consecutive ones sharing a spoke."""
    vs = ["v0", "p1", "q1", "p2", "q2", "p3", "q3"]
    es = {"e1": ("v0", "p1"), "f1": ("p1", "q1"), "g1": ("q1", "p2"),
          "e2": ("p2", "v0"), "f2": ("p2", "q2"), "g2": ("q2", "p3"),
          "e3": ("p3", "v0"), "f3": ("p3", "q3"), "g3": ("q3", "p1")}
    ps = {"S1": [("e1", 1), ("f1", 1), ("g1", 1), ("e2", 1)],
          "S2": [("e2", -1), ("f2", 1), ("g2", 1), ("e3", 1)],
          "S3": [("e3", -1), ("f3", 1), ("g3", 1), ("e1", -1)]}
    return PolygonalComplex(vs, es, ps)


def corner_squares_complex() -> PolygonalComplex:
    """Two squares sharing exactly one vertex."""
    es = {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "d"), "e4": ("d", "a"),
          "f1": ("c", "x"), "f2": ("x", "y"), "f3": ("y", "z"), "f4": ("z", "c")}
    return PolygonalComplex(
        ["a", "b", "c", "d", "x", "y", "z"], es,
        {"P": [("e1", 1), ("e2", 1), ("e3", 1), ("e4", 1)],
         "Q": [("f1", 1), ("f2", 1), ("f3", 1), ("f4", 1)]},
    )


def twice_through_hexagon_complex(tail: bool = False) -> PolygonalComplex:
    """Squares P (0 1 6 3) and Q (1 4 5 6), a hexagon R (0 1 4 5 3 6) and a
    pendant edge 5-2.  One wall passes twice through R, through the opposite
    pairs 01/53 and 14/36, and also takes 56: its edges 01 and 36 have both
    ends on its side {0, 1, 3, 6}, which holds the whole boundary of P.

    ``tail`` adds a pendant edge 6-7, and vertex 6 then projects to itself.
    By the sides alone that wall separates vertex 5 both from vertex 6 and
    from P's centre; only the pair at vertex 6 keeps it past the cell test,
    so the two pairs have one side mask and two wall masks."""
    es = {"e01": ("0", "1"), "e03": ("0", "3"), "e06": ("0", "6"), "e14": ("1", "4"),
          "e16": ("1", "6"), "e35": ("3", "5"), "e36": ("3", "6"), "e45": ("4", "5"),
          "e56": ("5", "6"), "e25": ("2", "5")}
    if tail:
        es["e67"] = ("6", "7")
    return PolygonalComplex(
        list("01234567" if tail else "0123456"), es,
        {"P": [("e01", 1), ("e16", 1), ("e36", -1), ("e03", -1)],
         "Q": [("e14", 1), ("e45", 1), ("e56", 1), ("e16", -1)],
         "R": [("e01", 1), ("e14", 1), ("e45", 1), ("e35", -1), ("e36", 1),
               ("e06", -1)]},
    )


def shared_path_complex(sides: int, overlap: int) -> PolygonalComplex:
    """Two polygons with `sides` sides sharing a path of `overlap` edges."""
    vs = [f"v{i}" for i in range(sides)]
    es = {f"e{i}": (f"v{i}", f"v{(i + 1) % sides}") for i in range(sides)}
    extra = sides - overlap - 1
    vs += [f"w{i}" for i in range(extra)]
    tail = [f"v{overlap}"] + [f"w{i}" for i in range(extra)] + ["v0"]
    for i in range(len(tail) - 1):
        es[f"f{i}"] = (tail[i], tail[i + 1])
    ps = {"P": [(f"e{i}", 1) for i in range(sides)],
          "Q": [(f"e{i}", 1) for i in range(overlap)]
               + [(f"f{i}", 1) for i in range(len(tail) - 1)]}
    return PolygonalComplex(vs, es, ps)


def covered_square_complex(wrap: bool = False) -> PolygonalComplex:
    """A square whose boundary is covered by two length-2 pieces.

    With wrap=True the first piece sits astride the square's starting
    corner, exercising arcs that cross position zero.
    """
    es = {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "d"), "e4": ("d", "a")}
    vs = ["a", "b", "c", "d", "q1", "q2", "q3", "r1", "r2", "r3"]
    if wrap:
        es.update({"fq0": ("b", "q1"), "fq1": ("q1", "q2"), "fq2": ("q2", "q3"),
                   "fq3": ("q3", "d")})
        q = [("e4", 1), ("e1", 1), ("fq0", 1), ("fq1", 1), ("fq2", 1), ("fq3", 1)]
        es.update({"fr0": ("d", "r1"), "fr1": ("r1", "r2"), "fr2": ("r2", "r3"),
                   "fr3": ("r3", "b")})
        r = [("e2", 1), ("e3", 1), ("fr0", 1), ("fr1", 1), ("fr2", 1), ("fr3", 1)]
    else:
        es.update({"fq0": ("c", "q1"), "fq1": ("q1", "q2"), "fq2": ("q2", "q3"),
                   "fq3": ("q3", "a")})
        q = [("e1", 1), ("e2", 1), ("fq0", 1), ("fq1", 1), ("fq2", 1), ("fq3", 1)]
        es.update({"fr0": ("a", "r1"), "fr1": ("r1", "r2"), "fr2": ("r2", "r3"),
                   "fr3": ("r3", "c")})
        r = [("e3", 1), ("e4", 1), ("fr0", 1), ("fr1", 1), ("fr2", 1), ("fr3", 1)]
    return PolygonalComplex(
        vs, es,
        {"P": [("e1", 1), ("e2", 1), ("e3", 1), ("e4", 1)], "Q": q, "R": r},
    )
