"""Acceptance gate: twelve criteria, one test and one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  Every check is
exact; the timed criteria assert their stated runtime budgets.
"""

import itertools
import random
import time
from fractions import Fraction

import networkx as nx

import bruteforce as bf
from bruteforce import flat_rectangles
import fixtures as fx
from cubekit.diagnostics import (
    CLIQUE,
    EXACT,
    FlatRectangle,
    bigon_thinness,
    bigon_thinness_in,
    cone_off,
    delta,
    max_grid,
    max_thick_rectangle,
    verify_flat_rectangle,
    walls_in_grids,
)
from cubekit.median import L1, LINF, MedianGraph, ram_bound
from cubekit.polygonal import (
    CELL_CUBE,
    EDGE_CUBE,
    classify_maximal_cubes,
    dual_cube_complex,
    dual_projection,
    polygonal_sc_check,
    separation_transfer,
)
from cubekit.racg import (
    LARGE_JOINS,
    SQUARES,
    DefiningGraph,
    ball_walls,
    contracting_generators,
    j_infinity,
    j_sequence,
    relhyp_report,
    validate_decomposition,
)
from cubekit.smallcancel import check_small_cancellation, presentation_from_text

QUARTER = Fraction(1, 4)


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {tag} ({detail})")
    return ok


def to_nx(g: MedianGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.ids)
    h.add_edges_from((g.ids[a], g.ids[b]) for a, b in g.edges)
    return h


# -- 1: median recognition ---------------------------------------------------------


def _random_skeleton(rng: random.Random) -> MedianGraph:
    g = fx.random_tree(rng.randint(2, 14), rng)
    for _ in range(3):
        kind = rng.choice(["tree", "grid", "cube", "path"])
        if kind == "tree":
            f = fx.random_tree(rng.randint(2, 10), rng)
        elif kind == "grid":
            f = fx.grid_graph(rng.randint(1, 4), rng.randint(1, 4))
        elif kind == "cube":
            f = fx.hypercube(rng.randint(1, 5))
        else:
            f = fx.path_graph(rng.randint(1, 7))
        cand = fx.product_graph(g, f)
        if cand.n <= 200:
            g = cand
    return g


def test_01_median_recognition():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    bad = []
    for i in range(50):
        g = _random_skeleton(rng)
        assert g.n <= 200
        if not g.is_median().ok:
            bad.append(i)
    for g in (fx.k23(), fx.c6_with_chord()):
        v = g.is_median()
        cands = bf.median_candidates(g, *v.witness) if v.witness else None
        if v.ok or v.witness is None or len(cands) == 1:
            bad.append("negative")
        elif set(v.medians) != cands:
            bad.append("witness-medians")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    assert _verdict(
        1,
        "median recognition",
        ok,
        f"50 skeletons + 2 negatives with checked witnesses, {elapsed:.1f}s",
    )


# -- 2: linf three-way agreement ---------------------------------------------------


def _longest_disjoint_chain(g: MedianGraph, ix: int, iy: int) -> int:
    # disjoint separating hyperplanes nest toward x, so the maximum
    # pairwise-disjoint family is a longest size-increasing chain
    sides, trans = g.sides, g.transverse
    sep = [j for j in range(sides.shape[0]) if sides[j, ix] != sides[j, iy]]
    if not sep:
        return 0
    sizes = []
    for j in sep:
        row = sides[j] if sides[j, ix] else ~sides[j]
        sizes.append(int(row.sum()))
    order = sorted(range(len(sep)), key=lambda t: sizes[t])
    best = [1] * len(sep)
    for pos, t in enumerate(order):
        for q in order[:pos]:
            if sizes[q] < sizes[t] and not trans[sep[q], sep[t]]:
                best[t] = max(best[t], best[q] + 1)
    return max(best)


def test_02_linf_three_way_agreement():
    mismatches = []
    pairs = 0
    for name, g in fx.named_fixtures().items():
        dm = g.dist_matrix(LINF)
        for ix, iy in itertools.combinations(range(g.n), 2):
            pairs += 1
            x, y = g.ids[ix], g.ids[iy]
            reported = g.distance(x, y, LINF)  # raises on internal chain/BFS split
            chain = _longest_disjoint_chain(g, ix, iy)
            bfs = int(dm[ix, iy])
            if not (reported == chain == bfs):
                mismatches.append((name, x, y, reported, chain, bfs))
            if g.n <= 16:
                sep = [
                    j
                    for j in range(g.sides.shape[0])
                    if g.sides[j, ix] != g.sides[j, iy]
                ]
                size = len(sep)
                while size and not bf.pairwise_disjoint_family(
                    g.transverse, sep, size
                ):
                    size -= 1
                if size != reported:
                    mismatches.append((name, x, y, "subset-brute", size, reported))
    assert _verdict(
        2,
        "linf cone-off = disjoint chain = reported",
        not mismatches,
        f"{pairs} pairs across {len(fx.named_fixtures())} fixtures",
    )


# -- 3: l1 criterion quantifications -----------------------------------------------


def test_03_grid_rectangle_and_l1_bigon_bounds():
    bad = []
    for name, g in fx.named_fixtures().items():
        gr = max_grid(g)
        rr = max_thick_rectangle(g)
        if gr.method != EXACT or rr.method != EXACT:
            bad.append((name, "inexact"))
            continue
        if gr.thinness > rr.thickness + 1:
            bad.append((name, "grid vs rectangle", gr.thinness, rr.thickness))
        if bigon_thinness(g, L1).value > 2 * ram_bound(gr.thinness):
            bad.append((name, "bigon vs ramsey bound"))
    # balanced coordinate-split rectangles inside the n-cubes
    for n in range(2, 9):
        g = fx.hypercube(n)
        h, k = n // 2, n - n // 2
        emb = tuple(
            tuple("1" * i + "0" * (h - i) + "1" * j + "0" * (k - j) for j in range(k + 1))
            for i in range(h + 1)
        )
        rect = FlatRectangle(a=h, b=k, embedding=emb)
        verify_flat_rectangle(g, rect)
        if min(h, k) != n // 2:
            bad.append((n, "thickness"))
    assert _verdict(
        3,
        "grid <= rectangle + 1, l1 bigon <= 2 Ram, n-cube rectangles",
        not bad,
        f"{len(fx.named_fixtures())} fixtures, cubes up to dim 8",
    )


# -- 4: linf criterion quantifications ---------------------------------------------


def test_04_linf_delta_and_bigon_bounds():
    bad = []
    for name, g in fx.named_fixtures().items():
        assert g.n <= 120
        gr = max_grid(g)
        dv = delta(g, LINF).value
        for p, q in gr.pareto:
            if min(p, q) > 4 * dv + 2:
                bad.append((name, "grid side vs delta", (p, q), dv))
        if bigon_thinness(g, LINF).value > gr.thinness + 3:
            bad.append((name, "linf bigon vs thinness"))
    assert _verdict(
        4,
        "grid min-side <= 4 delta_inf + 2, linf bigon <= thinness + 3",
        not bad,
        f"{len(fx.named_fixtures())} fixtures, |V| <= 120",
    )


# -- 5: cone-off bigon bound -------------------------------------------------------


def _grid_rows(a, b):
    return {f"r{y}": [f"{x},{y}" for x in range(a + 1)] for y in range(b + 1)}


def _grid_cols(a, b):
    return {f"c{x}": [f"{x},{y}" for y in range(b + 1)] for x in range(a + 1)}


def _cube_halves(n, coord):
    vs = ["".join(bits) for bits in itertools.product("01", repeat=n)]
    return {
        f"h{coord}{s}": [v for v in vs if v[coord] == s] for s in "01"
    }


def _tree_stars(g: MedianGraph):
    fam = {}
    for i, v in enumerate(g.ids):
        if len(g.adj[i]) >= 2:
            fam[f"star{v}"] = [v] + [g.ids[j] for j in g.adj[i]]
    return fam


def _coneoff_fixtures():
    cases = []
    for a, b in [(3, 3), (4, 3), (4, 4), (5, 4), (6, 6)]:
        cases.append((fx.grid_graph(a, b), _grid_rows(a, b)))
        cases.append((fx.grid_graph(a, b), _grid_cols(a, b)))
    cases.append((fx.grid_graph(4, 4), {**_grid_rows(4, 4), **_grid_cols(4, 4)}))
    cases.append((fx.grid_graph(2, 2), {"all": [f"{x},{y}" for x in range(3) for y in range(3)]}))
    cases.append((fx.hypercube(3), _cube_halves(3, 0)))
    cases.append((fx.hypercube(4), _cube_halves(4, 0)))
    cases.append((fx.hypercube(5), _cube_halves(5, 0)))
    cases.append((fx.hypercube(4), {**_cube_halves(4, 0), **_cube_halves(4, 1)}))
    cases.append((fx.tree_y(), _tree_stars(fx.tree_y())))
    tr = fx.random_tree(24, random.Random(7))
    cases.append((tr, _tree_stars(tr)))
    sxp = fx.product_graph(fx.grid_graph(1, 1), fx.path_graph(3))
    square_ids = fx.grid_graph(1, 1).ids
    path_ids = fx.path_graph(3).ids
    cases.append(
        (sxp, {f"s{a}": [f"{a}|{b}" for b in path_ids] for a in square_ids})
    )
    st = fx.staircase(5)
    squares = {}
    for i, v in enumerate(st.ids):
        x, y = map(int, v.split(","))
        cell = [f"{x},{y}", f"{x + 1},{y}", f"{x},{y + 1}", f"{x + 1},{y + 1}"]
        if all(c in st.index for c in cell):
            squares[f"q{x}_{y}"] = cell
    cases.append((st, squares))
    return cases


def test_05_coneoff_bigon_bound():
    cases = _coneoff_fixtures()
    assert len(cases) == 20
    bad = []
    for i, (g, family) in enumerate(cases):
        co = cone_off(g, family, CLIQUE)
        rects, method, _ = flat_rectangles(g)
        assert method == EXACT
        thick = [r for r in rects if min(r.a, r.b) >= 1]
        c_bound = max((co.diameter_of(r.vertices) for r in thick), default=1)
        bound = max(2 * 1, c_bound)
        measured = bigon_thinness_in(g, co.base_distance_matrix()).value
        if measured > bound:
            bad.append((i, measured, bound))
    assert _verdict(
        5,
        "base bigons are max(2L, C)-thin in the cone-off",
        not bad,
        "20 convex-family fixtures, L = 1",
    )


# -- 6: racg verdicts --------------------------------------------------------------

C4 = (list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
C5 = (list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
PATH4 = (list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
C4_PENDANT = (list("abcdp"), C4[1] + [("a", "p")])
TWO_SQUARES = (
    ["a1", "a2", "a3", "a4", "m", "b1", "b2", "b3", "b4"],
    [
        ("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a1"),
        ("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b1"),
        ("a1", "m"), ("m", "b1"),
    ],
)
K24 = (list("xypqrs"), [(a, b) for a in "xy" for b in "pqrs"])
C6 = ([str(i) for i in range(6)], [(str(i), str((i + 1) % 6)) for i in range(6)])
K33 = (list("abcxyz"), [(u, v) for u in "abc" for v in "xyz"])
THREE_SQUARES = (
    [f"a{i}" for i in range(1, 5)] + ["m1"] + [f"b{i}" for i in range(1, 5)]
    + ["m2"] + [f"c{i}" for i in range(1, 5)],
    [
        ("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a1"),
        ("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b1"),
        ("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c1"),
        ("a1", "m1"), ("m1", "b1"), ("b2", "m2"), ("m2", "c1"),
    ],
)
SHARED_VERTEX = (
    ["a1", "a2", "a3", "a4", "b2", "b3", "b4"],
    [
        ("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a1"),
        ("a1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "a1"),
    ],
)
C4_ISOLATED = (list("abcdz"), C4[1])

A_SQ = frozenset(["a1", "a2", "a3", "a4"])
B_SQ = frozenset(["b1", "b2", "b3", "b4"])
C_SQ = frozenset(["c1", "c2", "c3", "c4"])


def _hand_built_decompositions():
    # twenty valid join decompositions, each paired with its defining graph
    out = []
    ts = TWO_SQUARES
    out += [
        (ts, [A_SQ | {"m"}, B_SQ]),
        (ts, [A_SQ | {"m"}, B_SQ | {"m"}]),
        (ts, [A_SQ, B_SQ]),
        (ts, [A_SQ, B_SQ | {"m"}]),
        (ts, [frozenset(ts[0])]),
    ]
    out += [
        (C4_PENDANT, [frozenset("abcd")]),
        (C4_PENDANT, [frozenset("abcdp")]),
        (C4_PENDANT, [frozenset("abcd"), frozenset("ap")]),
    ]
    out.append((C4, [frozenset("abcd")]))
    out.append((C5, [frozenset("abcde")]))
    out.append((PATH4, [frozenset("abcd")]))
    out.append((K24, [frozenset(K24[0])]))
    out.append((C6, [frozenset(C6[0])]))
    out += [
        (THREE_SQUARES, [A_SQ | {"m1"}, B_SQ | {"m1", "m2"}, C_SQ | {"m2"}]),
        (THREE_SQUARES, [A_SQ, B_SQ, C_SQ]),
        (THREE_SQUARES, [frozenset(THREE_SQUARES[0])]),
    ]
    out += [
        (SHARED_VERTEX, [frozenset(["a1", "a2", "a3", "a4"]), frozenset(["a1", "b2", "b3", "b4"])]),
        (SHARED_VERTEX, [frozenset(SHARED_VERTEX[0])]),
    ]
    out.append((K33, [frozenset(K33[0])]))
    out.append((C4_ISOLATED, [frozenset("abcd")]))
    return out


def test_06_racg_verdicts():
    t0 = time.perf_counter()
    bad = []
    if relhyp_report(DefiningGraph(*C4)).relatively_hyperbolic:
        bad.append("C4")
    rep5 = relhyp_report(DefiningGraph(*C5))
    if not rep5.relatively_hyperbolic or rep5.peripherals != ():
        bad.append("C5")
    rep2 = relhyp_report(DefiningGraph(*TWO_SQUARES))
    if not rep2.relatively_hyperbolic or set(rep2.peripherals) != {A_SQ, B_SQ}:
        bad.append("two squares")
    rng = random.Random(17)
    for i in range(100):
        n = rng.randint(2, 10)
        vs = [f"g{k}" for k in range(n)]
        es = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.4]
        dg = DefiningGraph(vs, es)
        if set(j_sequence(dg, SQUARES).members) != set(
            j_sequence(dg, LARGE_JOINS).members
        ):
            bad.append(("seed", i))
    decomps = _hand_built_decompositions()
    assert len(decomps) == 20
    for i, (spec, dec) in enumerate(decomps):
        dg = DefiningGraph(*spec)
        if not validate_decomposition(dg, dec).ok:
            bad.append(("invalid decomposition", i))
            continue
        for m in j_infinity(dg):
            if not any(m <= other for other in dec):
                bad.append(("not minimal", i, sorted(m)))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    assert _verdict(
        6,
        "relative hyperbolicity verdicts, seed invariance, minimality",
        ok,
        f"3 named + 100 random + 20 decompositions, {elapsed:.1f}s",
    )


# -- 7: contracting characterization -----------------------------------------------


def test_07_contracting_matches_ball_check():
    bad = []
    for spec in (C4, C5, PATH4, C4_PENDANT):
        dg = DefiningGraph(*spec)
        verdicts = dict(contracting_generators(dg).contracting)
        bw = ball_walls(dg, 3)
        for n in (2, 3):
            walls = walls_in_grids(bw.system, n)
            for v, is_contracting in verdicts.items():
                found = bw.generator_wall(v) in walls
                if found == is_contracting:
                    bad.append((spec[0], v, n))
    assert _verdict(
        7,
        "graph-side contracting verdict matches the ball grid check",
        not bad,
        "C4, C5, P4, C4+pendant at radius 3, n <= 3",
    )


# -- 8: small-cancellation fixtures ------------------------------------------------


def fixture_g(k, values="1,2,3"):
    return f"generators a b\nparam n = {values}\nrelator (a^n b^n)^{k}\n"


def fixture_k(k):
    return (
        "factor F1 free-abelian 2 a b\n"
        "factor F2 free-abelian 2 c d\n"
        "param n = 1,2\n"
        f"relator (a^n b^n c^n d^n)^{k}\n"
    )


def fixture_h(orders, k):
    p, q, r, s = orders
    return (
        f"factor P cyclic {p} a\n"
        f"factor Q cyclic {q} b\n"
        f"factor R cyclic {r} c\n"
        f"factor S cyclic {s} d\n"
        "param n = 1,2\n"
        f"relator [(a b)^n, (c d)^n]^{k}\n"
    )


def test_08_small_cancellation_fixtures():
    t0 = time.perf_counter()
    bad = []
    v5 = check_small_cancellation(presentation_from_text(fixture_g(5)), QUARTER)
    if not (v5.cprime.passed and v5.t.passed):
        bad.append("k=5")
    v4 = check_small_cancellation(presentation_from_text(fixture_g(4)), QUARTER)
    if v4.cprime.passed or not v4.t.passed:
        bad.append("k=4 verdicts")
    elif v4.cprime.witness is None or v4.cprime.witness.length != 2:
        bad.append("k=4 witness")
    for label, text in [
        ("free-abelian k=5", fixture_k(5)),
        ("cyclic 4,4,4,4 k=5", fixture_h((4, 4, 4, 4), 5)),
        ("cyclic 5,6,7,8 k=5", fixture_h((5, 6, 7, 8), 5)),
    ]:
        v = check_small_cancellation(presentation_from_text(text), QUARTER)
        if not (v.cprime.passed and v.t.passed):
            bad.append(label)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    assert _verdict(
        8,
        "power-relator verdicts with explicit failure witness",
        ok,
        f"k=5 pass, k=4 length-2 piece, free products pass, {elapsed:.1f}s",
    )


# -- 9-11: polygonal cubulation ----------------------------------------------------


def sc_complexes():
    return {
        "square": fx.square_complex(),
        "hexagon": fx.ngon_complex(6),
        "octagon": fx.ngon_complex(8),
        "two_hexagons": fx.two_hexagons_complex(),
        "hex_chain_3": fx.hex_chain_complex(3),
        "hex_chain_4": fx.hex_chain_complex(4),
        "square_pendant": fx.square_pendant_complex(),
        "corner_squares": fx.corner_squares_complex(),
        "lone_edge": fx.lone_edge_complex(),
    }


def test_09_cubulation_of_sc_complexes():
    bad = []
    for name, x in sc_complexes().items():
        if not polygonal_sc_check(x, QUARTER).passed:
            bad.append((name, "not a small-cancellation fixture"))
            continue
        dc = dual_cube_complex(x)
        if not dc.graph.is_median().ok:
            bad.append((name, "dual not median"))
        rep = classify_maximal_cubes(dc)
        if not rep.ok or rep.unmatched:
            bad.append((name, "unclassified cubes"))
        for t in rep.tags:
            if t.kind == CELL_CUBE and 2 * t.dimension != x.sides(t.ref):
                bad.append((name, "cell dimension", t.ref))
            if t.kind == EDGE_CUBE and t.dimension != 1:
                bad.append((name, "edge dimension", t.ref))
    for n in (2, 3, 4):
        dual = dual_cube_complex(fx.ngon_complex(2 * n)).graph
        if not nx.is_isomorphic(to_nx(dual), nx.hypercube_graph(n)):
            bad.append((2 * n, "gon dual is not the cube"))
    assert _verdict(
        9,
        "duals are median, cubes classify, 2n-gon duals are n-cubes",
        not bad,
        f"{len(sc_complexes())} fixtures + n = 2, 3, 4",
    )


def test_10_no_44_grid_in_duals():
    bad = []
    for name, x in sc_complexes().items():
        rep = max_grid(dual_cube_complex(x).graph)
        if rep.method != EXACT or rep.thinness > 3:
            bad.append((name, rep.thinness, rep.method))
    assert _verdict(
        10,
        "grid thinness <= 3 on every small-cancellation dual",
        not bad,
        f"{len(sc_complexes())} duals",
    )


def _cell_vertices(x, tag):
    if tag.kind == CELL_CUBE:
        return set(x.boundary[tag.ref])
    return set(x.edges[tag.ref])


def test_11_projection_and_separation_transfer():
    bad = []
    for name, x in sc_complexes().items():
        dc = dual_cube_complex(x)
        rep = classify_maximal_cubes(dc)
        tag_by_verts = {t.vertices: t for t in rep.tags}
        maxcubes = dc.graph.maximal_cubes()
        for v in dc.graph.ids:
            through = [c for c in maxcubes if v in c.vertices]
            if not through:
                continue
            cells = [_cell_vertices(x, tag_by_verts[c.vertices]) for c in through]
            if not set.intersection(*cells):
                bad.append((name, v, "empty cell intersection"))
            dual_projection(x, dc, v, rep)  # raises on any violation
    exercised = {}
    for cname, x in [
        ("square_chain_6", fx.square_chain_complex(6)),
        ("hex_chain_5", fx.hex_chain_complex(5)),
        ("hex_chain_6", fx.hex_chain_complex(6)),
    ]:
        dc = dual_cube_complex(x)
        rep = classify_maximal_cubes(dc)
        most = 0
        for u, w in itertools.combinations(dc.graph.ids, 2):
            tr = separation_transfer(x, dc, u, w, rep)
            if not tr.holds:
                bad.append((cname, u, w, tr.dual_disjoint, tr.wall_disjoint))
            most = max(most, tr.dual_disjoint)
        exercised[cname] = most
    # R = 3 must actually occur: some pair with at least five disjoint dual walls
    if min(exercised.values()) < 5:
        bad.append(("transfer never exercised R = 3", exercised))
    assert _verdict(
        11,
        "nonempty cell intersections and separation transfer",
        not bad,
        f"projections on {len(sc_complexes())} duals; transfer on 3 chains, "
        f"max chains {sorted(exercised.values())}",
    )


# -- 12: brute-force oracle equivalence --------------------------------------------


def test_12_bruteforce_oracle_equivalence():
    graphs = dict(fx.named_fixtures())
    for name, x in sc_complexes().items():
        graphs[f"dual_{name}"] = dual_cube_complex(x).graph
    bad = []
    grid_count = rect_count = 0
    for name, g in graphs.items():
        if g.sides.shape[0] <= 14:
            grid_count += 1
            rep = max_grid(g)
            if rep.method != EXACT or set(rep.pareto) != bf.grid_pareto_bruteforce(
                g.sides, g.transverse
            ):
                bad.append((name, "grid"))
        if g.n <= 40:
            rect_count += 1
            rects, method, _ = flat_rectangles(g)
            mine = {(min(r.a, r.b), max(r.a, r.b)) for r in rects}
            if method != EXACT or mine != bf.rectangle_sizes_bruteforce(g):
                bad.append((name, "rectangles"))
    assert _verdict(
        12,
        "grid and rectangle searches match subset brute force",
        not bad,
        f"{grid_count} grid comparisons, {rect_count} rectangle comparisons",
    )
