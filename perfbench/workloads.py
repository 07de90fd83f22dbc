"""The three benchmark workloads: seeded inputs, job lists and output checks.

A workload is a fixed sequence of jobs run one at a time.  Most jobs are
``cubekit --json ...`` command lines; the few operations without a
subcommand are library calls.  Every check compares the output with a
closed form from ``families`` or with a fixed verdict of the acceptance
suite, never with another answer of the code under test.  A check returns
the method tags of the capped searches it saw (grid, rectangle, cycle probe
and contracting verdicts) and raises ``CheckError`` on a mismatch.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import families as fm

WORKLOADS = ("median-recognition", "hyperbolicity-ladder", "groups-and-complexes")

EXACT = "exact"


class CheckError(Exception):
    """An output disagrees with the expected answer."""


@dataclass
class Job:
    id: str
    check: Callable
    argv: tuple[str, ...] | None = None  # run as ``cubekit --json *argv``
    call: Callable | None = None  # library call taking the module namespace
    exit_code: int = 0


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def results(payload: dict) -> dict:
    return {r["quantity"]: r for r in payload["results"]}


def value(payload: dict, quantity: str):
    return results(payload)[quantity]["value"]


class Inputs:
    """Writes generated input files into the run's work directory."""

    def __init__(self, workdir: Path, rng: random.Random):
        self.workdir = workdir
        self.rng = rng
        workdir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def graph(self, name: str, vertices, edges) -> str:
        return self.write(f"{name}.graph", fm.graph_text(vertices, edges, self.rng))


def build(name: str, seed: int, small: bool, workdir: Path, ck) -> list[Job]:
    by_name = {
        "median-recognition": median_recognition,
        "hyperbolicity-ladder": hyperbolicity_ladder,
        "groups-and-complexes": groups_and_complexes,
    }
    rng = random.Random(f"{name}:{seed}")
    return by_name[name](Inputs(workdir, rng), rng, small, ck)


# -- median-recognition ------------------------------------------------------------


def median_jobs(tag: str, p: fm.Product, path: str, ops, rng) -> list[Job]:
    """``median check|hyperplanes|cubes|dist`` and ``diag grid`` on a product."""
    jobs = []
    for op in ops:
        if op == "check":
            def check(out, p=p):
                r = results(out)
                expect(r["vertices"]["value"] == p.n, "vertex count")
                expect(r["edges"]["value"] == len(p.edges), "edge count")
                expect(r["is_median"]["value"] is True, "product rejected")
                return []
            jobs.append(Job(f"{tag}:check", check, ("median", "check", path)))
        elif op == "hyperplanes":
            def check(out, p=p):
                listing = value(out, "hyperplanes")
                expect(value(out, "hyperplane_count") == p.hyperplane_count,
                       "hyperplane count")
                expect(sum(len(h["dual_edges"]) for h in listing) == len(p.edges),
                       "dual edges do not partition the edges")
                expect(all(h["dimension"] == p.dimension for h in listing),
                       "hyperplane dimension")
                expect(all(sum(h["side_sizes"]) == p.n for h in listing),
                       "halfspaces do not partition the vertices")
                return []
            jobs.append(Job(f"{tag}:hyperplanes", check, ("median", "hyperplanes", path)))
        elif op == "cubes":
            def check(out, p=p):
                counts = {int(k): v for k, v in value(out, "cube_count_by_dimension").items()}
                expect(counts == p.cube_counts(), f"cube counts {counts}")
                expect(value(out, "maximal_cube_count") == p.maximal_cube_count(),
                       "maximal cube count")
                return []
            jobs.append(Job(f"{tag}:cubes", check, ("median", "cubes", path)))
        elif op == "dist":
            x, y = rng.sample(p.vertices, 2)
            def check(out, p=p, x=x, y=y):
                expect(value(out, "distance") == p.distance(x, y, "linf"), "linf distance")
                return []
            jobs.append(Job(f"{tag}:dist", check,
                            ("median", "dist", path, x, y, "--metric", "linf")))
        elif op == "grid":
            jobs.append(grid_job(tag, p, path))
    return jobs


def grid_job(tag: str, p: fm.Product, path: str) -> Job:
    def check(out, p=p):
        r = results(out)["grid_thinness"]
        truth = p.grid_thinness()
        if r["method"] == EXACT:
            expect(r["value"] == truth, f"grid thinness {r['value']} != {truth}")
        else:
            expect(r["value"] <= truth, f"grid lower bound {r['value']} > {truth}")
        return [r["method"]]
    return Job(f"{tag}:grid", check, ("diag", "grid", path))


def reject_job(tag: str, vertices, edges, path: str) -> Job:
    """``median check`` on a non-median graph: the witness is re-checked here."""
    adj = fm.adjacency(vertices, edges)

    def check(out):
        r = results(out)["is_median"]
        expect(r["value"] is False, "non-median graph accepted")
        triple = r["witness"]["triple"]
        found = fm.median_count(adj, triple)
        expect(found != 1, f"witness {triple} has exactly one median")
        expect(found == len(r["witness"]["medians"]), "witness median count")
        return []
    return Job(f"{tag}:reject", check, ("median", "check", path), exit_code=1)


def median_recognition(inp: Inputs, rng: random.Random, small: bool, ck) -> list[Job]:
    if small:
        grid, cube, tree, mixed, boxed, plain, bad_grid, bad_cube = (
            (4, 4), 3, 12, (4, 1, 2), (1, 2, 2), (3, 3), (3, 3), 3)
    else:
        grid, cube, tree, mixed, boxed, plain, bad_grid, bad_cube = (
            (16, 16), 7, 150, (10, 2, 3), (3, 4, 3), (10, 10), (12, 12), 7)
    graphs = [
        ("grid", fm.Product([fm.Factor.path(grid[0]), fm.Factor.path(grid[1])]),
         ("check",)),
        ("cube", fm.Product(fm.cube_factors(cube)), ("check", "cubes")),
        ("tree", fm.Product([fm.Factor.tree(tree, rng)]), ("check", "hyperplanes", "dist")),
        ("tree_x_grid", fm.Product([fm.Factor.tree(mixed[0], rng), fm.Factor.path(mixed[1]),
                                    fm.Factor.path(mixed[2])]),
         ("check", "cubes", "hyperplanes")),
        ("path_x_path_x_cube", fm.Product([fm.Factor.path(boxed[0]), fm.Factor.path(boxed[1])]
                                          + fm.cube_factors(boxed[2])),
         ("check", "grid")),
        ("grid_b", fm.Product([fm.Factor.path(plain[0]), fm.Factor.path(plain[1])]),
         ("hyperplanes", "dist", "grid")),
    ]
    jobs = []
    for tag, p, ops in graphs:
        path = inp.graph(tag, p.vertices, p.edges)
        jobs += median_jobs(tag, p, path, ops, rng)
    odd = fm.Product([fm.Factor.path(bad_grid[0]), fm.Factor.path(bad_grid[1])])
    edges = odd.edges + [fm.odd_chord(odd, rng)]
    jobs.append(reject_job("odd_cycle", odd.vertices, edges,
                           inp.graph("odd_cycle", odd.vertices, edges)))
    q = fm.Product(fm.cube_factors(bad_cube))
    edges = list(q.edges)
    edges.pop(rng.randrange(len(edges)))
    jobs.append(reject_job("cube_minus_edge", q.vertices, edges,
                           inp.graph("cube_minus_edge", q.vertices, edges)))
    return jobs


# -- hyperbolicity-ladder ----------------------------------------------------------


def ladder_jobs(tag: str, p: fm.Product, path: str, ops, linf=None) -> list[Job]:
    """``diag rect|delta|bigon`` against the product's closed forms.

    For a product of paths and trees, l1 delta and l1 bigon thinness both
    equal the thickest flat rectangle (the four corners, or the two boundary
    geodesics, of a box split into two mutually crossing sides).  ``linf``
    gives the l-infinity (delta, bigon) where a closed form is known.
    """
    jobs = []
    thick = p.rect_thickness()
    for op in ops:
        if op == "grid":
            jobs.append(grid_job(tag, p, path))
        elif op.startswith("rect"):
            argv = ("diag", "rect", path) + (("--cap", op[5:]) if ":" in op else ())
            def check(out, thick=thick):
                r = results(out)["rectangle_thickness"]
                if r["method"] == EXACT:
                    expect(r["value"] == thick, f"thickness {r['value']} != {thick}")
                else:
                    expect(r["value"] <= thick, f"lower bound {r['value']} > {thick}")
                if r["value"]:
                    w = r["witness"]
                    expect(min(w["a"], w["b"]) == r["value"], "witness size")
                return [r["method"]]
            jobs.append(Job(f"{tag}:{op}", check, argv))
        else:
            kind, metric = op.split("-")
            quantity = "delta" if kind == "delta" else "bigon_thinness"
            truth = thick if metric == "l1" else linf[kind == "bigon"]
            def check(out, quantity=quantity, truth=truth):
                r = results(out)[quantity]
                expect(r["method"] == EXACT, f"{quantity} not exact")
                expect(Fraction(r["value"]) == truth, f"{quantity} {r['value']} != {truth}")
                return []
            jobs.append(Job(f"{tag}:{op}", check,
                            ("diag", kind, path, "--metric", metric)))
    return jobs


def coneoff_jobs(tag: str, a: int, b: int, inp: Inputs, rng) -> list[Job]:
    """Cone-offs of an a-by-b grid over its rows (the lines y = const)."""
    p = fm.Product([fm.Factor.path(a), fm.Factor.path(b)])
    path = inp.graph(tag, p.vertices, p.edges)
    rows = "".join(
        f"sub row{y} : " + " ".join(p.name((x, y)) for x in range(a + 1)) + "\n"
        for y in range(b + 1)
    )
    subs = inp.write(f"{tag}.subs", rows)
    (x1, y1), (x2, y2) = [(rng.randrange(a + 1), rng.randrange(b + 1)) for _ in range(2)]
    u, w = p.name((x1, y1)), p.name((x2, y2))
    dx, dy = abs(x1 - x2), abs(y1 - y2)
    clique_added = (b + 1) * (a * (a + 1) // 2 - a)

    def build_check(kind, n, m, dist):
        def check(out):
            r = results(out)
            expect(r["vertices"]["value"] == n, f"{kind} vertex count")
            expect(r["edges"]["value"] == m, f"{kind} edge count")
            expect(r["pair_distance"]["value"] == dist, f"{kind} pair distance")
            return []
        return check

    def fineness(out):
        r = results(out)
        expect(r["edge_multiplicity"]["value"] == 1, "edge multiplicity")
        expect(r["common_crossings"]["value"] == a, "common crossings")
        return []

    y = rng.randrange(b + 1)
    x = rng.randrange(a)
    edge = (p.name((x, y)), p.name((x + 1, y)))

    def probe(out):
        r = results(out)["cycle_count"]
        if r["method"] == EXACT:
            expect(r["value"] == a - 1, f"triangles through a row edge: {r['value']}")
        return [r["method"]]

    return [
        Job(f"{tag}:coneoff-clique", build_check("clique", p.n, len(p.edges) + clique_added,
                                                 dy + (dx > 0)),
            ("coneoff", "build", path, subs, "--pair", u, w)),
        Job(f"{tag}:coneoff-apex", build_check("apex", p.n + b + 1,
                                               len(p.edges) + (b + 1) * (a + 1),
                                               dy + min(dx, 2)),
            ("coneoff", "build", path, subs, "--kind", "apex", "--pair", u, w)),
        Job(f"{tag}:fineness", fineness, ("coneoff", "fineness", path, subs)),
        Job(f"{tag}:probe", probe,
            ("coneoff", "probe", path, subs, "--edge", *edge, "--probe-length", "3")),
    ]


def contracting_job(tag: str, p: fm.Product, path: str, n: int) -> Job:
    """``diagnostics.contracting``: a hyperplane of a product of two paths
    lies in an (n, n)-grid iff both paths reach n; tree hyperplanes have
    dimension 1 and cross nothing."""
    if p.dimension >= n:
        contracting = False
    else:
        contracting = p.grid_thinness() < n

    def call(ck):
        g = ck.median.MedianGraph(*ck.formats.parse_graph(Path(path).read_text()))
        return ck.diagnostics.contracting(g, n)

    def check(rep):
        expect(len(rep.verdicts) == p.hyperplane_count, "one verdict per hyperplane")
        for v in rep.verdicts:
            if v.method == EXACT:
                expect(v.contracting == contracting, f"hyperplane {v.index} verdict")
        return [v.method for v in rep.verdicts]

    return Job(f"{tag}:contracting", check, call=call)


def hyperbolicity_ladder(inp: Inputs, rng: random.Random, small: bool, ck) -> list[Job]:
    all_ops = ("grid", "rect", "delta-l1", "delta-linf", "bigon-l1", "bigon-linf")
    sq, wide, cube, tree, big, box = (
        (4, (2, 4), 3, 10, 4, (1, 1, 2, 2)) if small else (6, (4, 7), 5, 40, 8, (3, 3, 3, 1000))
    )
    grid = fm.Product([fm.Factor.path(sq), fm.Factor.path(sq)])
    rect = fm.Product([fm.Factor.path(wide[0]), fm.Factor.path(wide[1])])
    hyper = fm.Product(fm.cube_factors(cube))
    forest = fm.Product([fm.Factor.tree(tree, rng)])
    large = fm.Product([fm.Factor.path(big), fm.Factor.path(big)])
    boxed = fm.Product([fm.Factor.path(box[0]), fm.Factor.path(box[1])]
                       + fm.cube_factors(box[2]))
    cases = [
        # l-infinity closed forms: a-by-b grid (a <= b, a even): delta a/2,
        # bigon a; Q_m (m >= 2): delta 0, bigon 1; trees: 0
        ("grid", grid, all_ops, (Fraction(sq, 2), sq), 3),
        ("wide_grid", rect, all_ops, (Fraction(wide[0], 2), wide[0]), None),
        ("cube", hyper, all_ops, (0, 1), None),
        ("tree", forest, all_ops, (0, 0), 2),
        ("large_grid", large, ("delta-l1", "bigon-l1"), None, None),
        ("capped_box", boxed, ("grid", f"rect:{box[3]}"), None, None),
    ]
    jobs = []
    for tag, p, ops, linf, contracting_level in cases:
        path = inp.graph(tag, p.vertices, p.edges)
        jobs += ladder_jobs(tag, p, path, ops, linf)
        if contracting_level:
            jobs.append(contracting_job(tag, p, path, contracting_level))
    jobs += coneoff_jobs("rows", sq, sq, inp, rng)
    return jobs


# -- groups-and-complexes ----------------------------------------------------------


def racg_jobs(inp: Inputs, rng: random.Random, small: bool) -> list[Job]:
    jobs = []
    balls = [("C5", fm.C5, 2 if small else 4), ("C6", fm.C6, 2 if small else 3),
             ("two_squares", fm.TWO_SQUARES, 1 if small else 2)]
    files = {}
    for name, spec, r in balls:
        files[name] = inp.graph(name, *spec)
        n, m = fm.racg_ball_sizes(*spec, r)

        def check(out, n=n, m=m):
            expect(value(out, "vertices") == n, "ball size != growth series")
            expect(value(out, "edges") == m, "ball edges != growth series")
            return []
        jobs.append(Job(f"{name}:ball", check, ("racg", "ball", files[name], "-r", str(r))))
    files["C4"] = inp.graph("C4", *fm.C4)

    # fixed verdicts of acceptance test 06
    def not_relhyp(out):
        expect(value(out, "relatively_hyperbolic") is False, "C4 relatively hyperbolic")
        return []

    def hyperbolic(out):
        expect(value(out, "relatively_hyperbolic") is True, "C5 not hyperbolic")
        expect(value(out, "peripherals") == [], "C5 has peripherals")
        return []

    def two_squares(out):
        expect(value(out, "relatively_hyperbolic") is True, "two squares verdict")
        got = {frozenset(m) for m in value(out, "peripherals")}
        expect(got == {fm.A_SQ, fm.B_SQ}, f"two squares peripherals {got}")
        return []

    jobs += [
        Job("C4:relhyp", not_relhyp, ("racg", "relhyp", files["C4"]), exit_code=1),
        Job("C5:relhyp", hyperbolic, ("racg", "relhyp", files["C5"])),
        Job("two_squares:relhyp", two_squares, ("racg", "relhyp", files["two_squares"])),
    ]

    def two_square_members(out):
        got = {frozenset(m) for m in value(out, "members")}
        expect(got == {fm.A_SQ, fm.B_SQ}, f"large-join members {got}")
        return []
    jobs.append(Job("two_squares:jdecomp", two_square_members,
                    ("racg", "jdecomp", files["two_squares"], "--seed", "large_joins")))

    # seed invariance (acceptance 06) and the square criterion for
    # contracting generators, on seeded random defining graphs
    for i in range(1 if small else 3):
        spec = fm.random_defining(rng.randint(6, 9), rng)
        path = inp.graph(f"random{i}", *spec)
        state = {}
        for seed in ("squares", "large_joins"):
            def check(out, seed=seed, state=state):
                got = {frozenset(m) for m in value(out, "members")}
                state[seed] = got
                if len(state) == 2:
                    expect(state["squares"] == state["large_joins"], "seed dependence")
                return []
            jobs.append(Job(f"random{i}:jdecomp-{seed}", check,
                            ("racg", "jdecomp", path, "--seed", seed)))
        on_square = fm.square_vertices(*spec)

        def contracting(out, spec=spec, on_square=on_square):
            got = value(out, "contracting")
            expect(got == {v: v not in on_square for v in spec[0]}, "contracting generators")
            return []
        jobs.append(Job(f"random{i}:contracting", contracting, ("racg", "contracting", path)))
    return jobs


def ball_walls_job(name: str, spec, r: int, path: str) -> Job:
    n, m = fm.racg_ball_sizes(*spec, r)

    def call(ck):
        vs, es = ck.formats.parse_graph(Path(path).read_text())
        return ck.racg.ball_walls(ck.racg.DefiningGraph(vs, es), r)

    def check(bw):
        expect(bw.ball.graph.n == n, "ball size != growth series")
        expect(sum(len(d) for d in bw.dual_edges) == m, "walls do not partition ball edges")
        expect(all((v,) in bw.reflections for v in spec[0]), "a generator has no wall")
        return []
    return Job(f"{name}:ball_walls", check, call=call)


def sc_jobs(inp: Inputs) -> list[Job]:
    """Fixed verdicts of acceptance test 08."""
    def passes(out):
        r = results(out)
        expect(r["Cprime"]["value"] == "pass" and r["T"]["value"] == "pass", "verdict")
        return []

    def fails_with_piece_2(out):
        r = results(out)
        expect(r["Cprime"]["value"] == "fail", "k = 4 passes C'(1/4)")
        expect(r["Cprime"]["witness"]["length"] == 2, "k = 4 witness length")
        expect(r["T"]["value"] == "pass", "k = 4 fails T(4)")
        return []

    cases = [
        ("power_k4", fm.power_relator(4), fails_with_piece_2, 1),
        ("power_k5", fm.power_relator(5), passes, 0),
        ("commutator_4444", fm.commutator_relator((4, 4, 4, 4), 5), passes, 0),
        ("commutator_5678", fm.commutator_relator((5, 6, 7, 8), 5), passes, 0),
    ]
    return [
        Job(f"{name}:sc", check, ("sc", "check", inp.write(f"{name}.pres", text)),
            exit_code=code)
        for name, text, check, code in cases
    ]


def poly_jobs(tag: str, cx: fm.Complex, path: str, sc_pass: bool) -> list[Job]:
    sides = cx.sides()

    def sc(out):
        expect((value(out, "Cprime") == "pass") == sc_pass, "C'(1/4) verdict")
        return []

    def walls(out):
        listing = value(out, "walls")
        expect(value(out, "wall_count") == cx.walls, "wall count")
        expect(all(w["two_sided"] for w in listing), "a wall is one-sided")
        expect(sum(len(w["edges"]) for w in listing) == len(cx.edges),
               "walls do not partition the edges")
        return []

    def dual(out):
        expect(value(out, "vertices") == cx.dual_vertices, "dual vertex count")
        expect(value(out, "walls") == cx.walls, "dual wall count")
        return []

    def classify(out):
        tags = value(out, "tags")
        expect(value(out, "classified") is True and not value(out, "unmatched"),
               "unclassified cubes")
        expect(len(tags) == len(sides), "one cell cube per polygon")
        expect(all(2 * t["dimension"] == sides[t["ref"]] for t in tags), "cell dimension")
        return []

    return [
        Job(f"{tag}:poly-sc", sc, ("poly", "sc", path), exit_code=0 if sc_pass else 1),
        Job(f"{tag}:walls", walls, ("poly", "walls", path)),
        Job(f"{tag}:dual", dual, ("poly", "dual", path)),
        Job(f"{tag}:classify", classify, ("poly", "classify", path)),
    ]


def dual_of(ck, path: str):
    x = ck.polygonal.PolygonalComplex.from_raw(ck.formats.parse_polygons(Path(path).read_text()))
    return x, ck.polygonal.dual_cube_complex(x)


def project_job(tag: str, path: str, u: str, w: str) -> Job:
    """Dual vertices are wall orientations, so their l1 distance is the
    Hamming distance of the names; transfer needs wall >= dual - 2."""
    hamming = sum(a != b for a, b in zip(u[1:], w[1:]))

    def check(out):
        dual_disjoint = value(out, "dual_disjoint")
        expect(dual_disjoint <= hamming, "more disjoint hyperplanes than separate u, w")
        expect(value(out, "wall_disjoint") >= dual_disjoint - 2, "transfer fails")
        return []
    return Job(f"{tag}:project", check, ("poly", "project", path, u, w))


def transfer_job(tag: str, path: str, least_max: int) -> Job:
    """``polygonal.separation_transfer`` over all dual pairs (acceptance 11)."""
    def call(ck):
        x, dc = dual_of(ck, path)
        rep = ck.polygonal.classify_maximal_cubes(dc)
        return [ck.polygonal.separation_transfer(x, dc, u, w, rep)
                for u, w in itertools.combinations(dc.graph.ids, 2)]

    def check(reports):
        expect(all(t.wall_disjoint >= t.dual_disjoint - 2 for t in reports), "transfer fails")
        expect(max(t.dual_disjoint for t in reports) >= least_max, "R = 3 never exercised")
        return []
    return Job(f"{tag}:transfer", check, call=call)


def dual_grid_job(tag: str, path: str) -> Job:
    """No (4,4)-grid in the dual of a C'(1/4) complex (acceptance 10)."""
    def call(ck):
        return ck.diagnostics.max_grid(dual_of(ck, path)[1].graph)

    def check(rep):
        expect(rep.thinness <= 3, f"grid thinness {rep.thinness}")
        return [rep.method]
    return Job(f"{tag}:dual-grid", check, call=call)


def groups_and_complexes(inp: Inputs, rng: random.Random, small: bool, ck) -> list[Job]:
    jobs = racg_jobs(inp, rng, small)
    jobs += [
        ball_walls_job("C5", fm.C5, 2 if small else 4, inp.graph("C5w", *fm.C5)),
        ball_walls_job("C6", fm.C6, 2 if small else 3, inp.graph("C6w", *fm.C6)),
    ]
    jobs += sc_jobs(inp)
    hexes, squares, gon, transfer = (2, 2, 6, 3) if small else (6, 6, 12, 8)
    complexes = [
        ("hex_chain", fm.hex_chain(hexes), True),
        ("square_chain", fm.square_chain(squares), False),
        ("ngon", fm.ngon(gon), True),
    ]
    for tag, cx, sc_pass in complexes:
        path = inp.write(f"{tag}.poly", cx.text())
        jobs += poly_jobs(tag, cx, path, sc_pass)
        if sc_pass:
            jobs.append(dual_grid_job(tag, path))
    # the pair is drawn from the dual's vertex names, which are wall orientations
    path = inp.write("hex_project.poly", fm.hex_chain(hexes).text())
    u, w = rng.sample(sorted(dual_of(ck, path)[1].graph.ids), 2)
    jobs.append(project_job("hex_project", path, u, w))
    path = inp.write("hex_transfer.poly", fm.hex_chain(transfer).text())
    jobs.append(transfer_job("hex_transfer", path, 5 if transfer >= 5 else 1))
    return jobs
