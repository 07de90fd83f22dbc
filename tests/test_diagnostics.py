"""Grids, rectangles, delta, bigons, cone-offs, contracting hyperplanes."""

import gc
import random
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

import bruteforce as bf
from bruteforce import flat_rectangles
import fixtures as fx
from cubekit import diagnostics, racg
from cubekit.diagnostics import (
    APEX,
    CLIQUE,
    EXACT,
    LOWER_BOUND,
    ConeOff,
    FlatRectangle,
    Grid,
    bigon_thinness,
    bigon_thinness_in,
    cone_off,
    contracting,
    cycle_probe,
    delta,
    fineness_certificate,
    grid_search,
    hyperplane_carrier,
    max_grid,
    max_thick_rectangle,
    verify_flat_rectangle,
    verify_grid,
    walls_in_grids,
    _far_apart,
)
from cubekit.errors import (
    ConsistencyError,
    GraphInputError,
    NotMedianError,
    SizeCapError,
    ValidationError,
)
from cubekit.median import L1, LINF, MedianGraph, ram_bound
from cubekit.racg import DefiningGraph, ball as racg_ball


def rows_family(width, height):
    return {f"row{y}": [f"{x},{y}" for x in range(width + 1)] for y in range(height + 1)}


# -- grids of hyperplanes -------------------------------------------------------


def test_grid_of_flat_rectangle_is_full():
    rep = max_grid(fx.grid_graph(3, 2))
    assert rep.pareto == ((3, 2),)
    assert rep.thinness == 2
    assert rep.method == EXACT


def test_grid_of_large_flat_grid():
    rep = max_grid(fx.grid_graph(5, 4))
    assert rep.pareto == ((5, 4),)
    assert rep.thinness == 4


def test_cube_grids_are_trivial():
    # all hyperplanes of a cube are pairwise transverse: chains have length 1
    rep = max_grid(fx.hypercube(3))
    assert rep.pareto == ((1, 1),)
    assert rep.thinness == 1


def test_tree_has_no_grid():
    rep = max_grid(fx.random_tree(24, random.Random(7)))
    assert rep.pareto == ()
    assert rep.thinness == 0
    assert rep.witnesses == ()


def test_staircase_grid_sizes():
    rep = max_grid(fx.staircase(5))
    assert rep.pareto == ((2, 1),)
    assert rep.thinness == 1


def test_single_vertex_grid_report():
    rep = max_grid(MedianGraph(["v"], []))
    assert rep.pareto == ()
    assert rep.thinness == 0


@pytest.mark.parametrize(
    "name",
    ["square", "grid_3x2", "grid_2x2", "cube3", "staircase", "path7", "square_x_path"],
)
def test_grid_pareto_matches_subset_oracle(name):
    g = fx.named_fixtures()[name]
    assert g.hyperplane_count <= 14
    rep = max_grid(g)
    assert set(rep.pareto) == bf.grid_pareto_bruteforce(g.sides, g.transverse)


def test_grid_pareto_matches_oracle_on_small_tree():
    g = fx.random_tree(12, random.Random(5))
    assert g.hyperplane_count <= 14
    rep = max_grid(g)
    assert set(rep.pareto) == bf.grid_pareto_bruteforce(g.sides, g.transverse)


def test_grid_witnesses_pass_independent_verification():
    for g in (fx.grid_graph(3, 2), fx.grid_graph(5, 4), fx.staircase(5)):
        ws = g.wall_system
        rep = grid_search(ws)
        assert len(rep.witnesses) == len(rep.pareto)
        for (p, q), grid in zip(rep.pareto, rep.witnesses):
            assert (len(grid.verticals), len(grid.horizontals)) == (p, q)
            verify_grid(ws, grid)


def test_verify_grid_rejects_transverse_chain():
    g = fx.hypercube(2)
    ws = g.wall_system
    # both hyperplanes of a square are transverse, so (0, 1) is not a chain
    with pytest.raises(ConsistencyError):
        verify_grid(ws, Grid(verticals=(0, 1), horizontals=(0,)))


def test_verify_grid_rejects_parallel_cross_family():
    g = fx.grid_graph(3, 2)
    ws = g.wall_system
    chain3 = [j for j in range(g.hyperplane_count) if not ws.transverse[j].all()]
    # pick three mutually disjoint walls and pretend one of them crosses the rest
    verts = [j for j in chain3 if np.count_nonzero(ws.transverse[j]) == 2][:3]
    with pytest.raises(ConsistencyError):
        verify_grid(ws, Grid(verticals=tuple(verts[:2]), horizontals=(verts[2],)))


def test_grid_through_every_wall_of_flat_grid():
    g = fx.grid_graph(5, 5)
    ws = g.wall_system
    walls = walls_in_grids(ws, 3)
    for j in range(g.hyperplane_count):
        assert j in walls
    walls = walls_in_grids(ws, 6)
    assert 0 not in walls


def test_no_grid_through_tree_wall():
    g = fx.random_tree(10, random.Random(1))
    walls = walls_in_grids(g.wall_system, 2)
    assert 0 not in walls


def test_walls_in_grids_match_both_oracles(monkeypatch):
    # the subset oracle and the per-wall search, on 100 seeded products and
    # the named fixtures with at most 14 hyperplanes; every marked wall
    # lies in a grid that verify_grid accepted
    verified = []

    def spy(ws, grid):
        verify_grid(ws, grid)
        verified.append(grid)

    monkeypatch.setattr(diagnostics, "verify_grid", spy)
    named = [g for g in fx.named_fixtures().values() if g.hyperplane_count <= 14]
    for g in named + _seeded_products(100, 13):
        ws = g.wall_system
        for n in (1, 2, 3, 4):
            verified.clear()
            walls = walls_in_grids(ws, n)
            assert walls == bf.grid_walls_brute(g.sides, g.transverse, n)
            per_wall = [bf.grid_through_wall_brute(ws, j, n) for j in range(ws.h)]
            assert walls == {j for j, (found, _) in enumerate(per_wall) if found}
            assert all(ok for _, ok in per_wall)
            if n > 1:
                shown = {j for grid in verified for j in grid.verticals + grid.horizontals}
                assert all(len(grid.verticals) == n <= len(grid.horizontals) for grid in verified)
                assert shown == walls


def _rule_answers(ws, ns=(1, 2, 3, 4, 5)):
    rep = grid_search(ws)
    assert rep.method == EXACT and len(rep.witnesses) == len(rep.pareto)
    for (p, q), grid in zip(rep.pareto, rep.witnesses):
        assert (len(grid.verticals), len(grid.horizontals)) == (p, q)
        verify_grid(ws, grid)
    return set(rep.pareto), {n: walls_in_grids(ws, n) for n in ns}


def test_grid_rule_matches_the_chain_search():
    # named fixtures, seeded products, a longer staircase and the 5x5 grid
    graphs = list(fx.named_fixtures().values()) + _seeded_products(60, 27)
    for g in graphs + [fx.staircase(6), fx.grid_graph(5, 5)]:
        assert _rule_answers(g.wall_system) == bf.grid_answers_by_chains(g.wall_system), g


def test_grid_rule_matches_the_oracles_on_line_arrangements():
    # cubulations of random lines through random planar point sets: median
    # graphs that are rarely products.  Times a path of 4 edges, a wall
    # strictly between two walls 4 apart may lie on no chain of 4, and so in
    # no (4,4)-grid
    rng = random.Random(2027)
    sizes = set()
    for _ in range(120):
        g = fx.line_arrangement_graph(rng, rng.randint(10, 40), rng.randint(6, 12))
        assert g.is_median().ok
        ws = g.wall_system
        pareto, walls = _rule_answers(ws, (1, 2, 3, 4))
        assert (pareto, walls) == bf.grid_answers_by_chains(ws, (1, 2, 3, 4)), g
        if ws.h <= 10:
            assert pareto == bf.grid_pareto_bruteforce(g.sides, g.transverse)
        sizes |= pareto
        if g.n <= 45:
            ws = fx.product_graph(g, fx.path_graph(4)).wall_system
            assert _rule_answers(ws, (4,)) == bf.grid_answers_by_chains(ws, (4,)), g
    # the family reaches past thin grids
    assert {(3, 2), (4, 1), (2, 2)} <= sizes


def test_grids_past_the_old_node_cap_are_exact():
    # the capped chain search stopped at a lower bound on both balls
    for spec, r, want in (
        ((list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]), 6, (12, 1)),
        ((list("xypqrs"), [(a, b) for a in "xy" for b in "pqrs"]), 5, (10, 10)),
    ):
        ws = racg.ball_walls(DefiningGraph(*spec), r).system
        rep = grid_search(ws)
        assert (rep.pareto, rep.method) == ((want,), EXACT)
        verify_grid(ws, rep.witnesses[0])


def test_contracting_builds_one_pair_table(monkeypatch):
    tables = []
    real = diagnostics._NestedPairs

    def spy(ws, n):
        tables.append(n)
        return real(ws, n)

    monkeypatch.setattr(diagnostics, "_NestedPairs", spy)
    for g, n in ((fx.grid_graph(5, 5), 3), (fx.staircase(5), 3), (fx.grid_graph(5, 5), 6)):
        tables.clear()
        contracting(g, n)
        assert tables == [n]
    tables.clear()
    max_grid(fx.grid_graph(3, 2))
    assert tables == [1]


def test_contracting_verdicts_match_the_per_wall_search():
    for g in (fx.grid_graph(5, 5), fx.staircase(5), fx.random_tree(10, random.Random(3)),
              *_seeded_products(12, 5)):
        for n in (1, 2, 3, 4):
            for v in contracting(g, n).verdicts:
                if v.dimension >= n:
                    assert (v.grid_found, v.contracting) == (None, False)
                else:
                    found, _ = bf.grid_through_wall_brute(g.wall_system, v.index, n)
                    assert (v.grid_found, v.contracting, v.method) == (found, not found, EXACT)


def test_chain_search_frees_its_wall_system():
    # the recursive search must leave no reference cycle holding the wall
    # system, whose halfspace rows would then wait for a full collection
    g = fx.grid_graph(4, 3)
    ws = weakref.ref(g.wall_system)
    assert fx.cyclic_garbage(lambda: (max_grid(g), walls_in_grids(g.wall_system, 2))) == 0
    gc.disable()
    try:
        max_grid(g)
        walls_in_grids(g.wall_system, 3)
        del g
        assert ws() is None
    finally:
        gc.enable()


def test_wall_side_classification():
    g = fx.grid_graph(3, 2)
    ws = g.wall_system
    a, b = 0, 1
    trans = [(i, j) for i in range(5) for j in range(5) if ws.transverse[i, j]]
    assert all(ws.wall_side(i, j) is None for i, j in trans)
    para = [(i, j) for i in range(5) for j in range(5) if i != j and not ws.transverse[i, j]]
    for i, j in para:
        assert ws.wall_side(i, j) in (True, False)


def test_chain_members_order_by_halfspace_nesting():
    g = fx.grid_graph(5, 4)
    ws = g.wall_system
    full = (1 << g.hyperplane_count) - 1
    ln, members, rep = ws.longest_chain(full)
    assert ln == 5
    # consecutive members separate each other from the rest of the chain
    for i in range(1, ln - 1):
        assert ws.wall_side(members[i - 1], members[i]) != ws.wall_side(
            members[i + 1], members[i]
        )


# -- flat rectangles --------------------------------------------------------------


def test_flat_grid_rectangle_thickness():
    rep = max_thick_rectangle(fx.grid_graph(5, 4))
    assert rep.thickness == 4
    assert rep.pareto == ((4, 5),)
    assert rep.method == EXACT
    assert {rep.best.a, rep.best.b} == {4, 5}


def test_tree_has_no_rectangle():
    rep = max_thick_rectangle(fx.random_tree(24, random.Random(7)))
    assert rep.thickness == 0
    assert rep.best is None
    assert rep.pareto == ()


def test_tree_rectangles_are_exact_past_the_mask_cap():
    # a tree has more masks than the cap but no crossing hyperplanes
    rep = max_thick_rectangle(fx.random_tree(60, random.Random(7)), cap=10)
    assert (rep.method, rep.pareto, rep.states) == (EXACT, (), 0)


def test_cube_rectangles():
    rep = max_thick_rectangle(fx.hypercube(4))
    assert rep.thickness == 2
    assert rep.pareto == ((1, 3), (2, 2))
    assert (rep.best.a, rep.best.b) == (2, 2)


def test_staircase_rectangles_are_unit_strips():
    rep = max_thick_rectangle(fx.staircase(5))
    assert rep.thickness == 1
    assert rep.pareto == ((1, 2),)


@pytest.mark.parametrize("name", ["grid_3x2", "cube3", "square", "grid_2x2"])
def test_rectangle_sizes_match_bruteforce(name):
    g = fx.named_fixtures()[name]
    rects, method, _ = flat_rectangles(g)
    assert method == EXACT
    mine = {(min(r.a, r.b), max(r.a, r.b)) for r in rects}
    assert mine == bf.rectangle_sizes_bruteforce(g)


def test_rectangle_sizes_match_bruteforce_staircase():
    g = fx.staircase(4)
    rects, _, _ = flat_rectangles(g)
    mine = {(min(r.a, r.b), max(r.a, r.b)) for r in rects}
    assert mine == bf.rectangle_sizes_bruteforce(g)


def test_halved_cube_embedding_is_accepted():
    # the balanced coordinate-split rectangle inside a 4-cube
    g = fx.hypercube(4)
    emb = tuple(
        tuple("1" * i + "0" * (2 - i) + "1" * j + "0" * (2 - j) for j in range(3))
        for i in range(3)
    )
    verify_flat_rectangle(g, FlatRectangle(a=2, b=2, embedding=emb))


def test_bad_rectangle_embedding_is_rejected():
    g = fx.grid_graph(2, 2)
    emb = (("0,0", "0,1"), ("1,0", "2,1"))
    with pytest.raises(ConsistencyError):
        verify_flat_rectangle(g, FlatRectangle(a=1, b=1, embedding=emb))


def test_rectangle_cap_degrades_to_lower_bound():
    _, method, states = flat_rectangles(fx.grid_graph(6, 6), cap=10)
    assert method == LOWER_BOUND
    assert states > 0


def _pareto(dims):
    return tuple(
        sorted(
            k
            for k in dims
            if not any(k2 != k and k2[0] >= k[0] and k2[1] >= k[1] for k2 in dims)
        )
    )


def _tree_path_cube_products(count, seed, max_n):
    """Seeded products of one to three trees, paths and cubes, n <= max_n."""
    rng = random.Random(seed)
    factors = [
        lambda: fx.random_tree(rng.randint(2, 7), rng),
        lambda: fx.path_graph(rng.randint(1, 4)),
        lambda: fx.hypercube(rng.randint(1, 3)),
    ]
    out = []
    while len(out) < count:
        g = rng.choice(factors)()
        for _ in range(rng.randint(0, 2)):
            g = fx.product_graph(g, rng.choice(factors)())
        if g.n <= max_n:
            out.append(g)
    return out


def test_split_rule_matches_both_oracles_on_products():
    # the hyperplane split rule against the subset brute force and against
    # the exhaustive rectangle enumeration, with every witness re-checked
    graphs = _tree_path_cube_products(110, 2027, 20)
    thick = 0
    for g in graphs:
        rep = max_thick_rectangle(g)
        assert rep.method == EXACT
        assert rep.pareto == _pareto(bf.rectangle_sizes_bruteforce(g)), g.ids
        rects, method, _ = flat_rectangles(g)
        assert method == EXACT
        assert rep.pareto == _pareto({(min(r.a, r.b), max(r.a, r.b)) for r in rects})
        if rep.best is None:
            assert rep.thickness == 0 and rep.pareto == ()
            continue
        assert (rep.best.a, rep.best.b) == rep.pareto[-1]
        assert rep.thickness == rep.best.a
        verify_flat_rectangle(g, rep.best)
        thick += rep.thickness >= 2
    # the sample is not all trees and strips
    assert thick >= 10


def test_rectangle_baseline_cases_are_exact():
    rep = max_thick_rectangle(fx.grid_graph(13, 13))
    assert (rep.method, rep.thickness, rep.pareto) == (EXACT, 13, ((13, 13),))
    verify_flat_rectangle(fx.grid_graph(13, 13), rep.best)
    rep = max_thick_rectangle(fx.hypercube(7))
    assert rep.method == EXACT
    assert rep.pareto == ((1, 6), (2, 5), (3, 4))
    assert rep.states == 2**7 - 1


def test_rectangle_mask_cap_gives_a_lower_bound():
    for g in (fx.grid_graph(6, 6), fx.hypercube(5), fx.staircase(6)):
        truth = max_thick_rectangle(g)
        assert truth.method == EXACT
        for cap in (1, 5, truth.states - 1):
            rep = max_thick_rectangle(g, cap=cap)
            assert rep.method == LOWER_BOUND
            assert rep.states == cap
            assert rep.thickness <= truth.thickness
            for a, b in rep.pareto:
                assert any(a <= a2 and b <= b2 for a2, b2 in truth.pareto)
            if rep.best is not None:
                verify_flat_rectangle(g, rep.best)
        assert max_thick_rectangle(g, cap=truth.states).method == EXACT


def test_rectangle_split_rule_needs_no_cube_scan(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("not on the split-rule path")

    monkeypatch.setattr(MedianGraph, "cubes", forbidden)
    rep = max_thick_rectangle(fx.product_graph(fx.grid_graph(3, 2), fx.hypercube(2)))
    assert (rep.thickness, rep.pareto) == (3, ((1, 6), (2, 5), (3, 4)))


@pytest.mark.parametrize("build", [fx.k23, fx.c6_with_chord])
def test_rectangle_refuses_non_median(build):
    with pytest.raises(NotMedianError):
        max_thick_rectangle(build())


def test_grid_thinness_bounded_by_rectangle_thickness_plus_one():
    for name in ["grid_3x2", "grid_5x4", "cube3", "cube4", "staircase", "tree_rand", "path7"]:
        g = fx.named_fixtures()[name]
        thin = max_grid(g).thinness
        thick = max_thick_rectangle(g).thickness
        assert thin <= thick + 1, name


# -- four-point constant ------------------------------------------------------------


def test_square_four_point_constant():
    rep = delta(fx.cycle_graph(4))
    assert rep.value == Fraction(1)
    assert rep.method == EXACT
    x, y, u, v = rep.witness
    g = fx.cycle_graph(4)
    d = g.dist_matrix(L1)
    i = {v_: k for k, v_ in enumerate(g.ids)}
    sums = sorted(
        [
            d[i[x], i[y]] + d[i[u], i[v]],
            d[i[x], i[u]] + d[i[y], i[v]],
            d[i[x], i[v]] + d[i[y], i[u]],
        ]
    )
    assert sums[2] - sums[1] == 2


def test_tree_four_point_constant_is_zero():
    rep = delta(fx.random_tree(24, random.Random(7)))
    assert rep.value == 0
    assert rep.witness is None


def test_flat_grid_four_point_grows_with_size():
    assert delta(fx.grid_graph(4, 4), L1).value == Fraction(4)
    assert delta(fx.grid_graph(2, 2), L1).value == Fraction(2)


def test_flat_grid_chebyshev_four_point():
    assert delta(fx.grid_graph(4, 4), LINF).value == Fraction(2)


def test_cube_chebyshev_four_point_is_zero():
    # every pair of distinct cube vertices is at distance one in the cube metric
    assert delta(fx.hypercube(3), LINF).value == 0


@pytest.mark.parametrize(
    "name,metric",
    [("grid_3x2", L1), ("staircase", L1), ("cube3", LINF), ("tripod", L1), ("grid_3x3", LINF)],
)
def test_four_point_matches_bruteforce(name, metric):
    g = fx.named_fixtures()[name]
    d = g.dist_matrix(metric)
    table = {
        g.ids[i]: {g.ids[j]: int(d[i, j]) for j in range(g.n)} for i in range(g.n)
    }
    assert float(delta(g, metric).value) == bf.four_point_delta(table)


def test_four_point_size_cap_and_sampling():
    g = fx.path_graph(450)
    with pytest.raises(SizeCapError):
        delta(g)


# -- bigon thinness -----------------------------------------------------------------


def test_flat_grid_bigon_thinness():
    rep = bigon_thinness(fx.grid_graph(2, 2), L1)
    assert rep.value == 2
    assert rep.method == EXACT


def test_cube_bigon_thinness():
    assert bigon_thinness(fx.hypercube(3), L1).value == 1
    assert bigon_thinness(fx.hypercube(4), L1).value == 2


def test_tree_bigons_are_degenerate():
    rep = bigon_thinness(fx.random_tree(24, random.Random(7)), L1)
    assert rep.value == 0
    assert rep.witness is None


def test_cube_bigon_thinness_in_cube_metric():
    assert bigon_thinness(fx.hypercube(3), LINF).value == 1


@pytest.mark.parametrize(
    "name,metric",
    [
        ("grid_2x2", L1),
        ("cube3", L1),
        ("cube3", LINF),
        ("tripod", L1),
        ("square_x_path", L1),
    ],
)
def test_bigon_thinness_matches_bruteforce(name, metric):
    g = fx.named_fixtures()[name]
    adj = bf.adj_dict(g)
    dgeo = bf.all_pairs(adj)
    dm = g.dist_matrix(metric)
    dmeas = {
        g.ids[i]: {g.ids[j]: int(dm[i, j]) for j in range(g.n)} for i in range(g.n)
    }
    mine = bigon_thinness(g, metric).value
    assert mine == bf.bigon_thinness_brute(adj, dgeo, dmeas)


def test_bigon_thinness_matches_bruteforce_staircase():
    g = fx.staircase(3)
    adj = bf.adj_dict(g)
    dgeo = bf.all_pairs(adj)
    mine = bigon_thinness(g, L1).value
    assert mine == bf.bigon_thinness_brute(adj, dgeo, dgeo)


def test_bigon_size_cap():
    with pytest.raises(SizeCapError):
        bigon_thinness(fx.path_graph(450))


@pytest.mark.parametrize("metric", [L1, LINF])
def test_size_caps_are_checked_before_the_metric_table(metric, monkeypatch):
    built = []
    table = MedianGraph.dist_matrix

    def spy(self, m=L1):
        built.append(m)
        return table(self, m)

    monkeypatch.setattr(MedianGraph, "dist_matrix", spy)
    monkeypatch.setattr(diagnostics, "DELTA_SIZE_LIMIT", 10)
    g = fx.grid_graph(3, 3)
    with pytest.raises(SizeCapError):
        delta(g, metric)
    with pytest.raises(SizeCapError):
        bigon_thinness(g, metric)
    assert built == []


def test_external_measure_shape_is_checked():
    g = fx.grid_graph(2, 2)
    with pytest.raises(GraphInputError):
        bigon_thinness_in(g, np.zeros((2, 2), dtype=np.int32))


def test_bigon_bound_from_grid_thinness():
    # L1 bigons stay below the doubled Ramsey bound of the grid thinness
    for name in ["grid_3x2", "grid_3x3", "cube3", "staircase", "tree_rand"]:
        g = fx.named_fixtures()[name]
        thin = max_grid(g).thinness
        assert bigon_thinness(g, L1).value <= 2 * ram_bound(thin), name


def test_cube_metric_bigon_and_grid_bounds():
    # thin cube-metric bigons bound grid sizes, and conversely
    for name in ["grid_3x2", "grid_3x3", "grid_5x4", "cube3", "cube4", "staircase"]:
        g = fx.named_fixtures()[name]
        dinf = delta(g, LINF).value
        thin = max_grid(g).thinness
        for p, q in max_grid(g).pareto:
            assert min(p, q) <= 4 * dinf + 2, name
        assert bigon_thinness(g, LINF).value <= thin + 3, name


# -- pruned scans against the full-scan oracles ---------------------------------------


def _random_connected_graphs(count, seed):
    """Random trees plus chords, so odd cycles and non-median graphs appear."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(4, 14)
        es = {(rng.randrange(i), i) for i in range(1, n)}
        for _ in range(rng.randint(0, n // 2)):
            a, b = sorted(rng.sample(range(n), 2))
            es.add((a, b))
        out.append(MedianGraph([str(i) for i in range(n)], [(str(a), str(b)) for a, b in es]))
    return out


def _seeded_products(count, seed):
    rng = random.Random(seed)
    makers = (
        lambda: fx.random_tree(rng.randint(2, 7), rng),
        lambda: fx.path_graph(rng.randint(1, 4)),
        lambda: fx.hypercube(rng.randint(1, 3)),
    )
    out = []
    while len(out) < count:
        g = fx.product_graph(rng.choice(makers)(), rng.choice(makers)())
        if g.n <= 40:
            out.append(g)
    return out


RANDOM_GRAPHS = _random_connected_graphs(150, 17)
MEDIAN_CASES = [
    *fx.named_fixtures().values(),
    *(fx.random_tree(n, random.Random(n)) for n in (5, 12, 30)),
    *_seeded_products(16, 5),
]
SCAN_CASES = [(g, L1) for g in RANDOM_GRAPHS] + [
    (g, metric) for g in MEDIAN_CASES for metric in (L1, LINF)
]


def _gap(d, quad):
    x, y, u, v = quad
    s = sorted([d[x, y] + d[u, v], d[x, u] + d[y, v], d[x, v] + d[y, u]])
    return int(s[2] - s[1])


def test_far_apart_mask_from_unit_balls_matches_neighbour_lists():
    # d == 1 exactly between neighbours, in g for l1 and in the cube
    # cone-off for linf, so the closed unit ball of the table is enough
    pentagon = DefiningGraph(list("abcde"), [(v, "bcdea"[i]) for i, v in enumerate("abcde")])
    two_squares = DefiningGraph(
        ["a1", "a2", "a3", "a4", "m", "b1", "b2", "b3", "b4"],
        [("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a1"), ("b1", "b2"),
         ("b2", "b3"), ("b3", "b4"), ("b4", "b1"), ("a1", "m"), ("m", "b1")],
    )
    cases = [
        *fx.named_fixtures().values(),
        *(fx.random_tree(n, random.Random(n)) for n in (5, 12, 30)),
        *(fx.hypercube(k) for k in (1, 2, 3, 4)),
        *_seeded_products(16, 5),
        racg_ball(pentagon, 4).graph,
        racg_ball(two_squares, 2).graph,
    ]
    for g in cases:
        for metric in (L1, LINF):
            d = g.dist_matrix(metric).astype(np.int64)
            assert (_far_apart(d) == bf.far_apart_brute(g, metric)).all(), (g, metric)


def test_far_apart_delta_matches_full_scan():
    for g, metric in SCAN_CASES:
        rep = delta(g, metric)
        value, _ = bf.delta_scan_brute(g.dist_matrix(metric))
        assert (rep.value, rep.method) == (value, EXACT), (g, metric)


def test_delta_witness_reaches_the_value():
    for g, metric in SCAN_CASES:
        rep = delta(g, metric)
        if rep.value == 0:
            assert rep.witness is None
            continue
        quad = g.indices_of(rep.witness)
        assert _gap(g.dist_matrix(metric).astype(np.int64), quad) == 2 * rep.value


def test_pruned_bigons_match_full_scan():
    for g, metric in SCAN_CASES:
        measure = g.dist_matrix(metric)
        rep = bigon_thinness(g, metric)
        want = bf.bigon_scan_brute(g, measure)
        assert (rep.value, rep.method) == (want.value, want.method), (g, metric)
        if rep.witness is None:
            assert rep.value == 0
        else:
            pair = [tuple(g.indices_of(rep.witness))]
            assert bf.bigon_scan_brute(g, measure, pair).value == rep.value


def test_pruned_bigons_in_coneoff_metric_match_full_scan():
    cases = [
        (fx.grid_graph(3, 3), rows_family(3, 3)),
        (fx.grid_graph(4, 3), {f"col{x}": [f"{x},{y}" for y in range(4)] for x in range(5)}),
        (fx.grid_graph(2, 2), {"all": [f"{x},{y}" for x in range(3) for y in range(3)]}),
        (fx.staircase(4), {"low": ["0,0", "1,0", "2,0"]}),
    ]
    for g, family in cases:
        measure = cone_off(g, family, CLIQUE).base_distance_matrix()
        rep = bigon_thinness_in(g, measure)
        want = bf.bigon_scan_brute(g, measure)
        assert (rep.value, rep.method) == (want.value, want.method)
        pair = [tuple(g.indices_of(rep.witness))]
        assert bf.bigon_scan_brute(g, measure, pair).value == rep.value


def test_measure_above_the_distance_takes_the_full_scan():
    # 2 d breaks the floor(d / 2) bound, so no pair may be skipped, and the
    # witness is the first in row-major order
    for g in [*MEDIAN_CASES, *RANDOM_GRAPHS[:40]]:
        measure = 2 * g.dist
        assert bigon_thinness_in(g, measure) == bf.bigon_scan_brute(g, measure)


def test_tree_bigons_skip_the_scan(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a tree has unique geodesics")

    monkeypatch.setattr(diagnostics, "_bigon_gap", forbidden)
    for metric in (L1, LINF):
        rep = bigon_thinness(fx.random_tree(150, random.Random(2)), metric)
        assert rep == diagnostics.BigonReport(0, None, EXACT)


@pytest.mark.parametrize(
    "g,metric,value",
    [
        # the corner pair is 12 apart and already reaches floor(12 / 2)
        (fx.grid_graph(6, 6), L1, 6),
        # the cube metric has diameter 1, which the first pair reaches
        (fx.hypercube(5), LINF, 1),
    ],
)
def test_bigon_scan_stops_after_the_first_pair(g, metric, value, monkeypatch):
    calls = []
    gap = diagnostics._bigon_gap

    def spy(g, measure, x, y):
        calls.append((x, y))
        return gap(g, measure, x, y)

    monkeypatch.setattr(diagnostics, "_bigon_gap", spy)
    rep = bigon_thinness(g, metric)
    assert (rep.value, len(calls)) == (value, 1)


def test_delta_and_bigons_at_the_size_limit():
    # 400 vertices, where the full scans took minutes; the thickest
    # rectangle (19) gives both l1 values
    g = fx.grid_graph(19, 19)
    t0 = time.perf_counter()
    assert delta(g, L1).value == 19
    assert bigon_thinness(g, L1).value == 19
    assert time.perf_counter() - t0 < 5.0


def test_separating_medians_separates_inputs():
    # hyperplanes between m(x,y,z) and m(x,y,z') always separate z from z'
    for g in (fx.grid_graph(2, 2), fx.staircase(3), fx.hypercube(3)):
        ids = g.ids
        for x in ids:
            for y in ids:
                for z in ids:
                    for zp in ids:
                        m1 = g.median(x, y, z)
                        m2 = g.median(x, y, zp)
                        sep_m = set(g.separating(m1, m2))
                        sep_z = set(g.separating(z, zp))
                        assert sep_m <= sep_z


# -- cone-offs ------------------------------------------------------------------------


def test_clique_coneoff_distances():
    g = fx.grid_graph(3, 3)
    co = cone_off(g, rows_family(3, 3), CLIQUE)
    assert co.distance("0,0", "3,3") == 4
    assert co.distance("0,0", "3,0") == 1
    # graph-search oracle on the coned graph
    adj = {v: set() for v in co.graph.ids}
    for u, w in co.graph.edges:
        adj[co.graph.ids[u]].add(co.graph.ids[w])
        adj[co.graph.ids[w]].add(co.graph.ids[u])
    assert bf.bfs_dist(adj, "0,0")["3,3"] == 4


def test_apex_coneoff_structure():
    g = fx.grid_graph(3, 3)
    co = cone_off(g, rows_family(3, 3), APEX)
    apexes = [v for v in co.graph.ids if v not in g.index]
    assert sorted(apexes) == [f"apex:row{y}" for y in range(4)]
    for a in apexes:
        assert len(co.graph.adj[co.graph.index[a]]) == 4
    assert co.distance("0,0", "3,3") == 5


def test_coneoff_sandwich_on_all_pairs():
    g = fx.grid_graph(3, 3)
    cq = cone_off(g, rows_family(3, 3), CLIQUE)
    ap = cone_off(g, rows_family(3, 3), APEX)
    dc = cq.base_distance_matrix()
    da = ap.base_distance_matrix()
    assert (dc <= da).all()
    assert (da <= 2 * dc).all()


def test_coneoff_sandwich_is_checked_on_every_pair(monkeypatch):
    # an apex graph without apexes: row ends are 1 apart in the clique
    # cone-off but 3 apart here, past twice the clique distance
    monkeypatch.setattr(
        diagnostics, "_apex_graph", lambda base, members: base
    )
    with pytest.raises(ConsistencyError, match="sandwich fails at .*clique 1, apex 3"):
        cone_off(fx.grid_graph(3, 3), rows_family(3, 3), CLIQUE)


def test_coneoff_provenance_names_members():
    # every added edge comes from exactly one member: a clique edge joins
    # two vertices of one row, an apex edge joins a row's apex to the row
    g = fx.grid_graph(3, 3)
    rows = rows_family(3, 3)
    co = cone_off(g, rows, CLIQUE)
    base_edges = {tuple(sorted((g.ids[u], g.ids[v]))) for u, v in g.edges}
    added = {tuple(sorted((co.graph.ids[u], co.graph.ids[v]))) for u, v in co.graph.edges}
    added -= base_edges
    assert added
    for e in added:
        names = [name for name, verts in rows.items() if set(e) <= set(verts)]
        assert len(names) == 1 and names[0].startswith("row")
    ap = cone_off(g, rows, APEX)
    for u, v in ap.graph.edges:
        a, b = sorted((ap.graph.ids[u], ap.graph.ids[v]))
        if (a, b) not in base_edges:
            assert b.startswith("apex:") and a in rows[b.removeprefix("apex:")]


def test_nonconvex_member_is_rejected_with_name():
    g = fx.grid_graph(3, 3)
    with pytest.raises(ValidationError) as err:
        cone_off(g, {"hook": ["0,0", "1,0", "1,1"]}, CLIQUE)
    msg = str(err.value)
    assert "hook" in msg and "0,1" in msg


def test_disconnected_member_is_rejected_with_name():
    g = fx.grid_graph(3, 3)
    with pytest.raises(ValidationError) as err:
        cone_off(g, {"split": ["0,0", "1,1"]}, CLIQUE)
    assert "split" in str(err.value)


def test_unknown_member_vertex_is_rejected():
    g = fx.grid_graph(2, 2)
    with pytest.raises(ValidationError):
        cone_off(g, {"ghost": ["9,9"]}, CLIQUE)


def test_unknown_kind_is_rejected():
    g = fx.grid_graph(2, 2)
    with pytest.raises(GraphInputError):
        cone_off(g, {"r": ["0,0", "1,0", "2,0"]}, "star")


def test_whole_graph_member_collapses_diameter():
    g = fx.grid_graph(3, 3)
    co = cone_off(g, {"all": list(g.ids)}, CLIQUE)
    assert co.diameter_of(g.ids) == 1


def test_empty_family_coneoff_is_the_base():
    g = fx.grid_graph(2, 2)
    co = cone_off(g, {}, CLIQUE)
    assert sorted(co.graph.edges) == sorted(g.edges)


def test_coneoff_bigon_bound_from_thick_rectangles():
    # geodesics of the base stay thin in the coned metric whenever every
    # thick flat rectangle has small coned diameter
    cases = [
        (fx.grid_graph(3, 3), rows_family(3, 3)),
        (fx.grid_graph(4, 3), {f"col{x}": [f"{x},{y}" for y in range(4)] for x in range(5)}),
        (fx.grid_graph(2, 2), {"all": [f"{x},{y}" for x in range(3) for y in range(3)]}),
    ]
    for g, family in cases:
        co = cone_off(g, family, CLIQUE)
        rects, method, _ = flat_rectangles(g)
        assert method == EXACT
        thick = [r for r in rects if min(r.a, r.b) >= 1]
        c_l = max((co.diameter_of(r.vertices) for r in thick), default=1)
        bound = max(2 * 1, c_l)
        assert bigon_thinness_in(g, co.base_distance_matrix()).value <= bound


# -- contracting hyperplanes -----------------------------------------------------------


def test_tree_walls_fail_level_one():
    # every wall has a one-cube carrier, so none is 1-contracting, yet the
    # carrier cliques add nothing
    t = fx.random_tree(10, random.Random(3))
    rep = contracting(t, 1)
    assert all(not v.contracting for v in rep.verdicts)
    assert all(v.grid_found is None for v in rep.verdicts)
    assert sorted(rep.coneoff.graph.edges) == sorted(t.edges)


def test_tree_walls_contract_at_level_two():
    t = fx.random_tree(10, random.Random(3))
    rep = contracting(t, 2)
    assert all(v.contracting for v in rep.verdicts)
    assert all(v.method == EXACT for v in rep.verdicts)
    assert sorted(rep.coneoff.graph.edges) == sorted(t.edges)


def test_flat_grid_walls_never_contract_at_level_two():
    g = fx.grid_graph(5, 5)
    rep = contracting(g, 2)
    assert all(not v.contracting for v in rep.verdicts)
    # at level two the verdict comes from the carrier dimension alone
    assert all(v.grid_found is None for v in rep.verdicts)


def test_flat_grid_walls_never_contract_at_level_three():
    g = fx.grid_graph(5, 5)
    rep = contracting(g, 3)
    assert all(not v.contracting for v in rep.verdicts)
    assert all(v.grid_found is True for v in rep.verdicts)


def test_flat_grid_walls_contract_above_grid_size():
    g = fx.grid_graph(5, 5)
    rep = contracting(g, 6)
    assert all(v.contracting for v in rep.verdicts)
    assert sorted(rep.coneoff.graph.edges) == sorted(g.edges)


def test_staircase_contraction_levels():
    st = fx.staircase(5)
    assert all(not v.contracting for v in contracting(st, 2).verdicts)
    assert all(v.contracting for v in contracting(st, 3).verdicts)


def test_contraction_coneoff_crushes_thick_rectangles():
    g = fx.grid_graph(6, 6)
    rep = contracting(g, 2)
    rects, method, _ = flat_rectangles(g)
    assert method == EXACT
    bound = 4 * ram_bound(2) + 3
    for r in rects:
        if min(r.a, r.b) >= ram_bound(2):
            assert rep.coneoff.diameter_of(r.vertices) <= bound


def test_carrier_vertices_are_dual_edge_endpoints():
    g = fx.grid_graph(3, 2)
    for h in g.hyperplanes():
        carrier = hyperplane_carrier(g, h.index)
        assert carrier == {v for e in h.dual_edges for v in e}
        assert g.is_convex(carrier).ok


def test_contracting_level_must_be_positive():
    with pytest.raises(GraphInputError):
        contracting(fx.grid_graph(2, 2), 0)


# -- fineness -----------------------------------------------------------------------


def test_fineness_of_row_family():
    g = fx.grid_graph(3, 3)
    cert = fineness_certificate(g, rows_family(3, 3))
    assert cert.multiplicity == 1
    u, v = cert.multiplicity_edge
    assert u.split(",")[1] == v.split(",")[1]
    assert cert.common_crossings == 3
    assert cert.crossing_pair is not None


def test_fineness_of_disjoint_singletons():
    g = fx.grid_graph(2, 2)
    cert = fineness_certificate(g, {"a": ["0,0"], "b": ["2,2"]})
    assert cert.multiplicity == 0
    assert cert.multiplicity_edge is None
    assert cert.common_crossings == 0


def test_fineness_single_member_has_no_crossing_pair():
    g = fx.grid_graph(2, 2)
    cert = fineness_certificate(g, {"a": ["0,0", "1,0", "2,0"]})
    assert cert.crossing_pair is None
    assert cert.common_crossings == 0


def test_cycle_probe_counts_short_cycles():
    p = fx.path_graph(3)
    fam = {"A": ["0", "1", "2"], "B": ["1", "2", "3"]}
    co = cone_off(p, fam, APEX)
    count, method = cycle_probe(co, ("1", "2"), 4)
    assert (count, method) == (2, EXACT)
    adj = {v: set() for v in co.graph.ids}
    for u, w in co.graph.edges:
        adj[co.graph.ids[u]].add(co.graph.ids[w])
        adj[co.graph.ids[w]].add(co.graph.ids[u])
    assert bf.count_cycles_through_edge(adj, ("1", "2"), 4, 10**6) == 2


def test_cycle_probe_respects_cap_and_bounds(monkeypatch):
    g = fx.grid_graph(3, 3)
    co = cone_off(g, {"all": list(g.ids)}, CLIQUE)
    monkeypatch.setattr(diagnostics, "CYCLE_COUNT_CAP", 7)
    count, method = cycle_probe(co, ("0,0", "1,0"), 5)
    assert method == LOWER_BOUND
    assert count == 7
    with pytest.raises(GraphInputError):
        cycle_probe(co, ("0,0", "1,0"), 2)
    with pytest.raises(GraphInputError):
        cycle_probe(co, ("0,0", "1,0"), 9)
    rows = cone_off(g, rows_family(3, 3), CLIQUE)
    with pytest.raises(GraphInputError):
        cycle_probe(rows, ("0,0", "3,3"), 4)
