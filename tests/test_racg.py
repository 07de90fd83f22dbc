"""Coxeter-group layer: word problem, Cayley balls, walls, join decomposition."""

import itertools
import random

import numpy as np
import pytest

import bruteforce as bf
from cubekit import racg
from cubekit.diagnostics import grid_search, verify_grid, walls_in_grids
from cubekit.errors import GraphInputError, SizeCapError
from cubekit.median import MedianGraph
from cubekit.racg import (
    LARGE_JOINS,
    SQUARES,
    DefiningGraph,
    ball,
    ball_walls,
    contracting_generators,
    cp_closure,
    j_infinity,
    j_sequence,
    maximal_large_joins,
    normal_form,
    relhyp_report,
    validate_decomposition,
    words_equal,
)


def dgn(vs, es):
    return DefiningGraph(list(vs), es)


EDGE = (list("ab"), [("a", "b")])
ISO2 = (list("ab"), [])
PATH3 = (list("abc"), [("a", "b"), ("b", "c")])
PATH4 = (list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
C4 = (list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
C5 = (list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
C6 = (list("abcdef"), C5[1][:-1] + [("e", "f"), ("f", "a")])
C4_PENDANT = (list("abcdp"), C4[1] + [("a", "p")])
FREE3 = (list("abc"), [])
TWO_SQUARES = (
    ["a1", "a2", "a3", "a4", "m", "b1", "b2", "b3", "b4"],
    [
        ("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a1"),
        ("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b1"),
        ("a1", "m"), ("m", "b1"),
    ],
)
K24 = (list("xypqrs"), [(a, b) for a in "xy" for b in "pqrs"])


class TestDefiningGraph:
    def test_rejects_bad_input(self):
        with pytest.raises(GraphInputError):
            DefiningGraph([], [])
        with pytest.raises(GraphInputError):
            dgn("ab", [("a", "a")])
        with pytest.raises(GraphInputError):
            dgn("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(GraphInputError):
            dgn("ab", [("a", "z")])

    def test_link_star_complete(self):
        dg = dgn(*PATH3)
        assert dg.link("b") == {"a", "c"}
        assert dg.star("b") == {"a", "b", "c"}
        assert dg.is_complete_set([])
        assert dg.is_complete_set(["a"])
        assert dg.is_complete_set(["a", "b"])
        assert not dg.is_complete_set(["a", "c"])
        with pytest.raises(GraphInputError):
            dg.link("z")

    def test_from_graph(self):
        g = MedianGraph(list("abcd"), C4[1])
        dg = DefiningGraph.from_graph(g)
        assert sorted(dg.vertices) == list("abcd")
        assert dg.link("a") == {"b", "d"}

    def test_induced_squares(self):
        assert dgn(*C4).induced_squares() == [("a", "b", "c", "d")]
        assert dgn(*C5).induced_squares() == []
        assert dgn(*C4_PENDANT).induced_squares() == [("a", "b", "c", "d")]
        assert len(dgn(*K24).induced_squares()) == 6

    def test_square_vertices(self):
        assert dgn(*C4).square_vertices() == frozenset("abcd")
        assert dgn(*C5).square_vertices() == frozenset()
        assert dgn(*C4_PENDANT).square_vertices() == frozenset("abcd")


class TestNormalForm:
    def test_edge_relation_collapses(self):
        dg = dgn(*EDGE)
        assert str(normal_form(dg, "abab")) == "e"
        assert normal_form(dg, "abab").letters == ()

    def test_free_product_keeps_alternating_word(self):
        dg = dgn(*ISO2)
        assert normal_form(dg, "abab").letters == ("a", "b", "a", "b")

    def test_path_examples(self):
        # On the path a-b-c the letters a, b commute, so "aba" shortens;
        # the non-commuting pattern needs the endpoints a, c.
        dg = dgn(*PATH3)
        assert normal_form(dg, "aba").letters == ("b",)
        assert normal_form(dg, "aca").letters == ("a", "c", "a")

    def test_involution_and_commutation(self):
        dg = dgn(*PATH3)
        assert str(normal_form(dg, "aa")) == "e"
        assert normal_form(dg, "ba").letters == ("a", "b")
        assert words_equal(dg, "ab", "ba")
        assert not words_equal(dg, "ac", "ca")

    def test_unknown_letter_rejected(self):
        with pytest.raises(GraphInputError, match="unknown generator 'z'"):
            normal_form(dgn(*EDGE), "az")

    @pytest.mark.parametrize(
        "spec,maxlen",
        [(EDGE, 6), (ISO2, 6), (PATH3, 6), (C4, 5), (C5, 4), (C4_PENDANT, 4)],
    )
    def test_soundness_against_reflection_matrices(self, spec, maxlen):
        # normal_form(u) == normal_form(w) must agree exactly with equality
        # of the exact integer reflection matrices, over all short words.
        dg = dgn(*spec)
        by_nf = {}
        by_mat = {}
        for ln in range(maxlen + 1):
            for word in itertools.product(dg.vertices, repeat=ln):
                nf = normal_form(dg, word).letters
                assert len(nf) <= ln
                mat = bf.coxeter_word_matrix(dg.vertices, dg.adj, word)
                if nf in by_nf:
                    assert by_nf[nf] == mat
                else:
                    by_nf[nf] = mat
                if mat in by_mat:
                    assert by_mat[mat] == nf
                else:
                    by_mat[mat] = nf

    def test_normal_form_is_idempotent_and_shortlex_least(self):
        dg = dgn(*C4)
        rng = random.Random(3)
        for _ in range(200):
            word = [rng.choice(dg.vertices) for _ in range(rng.randint(0, 8))]
            nf = normal_form(dg, word).letters
            assert normal_form(dg, nf).letters == nf
            # any adjacent transposition of commuting letters must not sort lower
            for i in range(len(nf) - 1):
                if nf[i + 1] in dg.adj[nf[i]]:
                    swapped = list(nf)
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    assert nf <= tuple(swapped)

    def test_matches_cancel_then_sort_oracle(self):
        # 400 graphs on 1-7 generators, 60 words each: random words, words
        # with doubled letters, and words u v u^-1 that cancel down to v
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(1, 7)
            vs = [f"g{i}" for i in range(n)]
            p = rng.random()
            dg = dgn(vs, [e for e in itertools.combinations(vs, 2) if rng.random() < p])
            for k in range(60):
                word = [rng.choice(vs) for _ in range(rng.randint(0, 12))]
                if k % 3 == 1:
                    word = [v for v in word for _ in range(rng.randint(1, 2))]
                elif k % 3 == 2:
                    word = word + [rng.choice(vs)] + word[::-1]
                assert normal_form(dg, word).letters == bf.normal_form_brute(dg, word)


class TestBall:
    def test_edge_ball_is_a_square(self):
        b = ball(dgn(*EDGE), 2)
        assert b.graph.n == 4
        assert sorted(len(a) for a in b.graph.adj) == [2, 2, 2, 2]
        assert b.graph.is_median().ok

    def test_free_product_ball_is_a_path(self):
        b = ball(dgn(*ISO2), 3)
        lens = sorted(len(f) for f in b.forms.values())
        assert b.graph.n == 7
        assert [lens.count(k) for k in range(4)] == [1, 2, 2, 2]
        assert sorted(len(a) for a in b.graph.adj) == [1, 1, 2, 2, 2, 2, 2]

    def test_square_cycle_ball_sizes(self):
        dg = dgn(*C4)
        assert ball(dg, 2).graph.n == 13
        assert ball(dg, 3).graph.n == 25

    @pytest.mark.parametrize("spec", [EDGE, ISO2, PATH4, C4, C5, C4_PENDANT])
    def test_sizes_match_matrix_bfs(self, spec):
        dg = dgn(*spec)
        oracle = bf.coxeter_ball_oracle(dg.vertices, dg.adj, 3)
        for r in range(4):
            want = sum(1 for d in oracle.values() if d <= r)
            assert ball(dg, r).graph.n == want

    def test_radius_zero_and_validation(self, monkeypatch):
        b = ball(dgn(*C4), 0)
        assert b.graph.n == 1 and b.graph.ids == [b.identity]
        with pytest.raises(GraphInputError):
            ball(dgn(*C4), -1)
        monkeypatch.setattr(racg, "BALL_VERTEX_CAP", 5)
        with pytest.raises(SizeCapError):
            ball(dgn(*C4), 2)

    def test_identity_name_avoids_every_generator(self):
        # every named choice is taken, "<identity>" too, so the fallback must
        # not be a generator and must hold no separator
        dg = dgn(["e", "1", "id", "eps", "<identity>"], [])
        b = ball(dg, 1)
        assert b.identity not in dg.rank and b.separator not in b.identity
        assert b.graph.n == 6 and b.forms[b.identity] == ()
        # graphs that leave a named choice free keep their identity name
        assert ball(dgn(*C4), 1).identity == "e"
        assert ball(dgn(["e", "1"], []), 1).identity == "id"
        assert ball(dgn(["e", "1", "id", "eps"], []), 1).identity == "<identity>"

    def test_edges_are_generator_multiplications(self):
        dg = dgn(*C5)
        b = ball(dg, 2)
        assert b.identity in b.forms
        for iu, iw in b.graph.edges:
            uid, wid = b.graph.ids[iu], b.graph.ids[iw]
            fu, fw = b.forms[uid], b.forms[wid]
            short, long_ = (fu, fw) if len(fu) < len(fw) else (fw, fu)
            v = b.edge_letter[(min(uid, wid), max(uid, wid))]
            assert v in dg.rank
            assert normal_form(dg, short + (v,)).letters == long_

    @pytest.mark.parametrize(
        "spec,r", [(EDGE, 2), (ISO2, 3), (C4, 3), (PATH4, 2), (C5, 2), (C4_PENDANT, 2)]
    )
    def test_balls_are_median(self, spec, r):
        assert ball(dgn(*spec), r).graph.is_median().ok


class TestBallWalls:
    def test_square_cycle_walls(self):
        bw = ball_walls(dgn(*C4), 2)
        assert bw.system.h == 8
        ja, jb, jc = (bw.generator_wall(v) for v in "abc")
        assert bw.system.transverse[ja, jb]
        assert not bw.system.transverse[ja, jc]
        for j in range(bw.system.h):
            assert 0 < bw.system.sides[j].sum() < bw.ball.graph.n

    def test_dual_edges_cross_their_wall(self):
        bw = ball_walls(dgn(*C5), 2)
        g = bw.ball.graph
        for j, dual in enumerate(bw.dual_edges):
            assert dual
            for uid, wid in dual:
                assert bw.system.sides[j, g.index[uid]] != bw.system.sides[j, g.index[wid]]

    @pytest.mark.parametrize("spec,r", [(C4, 2), (C4, 3), (C5, 2), (PATH4, 3)])
    def test_separating_wall_count_is_group_distance(self, spec, r):
        # every wall separating two ball vertices is crossed by an in-ball
        # path between them, so it owns a dual edge and gets counted
        dg = dgn(*spec)
        bw = ball_walls(dg, r)
        g = bw.ball.graph
        S = bw.system.sides
        for x in range(g.n):
            fx = bw.ball.forms[g.ids[x]]
            for y in range(x + 1, g.n):
                fy = bw.ball.forms[g.ids[y]]
                dgrp = len(normal_form(dg, fx[::-1] + fy))
                assert int(np.sum(S[:, x] != S[:, y])) == dgrp

    def test_transverse_walls_have_distinct_commuting_letters(self):
        # walls carry a well-defined generator letter; crossings only occur
        # between distinct commuting letters
        dg = dgn(*C4_PENDANT)
        bw = ball_walls(dg, 3)
        g = bw.ball.graph
        letters = []
        for dual in bw.dual_edges:
            ls = {
                bw.ball.edge_letter[(min(uid, wid), max(uid, wid))]
                for uid, wid in dual
            }
            assert len(ls) == 1
            letters.append(ls.pop())
        for i, j in zip(*np.nonzero(bw.system.transverse)):
            assert letters[i] != letters[j]
            assert letters[j] in dg.adj[letters[i]]

    def test_generator_wall_lookup(self):
        bw = ball_walls(dgn(*C4), 2)
        assert bw.reflections[bw.generator_wall("a")] == ("a",)
        with pytest.raises(GraphInputError):
            bw.generator_wall("z")

    def test_grids_through_generator_walls(self):
        expected = [
            (C4, {"a": True, "b": True, "c": True, "d": True}),
            (PATH4, {"a": False, "b": False, "c": False, "d": False}),
            (C5, {v: False for v in "abcde"}),
            (C4_PENDANT, {"a": True, "b": True, "c": True, "d": True, "p": False}),
        ]
        for spec, want in expected:
            dg = dgn(*spec)
            bw = ball_walls(dg, 3)
            for n in (2, 3):
                walls = walls_in_grids(bw.system, n)
                for v, w in want.items():
                    found = bw.generator_wall(v) in walls
                    assert found == w, (spec[1], v, n)

    def test_contracting_generators_see_no_grids(self):
        # a contracting generator's wall must not sit in any small grid of
        # walls of the ball
        for spec in (C4, PATH4, C5, C4_PENDANT):
            dg = dgn(*spec)
            verdicts = dict(contracting_generators(dg).contracting)
            bw = ball_walls(dg, 3)
            for n in (2, 3):
                walls = walls_in_grids(bw.system, n)
                for v, is_contracting in verdicts.items():
                    if is_contracting:
                        found = bw.generator_wall(v) in walls
                        assert not found

    def test_walls_in_grids_match_the_oracles_on_balls(self):
        # Coxeter ball walls: the per-wall search everywhere, the subset
        # oracle where the ball has at most 14 walls
        for spec, radii in ((C4, (1, 2, 3)), (C5, (1, 2, 3)), (TWO_SQUARES, (1, 2))):
            for r in radii:
                ws = ball_walls(dgn(*spec), r).system
                for n in (1, 2, 3, 4):
                    walls = walls_in_grids(ws, n)
                    per_wall = [bf.grid_through_wall_brute(ws, j, n) for j in range(ws.h)]
                    assert all(ok for _, ok in per_wall)
                    assert walls == {j for j, (found, _) in enumerate(per_wall) if found}
                    if ws.h <= 14:
                        assert walls == bf.grid_walls_brute(ws.sides, ws.transverse, n)


def test_grid_rule_matches_the_chain_search_on_balls():
    # Coxeter ball walls of the named defining graphs and of ten seeded
    # random ones; the rule's witnesses all pass verify_grid
    specs = [(C4, 4), (C5, 4), (PATH4, 4), (C6, 3), (C4_PENDANT, 3), (TWO_SQUARES, 3), (K24, 3)]
    specs += [(spec, 3) for spec in _random_defining_graphs(10, 27)]
    for spec, top in specs:
        for r in range(1, top + 1):
            ws = ball_walls(dgn(*spec), r).system
            rep = grid_search(ws)
            for grid in rep.witnesses:
                verify_grid(ws, grid)
            walls = {n: walls_in_grids(ws, n) for n in (1, 2, 3, 4, 5)}
            assert (set(rep.pareto), walls) == bf.grid_answers_by_chains(ws), (spec, r)


def _random_defining_graphs(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, 6)
        vs = [f"g{i}" for i in range(n)]
        es = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.45]
        out.append((vs, es))
    return out


WORD_ORACLE_CASES = [
    (C4, 3), (C5, 3), (C6, 3), (PATH4, 3), (C4_PENDANT, 3), (C5, 4)
] + [(spec, 3) for spec in _random_defining_graphs(8, 7)]


BALL_ORACLE_CASES = [
    (C4, (1, 2, 4)), (C5, (1, 3, 5)), (C6, (2, 3)), (TWO_SQUARES, (1, 2, 3)),
    (FREE3, (1, 3, 5)),
]


@pytest.mark.parametrize("spec,radii", BALL_ORACLE_CASES)
def test_ball_and_walls_match_the_rewriting_oracle(spec, radii):
    # the ball and its reflection words against whole-word renormalisation
    dg = dgn(*spec)
    for r in radii:
        b, want = ball(dg, r), bf.ball_brute(dg, r)
        assert b.graph.ids == want.graph.ids and b.graph.edges == want.graph.edges
        assert b.forms == want.forms and b.edge_letter == want.edge_letter
        bw = ball_walls(dg, r)
        refl, dual, sides, trans = bf.ball_walls_words_brute(dg, r, 2)
        assert bw.reflections == refl and bw.dual_edges == dual
        assert np.array_equal(bw.system.sides, sides)
        assert np.array_equal(bw.system.transverse, trans)


class TestTitsWalls:
    @pytest.mark.parametrize("spec,r", WORD_ORACLE_CASES)
    def test_walls_match_word_oracle(self, spec, r):
        dg = dgn(*spec)
        bw = ball_walls(dg, r)
        for buffer in (0, 2):
            refl, dual, sides, trans = bf.ball_walls_words_brute(dg, r, buffer)
            assert bw.reflections == refl
            assert bw.dual_edges == dual
            assert np.array_equal(bw.system.sides, sides)
            # the word oracle only sees crossings near the ball
            assert not (trans & ~bw.system.transverse).any()
        assert np.array_equal(bw.system.transverse, trans)

    @pytest.mark.parametrize("r", range(2, 7))
    def test_square_cycle_walls_cross_by_letters(self, r):
        # D_inf x D_inf: an a/c wall crosses every b/d wall and nothing else
        dg = dgn(*C4)
        bw = ball_walls(dg, r)
        letters = []
        for j, ((uid, wid), *_) in enumerate(bw.dual_edges):
            v = bw.ball.edge_letter[(min(uid, wid), max(uid, wid))]
            letters.append(v)
            M = bf.coxeter_word_matrix(dg.vertices, dg.adj, bw.ball.forms[uid])
            col = dg.vertices.index(v)
            assert bw.roots[j].tolist() == [row[col] for row in M]
        want = np.array([[b in dg.adj[a] for b in letters] for a in letters])
        assert np.array_equal(bw.system.transverse, want)

    def test_entry_bound_refuses(self, monkeypatch):
        monkeypatch.setattr(racg, "TITS_ENTRY_CAP", 100)
        assert ball_walls(dgn(*FREE3), 4).system.h > 0
        with pytest.raises(SizeCapError):
            ball_walls(dgn(*FREE3), 7)


class TestJoins:
    def test_maximal_large_joins(self):
        assert [sorted(s) for s in maximal_large_joins(dgn(*C4))] == [list("abcd")]
        assert maximal_large_joins(dgn(*C5)) == ()
        assert maximal_large_joins(dgn(*PATH4)) == ()
        assert [sorted(s) for s in maximal_large_joins(dgn(*C4_PENDANT))] == [list("abcd")]
        assert [sorted(s) for s in maximal_large_joins(dgn(*K24))] == [sorted("xypqrs")]

    def test_join_members_really_are_large_joins(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(2, 8)
            vs = [f"g{i}" for i in range(n)]
            es = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.45]
            dg = dgn(vs, es)
            for s in maximal_large_joins(dg):
                # some bipartition must be a large join
                members = sorted(s)
                found = False
                for bits in range(1, 1 << (len(members) - 1)):
                    a = {members[i] for i in range(len(members)) if bits >> i & 1}
                    b = set(members) - a
                    if all(y in dg.adj[x] for x in a for y in b) and not (
                        dg.is_complete_set(a) or dg.is_complete_set(b)
                    ):
                        found = True
                        break
                assert found

    def test_match_subset_scan_oracle(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 11)
            p = rng.random()
            vs = [f"g{i}" for i in range(n)]
            es = [e for e in itertools.combinations(vs, 2) if rng.random() < p]
            dg = dgn(vs, es)
            assert maximal_large_joins(dg) == bf.maximal_large_joins_brute(dg)

    def test_enumeration_cap(self):
        # 15 isolated generators: two closed sides (all and none), no join
        assert maximal_large_joins(dgn([f"g{i}" for i in range(15)], [])) == ()
        # K_{2x15}: each link is all but its own antipodal pair, so the 2^15
        # sets of pairs give 2^15 closed sides, past JOIN_ENUM_CAP
        vs = [f"{c}{i}" for i in range(15) for c in "xy"]
        es = [(a, b) for a, b in itertools.combinations(vs, 2) if a[1:] != b[1:]]
        with pytest.raises(SizeCapError, match="JOIN_ENUM_CAP"):
            maximal_large_joins(dgn(vs, es))


class TestJoinOracles:
    def test_squares_and_verdicts_match_brute_force(self):
        # squares against the C(n, 4) scan, in order; traces against the
        # pairwise merge; verdicts against the check on all maximal large
        # joins, on random, closed and fixed-point member lists
        rng = random.Random(41)
        closed_cover_fails = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            p = rng.random()
            vs = [f"g{i}" for i in range(n)]
            es = [e for e in itertools.combinations(vs, 2) if rng.random() < p]
            dg = dgn(vs, es)
            squares = bf.induced_squares_brute(dg)
            assert dg.induced_squares() == squares
            joins = maximal_large_joins(dg)
            for seed, start in ((SQUARES, squares), (LARGE_JOINS, joins)):
                trace = j_sequence(dg, seed).trace
                assert list(map(list, trace)) == bf.j_trace_brute(dg, start)

            def closed(s):
                while (t := cp_closure(dg, s)) != s:
                    s = t
                return s

            lists = [j_infinity(dg), [frozenset(vs)]]
            for _ in range(3):
                subsets = [
                    frozenset(rng.sample(vs, rng.randint(0, n)))
                    for _ in range(rng.randint(1, 3))
                ]
                lists += [subsets, [closed(s) for s in subsets]]
                assert [cp_closure(dg, s) for s in subsets] == [
                    bf.cp_closure_brute(dg, s) for s in subsets
                ]
            for members in lists:
                got = validate_decomposition(dg, members)
                want = bf.validate_decomposition_brute(dg, members)
                assert got.ok == want.ok
                assert got.intersections_ok == want.intersections_ok
                assert got.closure_ok == want.closure_ok
                assert (got.witness is None) == want.ok
                if want.closure_ok:
                    assert got.join_cover_ok == want.join_cover_ok
                    closed_cover_fails += not want.join_cover_ok
        assert closed_cover_fails > 50


class TestClosure:
    def test_square_with_pendant_is_closed(self):
        dg = dgn(*C4_PENDANT)
        assert cp_closure(dg, "abcd") == frozenset("abcd")

    def test_vertex_seeing_two_opposite_corners_joins(self):
        dg = dgn("abcdv", C4[1] + [("v", "a"), ("v", "c")])
        assert cp_closure(dg, "abcd") == frozenset("abcdv")

    def test_whole_vertex_set_is_fixed(self):
        dg = dgn(*C5)
        assert cp_closure(dg, "abcde") == frozenset("abcde")


class TestJSequence:
    def test_frozen_fixed_points(self):
        assert j_infinity(dgn(*C4)) == (frozenset("abcd"),)
        assert j_infinity(dgn(*C5)) == ()
        assert j_infinity(dgn(*PATH4)) == ()
        assert j_infinity(dgn(*C4_PENDANT)) == (frozenset("abcd"),)
        two = j_infinity(dgn(*TWO_SQUARES))
        assert set(two) == {
            frozenset(("a1", "a2", "a3", "a4")),
            frozenset(("b1", "b2", "b3", "b4")),
        }

    def test_squares_merge_to_whole_graph(self):
        rep = j_sequence(dgn(*K24), SQUARES)
        assert [len(t) for t in rep.trace] == [6, 1]
        assert rep.members == (frozenset("xypqrs"),)
        assert rep.trivial

    def test_trivial_flag(self):
        assert j_sequence(dgn(*C4)).trivial
        assert not j_sequence(dgn(*C5)).trivial
        assert not j_sequence(dgn(*C4_PENDANT)).trivial

    def test_unknown_seed_rejected(self):
        with pytest.raises(GraphInputError):
            j_sequence(dgn(*C4), seed="cubes")

    @pytest.mark.parametrize(
        "spec", [C4, C5, PATH4, C4_PENDANT, TWO_SQUARES, K24]
    )
    def test_seed_invariance_on_fixtures(self, spec):
        dg = dgn(*spec)
        assert set(j_sequence(dg, SQUARES).members) == set(
            j_sequence(dg, LARGE_JOINS).members
        )

    def test_squares_are_listed_once_per_run(self, monkeypatch):
        # every listing, as names or as masks, goes through _square_masks
        calls = []
        real = DefiningGraph._square_masks

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(DefiningGraph, "_square_masks", spy)
        for spec in (C4, C5, C4_PENDANT, TWO_SQUARES, K24):
            for seed in (SQUARES, LARGE_JOINS):
                calls.clear()
                rep = j_sequence(dgn(*spec), seed)
                # a large-joins run lists them only to check a nonempty fixed point
                assert len(calls) == int(seed == SQUARES or bool(rep.members)), (spec, seed)

    def test_seed_invariance_on_random_graphs(self):
        rng = random.Random(11)
        # 40 small graphs, then 6 past the 14 generators of a subset scan
        sizes = [(2, 8, 0.4)] * 40 + [(15, 25, None)] * 6
        for lo, hi, p in sizes:
            n = rng.randint(lo, hi)
            p = p or rng.uniform(0.15, 0.35)
            vs = [f"g{i}" for i in range(n)]
            es = [e for e in itertools.combinations(vs, 2) if rng.random() < p]
            dg = dgn(vs, es)
            assert set(j_sequence(dg, SQUARES).members) == set(
                j_sequence(dg, LARGE_JOINS).members
            )

    @pytest.mark.parametrize(
        "spec",
        [EDGE, ISO2, PATH3, PATH4, C4, C5, C6, C4_PENDANT, FREE3, TWO_SQUARES, K24],
    )
    def test_squares_seed_never_enumerates_joins(self, spec, monkeypatch):
        dg = dgn(*spec)
        want = j_sequence(dg, LARGE_JOINS).members

        def refuse(dg):
            raise AssertionError("maximal_large_joins called")

        monkeypatch.setattr(racg, "maximal_large_joins", refuse)
        assert set(j_sequence(dg, SQUARES).members) == set(want)

    def test_forty_dense_generators_are_decided(self):
        # past JOIN_ENUM_CAP: the fixed point is still found and validated
        rng = random.Random(40)
        vs = [f"g{i}" for i in range(40)]
        dg = dgn(vs, [e for e in itertools.combinations(vs, 2) if rng.random() < 0.5])
        with pytest.raises(SizeCapError, match="JOIN_ENUM_CAP"):
            maximal_large_joins(dg)
        rep = j_sequence(dg, SQUARES)
        assert rep.members and validate_decomposition(dg, rep.members).ok
        assert len(rep.trace[0]) == len(dg.induced_squares()) > 1000

    def test_fixed_points_validate(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(3, 9)
            vs = [f"g{i}" for i in range(n)]
            es = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.5]
            dg = dgn(vs, es)
            members = j_infinity(dg)
            if members:
                assert validate_decomposition(dg, members).ok


class TestValidateDecomposition:
    def test_whole_graph_is_always_valid(self):
        for spec in (C4, C5, C4_PENDANT, TWO_SQUARES):
            dg = dgn(*spec)
            assert validate_decomposition(dg, [frozenset(dg.vertices)]).ok

    def test_valid_alternative_for_two_squares(self):
        dg = dgn(*TWO_SQUARES)
        alt = [frozenset(("a1", "a2", "a3", "a4", "m")), frozenset(("b1", "b2", "b3", "b4"))]
        assert validate_decomposition(dg, alt).ok

    def test_join_cover_violation(self):
        dg = dgn(*C4)
        v = validate_decomposition(dg, [frozenset("abc")])
        assert not v.ok and not v.join_cover_ok
        assert "join" in v.witness

    def test_intersection_violation(self):
        dg = dgn(*C4)
        v = validate_decomposition(dg, [frozenset("abcd"), frozenset("ac")])
        assert not v.intersections_ok

    def test_closure_violation(self):
        dg = dgn("abcdv", C4[1] + [("v", "a"), ("v", "c")])
        v = validate_decomposition(dg, [frozenset("abcdv"), frozenset("abcd")])
        assert not v.closure_ok
        dg2 = dgn(*C4_PENDANT)
        v2 = validate_decomposition(dg2, [frozenset("abc")])
        assert not v2.ok

    def test_minimality_of_fixed_point(self):
        # the canonical members embed into every valid decomposition offered
        cases = [
            (dgn(*TWO_SQUARES), [
                [frozenset(("a1", "a2", "a3", "a4", "m")), frozenset(("b1", "b2", "b3", "b4"))],
                [frozenset(("a1", "a2", "a3", "a4", "m")), frozenset(("b1", "b2", "b3", "b4", "m"))],
                [frozenset(["a1", "a2", "a3", "a4", "m", "b1", "b2", "b3", "b4"])],
            ]),
            (dgn(*C4_PENDANT), [
                [frozenset("abcd")],
                [frozenset("abcdp")],
            ]),
        ]
        for dg, decomps in cases:
            members = j_infinity(dg)
            for dec in decomps:
                assert validate_decomposition(dg, dec).ok
                for m in members:
                    assert any(m <= other for other in dec)


class TestContractingGenerators:
    def test_square_free_cycle_all_contracting(self):
        rep = contracting_generators(dgn(*C5))
        assert all(flag for _, flag in rep.contracting)
        assert rep.square_vertices == frozenset()
        assert rep.star_peripherals == ()
        assert rep.join_peripherals == ()

    def test_square_cycle_none_contracting(self):
        rep = contracting_generators(dgn(*C4))
        assert not any(flag for _, flag in rep.contracting)
        assert rep.square_vertices == frozenset("abcd")
        assert set(rep.star_peripherals) == {
            frozenset("dab"), frozenset("abc"), frozenset("bcd"), frozenset("cda")
        }
        assert rep.join_peripherals == (frozenset("abcd"),)

    def test_path_all_contracting(self):
        rep = contracting_generators(dgn(*PATH4))
        assert all(flag for _, flag in rep.contracting)

    def test_pendant_vertex_contracting(self):
        rep = contracting_generators(dgn(*C4_PENDANT))
        verdicts = dict(rep.contracting)
        assert verdicts == {"a": False, "b": False, "c": False, "d": False, "p": True}
        assert frozenset("dabp") in rep.star_peripherals


class TestRelHyp:
    def test_square_cycle_not_relatively_hyperbolic(self):
        rep = relhyp_report(dgn(*C4))
        assert not rep.relatively_hyperbolic
        assert rep.peripherals == (frozenset("abcd"),)
        assert rep.meaning

    def test_square_free_cycle_hyperbolic(self):
        rep = relhyp_report(dgn(*C5))
        assert rep.relatively_hyperbolic
        assert rep.peripherals == ()
        assert "hyperbolic" in rep.meaning

    def test_two_squares_relatively_hyperbolic(self):
        rep = relhyp_report(dgn(*TWO_SQUARES))
        assert rep.relatively_hyperbolic
        assert len(rep.peripherals) == 2

    def test_pendant_square_relatively_hyperbolic(self):
        rep = relhyp_report(dgn(*C4_PENDANT))
        assert rep.relatively_hyperbolic
        assert rep.peripherals == (frozenset("abcd"),)
