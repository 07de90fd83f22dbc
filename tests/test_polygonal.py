"""Polygonal complexes: validation, pieces, SC conditions, walls, duals."""

import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest

from bruteforce import (
    best_family_brute,
    dual_orientations_brute,
    grid_answers_by_chains,
    hyperplane_walls_brute,
    min_circular_cover_brute,
    wall_classes_brute,
)
from cubekit.errors import (
    GraphInputError,
    SizeCapError,
    ValidationError,
)
from cubekit import median, polygonal
from cubekit.formats import parse_polygons
from cubekit.polygonal import (
    CELL_CUBE,
    EDGE_CUBE,
    EDGE_MIDPOINT,
    POLYGON_CENTER,
    SEGMENT_MIDPOINT,
    SINGLE_VERTEX_NOTE,
    VERTEX_POINT,
    ClassificationReport,
    DualCubeComplex,
    PolygonalComplex,
    _arcs_on,
    _min_circular_cover,
    classify_maximal_cubes,
    dual_cube_complex,
    dual_projection,
    pieces,
    polygonal_sc_check,
    separation_transfer,
    walls,
)
from fixtures import (
    cyclic_garbage,
    corner_squares_complex,
    covered_square_complex,
    hex_chain_complex,
    hypercube,
    lone_edge_complex,
    ngon_complex,
    shared_path_complex,
    square_chain_complex,
    square_complex,
    square_pendant_complex,
    three_square_fan_complex,
    twice_through_hexagon_complex,
    two_hexagons_complex,
)

QUARTER = Fraction(1, 4)


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(g.ids)
    h.add_edges_from((g.ids[a], g.ids[b]) for a, b in g.edges)
    return h


def share_polygon(a, b):
    return bool(set(a.polygons) & set(b.polygons))


def sc_fixtures():
    return {
        "square": square_complex(),
        "hexagon": ngon_complex(6),
        "octagon": ngon_complex(8),
        "two-hexagons": two_hexagons_complex(),
        "hex-chain-3": hex_chain_complex(3),
        "square-pendant": square_pendant_complex(),
        "corner-squares": corner_squares_complex(),
        "lone-edge": lone_edge_complex(),
    }


def dual_fixtures():
    """Every polygonal fixture whose walls are two-sided, and so has a dual."""
    return {
        **sc_fixtures(),
        **{f"{2 * k}-gon": ngon_complex(2 * k) for k in (2, 5, 6)},
        "no-edges": PolygonalComplex(["a", "b"], {}, {}),
        "hex-chain-8": hex_chain_complex(8),
        "square-chain-6": square_chain_complex(6),
        "three-square-fan": three_square_fan_complex(),
        "twice-through-hexagon": twice_through_hexagon_complex(),
        "shared-path-8-2": shared_path_complex(8, 2),
        "shared-path-10-3": shared_path_complex(10, 3),
        "covered-square": covered_square_complex(),
        "covered-square-wrap": covered_square_complex(wrap=True),
    }


class TestValidate:
    def test_square(self):
        x = square_complex()
        assert len(x.polygons) == 1
        assert x.sides("P") == 4
        assert x.boundary["P"] == ("a", "b", "c", "d")
        assert x.boundary_edges["P"] == ("e1", "e2", "e3", "e4")
        assert all(x.edge_polygons[e] == ("P",) for e in x.edges)

    def test_triangle_rejected(self):
        es = {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "a")}
        with pytest.raises(GraphInputError, match="3 sides"):
            PolygonalComplex(["a", "b", "c"], es, {"P": [(e, 1) for e in es]})

    def test_bigon_rejected(self):
        es = {"e1": ("a", "b"), "e2": ("b", "a")}
        with pytest.raises(GraphInputError, match="2 sides"):
            PolygonalComplex(["a", "b"], es, {"P": [("e1", 1), ("e2", 1)]})

    def test_pentagon_rejected(self):
        vs = [f"v{i}" for i in range(5)]
        es = {f"e{i}": (f"v{i}", f"v{(i + 1) % 5}") for i in range(5)}
        with pytest.raises(GraphInputError, match="5 sides"):
            PolygonalComplex(vs, es, {"P": [(f"e{i}", 1) for i in range(5)]})

    def test_two_hexagons_counts(self):
        x = two_hexagons_complex()
        assert len(x.ids) == 10
        assert len(x.polygons) == 2
        assert len(x.edges) == 11

    def test_broken_chain_rejected(self):
        es = {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "d"), "e4": ("d", "a")}
        chain = [("e1", 1), ("e2", -1), ("e3", 1), ("e4", 1)]
        with pytest.raises(GraphInputError, match="closed edge cycle"):
            PolygonalComplex(["a", "b", "c", "d"], es, {"P": chain})

    def test_revisiting_vertex_rejected(self):
        es = {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "b"), "e4": ("b", "a")}
        chain = [("e1", 1), ("e2", 1), ("e3", 1), ("e4", 1)]
        with pytest.raises(GraphInputError, match="revisits"):
            PolygonalComplex(["a", "b", "c"], es, {"P": chain})

    def test_unknown_edge_rejected(self):
        with pytest.raises(GraphInputError, match="unknown edge"):
            PolygonalComplex(["a", "b"], {"e": ("a", "b")}, {"P": [("zz", 1)]})

    def test_duplicate_boundary_rejected(self):
        es = {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "d"), "e4": ("d", "a")}
        ps = {
            "P": [("e1", 1), ("e2", 1), ("e3", 1), ("e4", 1)],
            "Q": [("e4", -1), ("e3", -1), ("e2", -1), ("e1", -1)],
        }
        with pytest.raises(GraphInputError, match="same boundary"):
            PolygonalComplex(["a", "b", "c", "d"], es, ps)

    def test_loop_edge_rejected(self):
        with pytest.raises(GraphInputError, match="loop"):
            PolygonalComplex(["a"], {"e": ("a", "a")}, {})

    def test_undeclared_vertex_rejected(self):
        with pytest.raises(GraphInputError, match="undeclared"):
            PolygonalComplex(["a"], {"e": ("a", "b")}, {})

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(GraphInputError, match="duplicate"):
            PolygonalComplex(["a", "a"], {}, {})

    def test_from_raw(self):
        text = """
vertex a
vertex b
vertex c
vertex d
edge e1 a b
edge e2 b c
edge e3 c d
edge e4 d a
polygon P : +e1 +e2 +e3 +e4
"""
        x = PolygonalComplex.from_raw(parse_polygons(text))
        assert x.sides("P") == 4
        assert x.boundary["P"] == ("a", "b", "c", "d")

    def test_fan_links(self):
        x = three_square_fan_complex()
        assert len(x.links["v0"]) == 3
        for eprev, enext, pid in x.links["v0"]:
            assert pid in x.polygons
            assert eprev in x.incident["v0"] and enext in x.incident["v0"]
        assert len(x.links["q1"]) == 1


class TestPieces:
    def test_single_polygon_none(self):
        assert pieces(ngon_complex(4)) == ()
        assert pieces(ngon_complex(8)) == ()

    def test_two_hexagons(self):
        (pc,) = pieces(two_hexagons_complex())
        assert pc.polygons == ("P", "Q")
        assert pc.edges == ("e0",)
        assert set(pc.vertices) == {"v0", "v1"}
        assert pc.length == 1

    def test_shared_path(self):
        (pc,) = pieces(shared_path_complex(8, 2))
        assert pc.edges == ("e0", "e1")
        assert pc.vertices == ("v0", "v1", "v2")

    def test_chain_adjacent_only(self):
        x = square_chain_complex(3)
        pcs = pieces(x)
        assert {pc.polygons for pc in pcs} == {("P0", "P1"), ("P1", "P2")}
        assert all(pc.length == 1 for pc in pcs)
        assert {pc.edges[0] for pc in pcs} == {"v1", "v2"}

    def test_pieces_are_maximal_shared_arcs(self):
        for x in (
            two_hexagons_complex(),
            shared_path_complex(8, 2),
            shared_path_complex(10, 3),
            covered_square_complex(),
            covered_square_complex(wrap=True),
            square_chain_complex(4),
            three_square_fan_complex(),
        ):
            for pc in pieces(x):
                p, q = pc.polygons
                shared = set(x.boundary_edges[p]) & set(x.boundary_edges[q])
                assert set(pc.edges) <= shared
                for pid in pc.polygons:
                    eids = x.boundary_edges[pid]
                    pos = sorted(eids.index(e) for e in pc.edges)
                    m = len(eids)
                    spans = {
                        (pos[0] + k) % m for k in range(pos[-1] - pos[0] + 1)
                    } == set(pos) or {
                        (pos[-1] + k) % m for k in range(m - pos[-1] + pos[0] + 1)
                    } >= set(pos)
                    assert spans
                # maximality: the neighbouring boundary edges are not shared
                eids = x.boundary_edges[p]
                m = len(eids)
                idx = [eids.index(e) for e in pc.edges]
                before = eids[(min(idx) - 1) % m]
                after = eids[(max(idx) + 1) % m]
                if len(pc.edges) < m:
                    assert before not in shared or before in pc.edges
                    assert after not in shared or after in pc.edges


class TestSCCheck:
    def test_single_ngon_trivial(self):
        for sides in (4, 6, 8):
            rep = polygonal_sc_check(ngon_complex(sides), QUARTER)
            assert rep.passed
            assert rep.pieces == ()
            assert rep.max_piece == 0
            assert rep.cover.covers == (("P", None),)

    def test_two_hexagons_metric(self):
        x = two_hexagons_complex()
        rep = polygonal_sc_check(x, QUARTER)
        assert rep.max_piece == 1
        assert rep.metric.passed  # 1 < 6/4
        assert rep.passed
        tight = polygonal_sc_check(x, Fraction(1, 6))
        assert not tight.metric.passed  # 1 >= 6 * 1/6, strict bound
        piece, pid = tight.metric.witness
        assert piece.edges == ("e0",)
        assert pid in ("P", "Q")

    def test_cover_exact(self):
        x = covered_square_complex()
        rep = polygonal_sc_check(x, QUARTER)
        assert dict(rep.cover.covers)["P"] == 2
        assert rep.cover.witness == "P"
        assert not rep.cover.passed
        assert not rep.metric.passed  # piece of length 2 against a square
        ok = polygonal_sc_check(x, QUARTER, n_cover=2)
        assert ok.cover.passed

    def test_cover_wraparound(self):
        rep = polygonal_sc_check(covered_square_complex(wrap=True), QUARTER)
        assert dict(rep.cover.covers)["P"] == 2
        assert rep.cover.witness == "P"

    def test_cover_matches_bruteforce(self):
        for x in (
            two_hexagons_complex(),
            covered_square_complex(),
            covered_square_complex(wrap=True),
            square_chain_complex(4),
            hex_chain_complex(3),
            shared_path_complex(8, 2),
        ):
            pcs = pieces(x)
            for pid in x.polygons:
                m, arcs = _arcs_on(x, pid, pcs)
                assert _min_circular_cover(m, arcs) == min_circular_cover_brute(
                    m, arcs
                )

    def test_cover_matches_bruteforce_on_random_arcs(self):
        # no arcs, a full-length arc and an uncovered position included
        rng = random.Random(11)
        cases = [(5, set()), (5, {(2, 5)}), (6, {(0, 2), (3, 3)}), (4, {(3, 6)})]
        for _ in range(400):
            m = rng.randint(1, 9)
            arcs = {(rng.randrange(m), rng.randint(1, m)) for _ in range(rng.randint(0, 5))}
            cases.append((m, arcs))
        seen = set()
        for m, arcs in cases:
            want = min_circular_cover_brute(m, arcs)
            assert _min_circular_cover(m, arcs) == want, (m, arcs)
            seen.add(want)
        assert {None, 1, 2, 3} <= seen

    def test_fan_link_fail(self):
        rep = polygonal_sc_check(three_square_fan_complex(), QUARTER)
        assert not rep.link.passed
        v, cycle = rep.link.witness
        assert v == "v0"
        assert sorted(cycle) == ["e1", "e2", "e3"]
        rep5 = polygonal_sc_check(three_square_fan_complex(), QUARTER, n_link=5)
        assert not rep5.link.passed

    def test_chain_links_pass(self):
        rep = polygonal_sc_check(square_chain_complex(4), QUARTER)
        assert rep.link.passed

    def test_parallel_link_corners_allowed(self):
        # P and Q both corner from e1 onto e2 at vertex b; the resulting
        # 2-cycle in the link is permitted
        rep = polygonal_sc_check(covered_square_complex(), QUARTER)
        assert rep.link.passed

    def test_parameter_validation(self):
        x = square_complex()
        for lam in (0, 1, -1, Fraction(5, 4)):
            with pytest.raises(GraphInputError):
                polygonal_sc_check(x, lam)
        with pytest.raises(GraphInputError):
            polygonal_sc_check(x, QUARTER, n_cover=0)
        with pytest.raises(GraphInputError):
            polygonal_sc_check(x, QUARTER, n_link=2)

    def test_metric_quarter_implies_cover_five(self):
        for x in (two_hexagons_complex(), hex_chain_complex(3), ngon_complex(8)):
            rep = polygonal_sc_check(x, QUARTER, n_cover=5)
            assert rep.metric.passed
            assert rep.cover.passed
            assert all(v is None or v >= 5 for _, v in rep.cover.covers)

    def test_large_polygons_answer(self):
        # the greedy sweep is polynomial, so no polygon size is refused
        for x in (
            ngon_complex(26),
            ngon_complex(40),
            ngon_complex(200),
            shared_path_complex(26, 3),
            shared_path_complex(40, 12),
        ):
            rep = polygonal_sc_check(x, QUARTER)
            pcs = pieces(x)
            for pid, val in rep.cover.covers:
                m, arcs = _arcs_on(x, pid, pcs)
                assert m == x.sides(pid) >= 26
                assert val == min_circular_cover_brute(m, arcs), (x, pid)


class TestWalls:
    def test_square_walls(self):
        ws = walls(square_complex())
        assert [w.edges for w in ws] == [("e1", "e3"), ("e2", "e4")]
        assert ws[0].sides == (frozenset({"a", "d"}), frozenset({"b", "c"}))
        assert ws[1].sides == (frozenset({"a", "b"}), frozenset({"c", "d"}))
        assert all(w.two_sided and w.polygons == ("P",) for w in ws)

    def test_ngon_wall_count(self):
        for sides in (4, 6, 8, 10):
            ws = walls(ngon_complex(sides))
            assert len(ws) == sides // 2
            for w in ws:
                i = int(w.edges[0][1:])
                assert set(w.edges) == {f"e{i}", f"e{i + sides // 2}"}

    def test_partition_matches_bruteforce(self):
        for x in sc_fixtures().values():
            ws = walls(x)
            got = sorted((frozenset(w.edges) for w in ws), key=sorted)
            assert got == wall_classes_brute(x)
            counts = [e for w in ws for e in w.edges]
            assert sorted(counts) == sorted(x.edges)

    def test_two_hexagons_shared_wall(self):
        ws = walls(two_hexagons_complex())
        (shared,) = [w for w in ws if "e0" in w.edges]
        assert shared.edges == ("e0", "e3", "f2")
        assert shared.polygons == ("P", "Q")
        assert len(ws) == 5

    def test_lone_edge_wall(self):
        (w,) = walls(lone_edge_complex())
        assert w.edges == ("e",)
        assert w.polygons == ()
        assert w.sides == (frozenset({"a"}), frozenset({"b"}))

    def test_two_sided_on_sc_fixtures(self):
        for name, x in sc_fixtures().items():
            assert all(w.two_sided for w in walls(x)), name

    def test_degenerate_sides_reported(self):
        x = PolygonalComplex(
            ["a", "b", "c", "d"], {"e": ("a", "b"), "f": ("c", "d")}, {}
        )
        ws = walls(x)
        assert all(len(w.sides) == 3 for w in ws)
        assert not any(w.two_sided for w in ws)
        with pytest.raises(ValidationError, match="degenerate"):
            dual_cube_complex(x)

    def test_walls_cross(self):
        assert dual_cube_complex(square_complex()).system.transverse[0, 1]
        dc = dual_cube_complex(square_chain_complex(3))
        trans = dc.system.transverse
        vertical = next(w.index for w in dc.walls if "v0" in w.edges)
        horiz = [w.index for w in dc.walls if w.index != vertical]
        assert all(trans[vertical, k] for k in horiz)
        assert not any(
            trans[a, b] for a, b in itertools.combinations(horiz, 2)
        )


class TestDualComplex:
    def test_square_dual_is_four_cycle(self):
        dc = dual_cube_complex(square_complex())
        assert dc.graph.n == 4
        assert nx.is_isomorphic(to_nx(dc.graph), nx.cycle_graph(4))

    def test_ngon_dual_is_hypercube(self):
        for n in (2, 3, 4, 5):
            dc = dual_cube_complex(ngon_complex(2 * n))
            assert dc.graph.n == 2**n
            assert nx.is_isomorphic(to_nx(dc.graph), to_nx(hypercube(n)))

    def test_two_hexagons_dual(self):
        dc = dual_cube_complex(two_hexagons_complex())
        assert dc.graph.n == 14
        assert len(dc.graph.hyperplanes()) == 5

    def test_chain_dual_is_grid(self):
        dc = dual_cube_complex(square_chain_complex(6))
        assert dc.graph.n == 14
        assert nx.is_isomorphic(to_nx(dc.graph), nx.grid_2d_graph(2, 7))

    def test_principals(self):
        for name, x in sc_fixtures().items():
            dc = dual_cube_complex(x)
            ids = set(dc.graph.ids)
            assert set(dc.principal) == set(x.ids)
            assert set(dc.principal.values()) <= ids
            for a, b in x.edges.values():
                pa, pb = dc.principal[a], dc.principal[b]
                g = dc.graph
                assert pa == pb or g.dist[g.index[pa], g.index[pb]] == 1, name

    def test_hyperplanes_biject_with_walls(self):
        # the labels read off the edge classes equal the ones read off the
        # hyperplane inventory, on every polygonal fixture
        for name, x in dual_fixtures().items():
            dc = dual_cube_complex(x)
            assert dc.hyperplane_walls == hyperplane_walls_brute(dc), name
        for x in (square_complex(), two_hexagons_complex(), square_chain_complex(4)):
            dc = dual_cube_complex(x)
            assert sorted(dc.hyperplane_walls) == list(range(len(dc.walls)))
            for hp in dc.graph.hyperplanes():
                k = dc.hyperplane_walls[hp.index]
                for ida, idb in hp.dual_edges:
                    sa, sb = dc.orientations[ida], dc.orientations[idb]
                    assert [j for j in range(len(dc.walls)) if sa[j] != sb[j]] == [k]

    def test_dual_builds_no_hyperplane_objects_and_no_cube_corners(self, monkeypatch):
        # the labels come from the edge classes; the Hyperplane inventory and
        # the cube corners are left to the callers that read them
        built = []

        class Spy(median.Hyperplane):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        def corners(self, gates, hs):
            built.append(len(gates))
            return real_corners(self, gates, hs)

        real_corners = median.MedianGraph._cube_corners
        monkeypatch.setattr(median, "Hyperplane", Spy)
        monkeypatch.setattr(median.MedianGraph, "_cube_corners", corners)
        for name, x in dual_fixtures().items():
            dc = dual_cube_complex(x)
            assert "hyperplanes" not in dc.graph._cache, name
        assert built == []
        # the spies do see the inventory when it is asked for
        dc.graph.hyperplanes()
        dc.graph.maximal_cubes()
        assert built

    def test_no_edges_collapses_to_point(self):
        dc = dual_cube_complex(PolygonalComplex(["a", "b"], {}, {}))
        assert dc.graph.n == 1
        assert dc.principal == {"a": "o", "b": "o"}

    def test_wall_less_dual_fields(self):
        # no walls take the same path as any other complex
        x = PolygonalComplex(["a", "b"], {}, {})
        dc = dual_cube_complex(x)
        assert dc.base is x and dc.walls == ()
        assert dc.vertex_index == {"a": 0, "b": 1}
        assert dc.wall_of_edge == {}
        assert dc.system.sides.shape == (0, 2)
        assert dc.system.transverse.shape == (0, 0)
        assert dc.graph.ids == ["o"] and list(dc.graph.edges) == []
        assert dc.orientations == {"o": ()}
        assert dc.hyperplane_walls == ()
        assert dc.graph.is_median().ok

    def test_vertex_cap(self, monkeypatch):
        # 12 and 13 pairwise crossing walls: the 12-cube (4 096 vertices) and
        # the 13-cube are past the median recognition cap, and are refused
        # while the orientations are enumerated, before any graph is built
        built = []

        class Spy(median.MedianGraph):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(polygonal, "MedianGraph", Spy)
        for sides in (24, 26):
            with pytest.raises(
                SizeCapError, match="exceeds 4000 vertices, the IS_MEDIAN_CAP"
            ):
                dual_cube_complex(ngon_complex(sides))
        assert built == []
        # the spy does see a dual under the cap
        dual_cube_complex(ngon_complex(22))
        assert len(built) == 1

    def test_fan_dual_is_median_anyway(self):
        dc = dual_cube_complex(three_square_fan_complex())
        assert dc.graph.n == 8
        assert dc.graph.is_median().ok


class TestClassification:
    def test_hexagon_cell_cube(self):
        dc = dual_cube_complex(ngon_complex(6))
        rep = classify_maximal_cubes(dc)
        assert rep.ok
        (tag,) = rep.tags
        assert (tag.kind, tag.ref, tag.dimension) == (CELL_CUBE, "P", 3)
        assert len(tag.vertices) == 8

    def test_two_hexagons_two_cells(self):
        rep = classify_maximal_cubes(dual_cube_complex(two_hexagons_complex()))
        assert rep.ok
        assert [(t.kind, t.ref, t.dimension) for t in rep.tags] == [
            (CELL_CUBE, "P", 3),
            (CELL_CUBE, "Q", 3),
        ]

    def test_square_pendant(self):
        rep = classify_maximal_cubes(dual_cube_complex(square_pendant_complex()))
        assert rep.ok
        assert [(t.kind, t.ref, t.dimension) for t in rep.tags] == [
            (CELL_CUBE, "P", 2),
            (EDGE_CUBE, "p", 1),
        ]

    def test_lone_edge(self):
        rep = classify_maximal_cubes(dual_cube_complex(lone_edge_complex()))
        assert rep.ok
        assert [(t.kind, t.ref, t.dimension) for t in rep.tags] == [
            (EDGE_CUBE, "e", 1)
        ]

    def test_fan_unclassified(self):
        rep = classify_maximal_cubes(dual_cube_complex(three_square_fan_complex()))
        assert not rep.ok
        ((wset, verts),) = rep.unmatched
        assert wset == (0, 1, 2)
        assert len(verts) == 8

    def test_chain_all_matched(self):
        rep = classify_maximal_cubes(dual_cube_complex(square_chain_complex(5)))
        assert rep.ok
        assert [(t.kind, t.ref, t.dimension) for t in rep.tags] == [
            (CELL_CUBE, f"P{i}", 2) for i in range(5)
        ]

    def test_classification_ignores_polygon_names(self):
        # squares P, Q and the hexagon share one wall set; the square cube is
        # P's whether the hexagon sorts after them (R) or before (H)
        x = twice_through_hexagon_complex()
        for name in ("R", "H"):
            y = PolygonalComplex(
                x.ids, x.edges, {(name if p == "R" else p): c for p, c in x.polygons.items()}
            )
            dc = dual_cube_complex(y)
            rep = classify_maximal_cubes(dc)
            assert rep.ok and not rep.unmatched, name
            assert [(t.kind, t.ref, t.dimension, sorted(t.vertices)) for t in rep.tags] == [
                (CELL_CUBE, "P", 2, ["o000", "o010", "o100", "o110"]),
                (EDGE_CUBE, "e25", 1, ["o110", "o111"]),
            ], name
            cells = [dual_projection(y, dc, v).cell for v in dc.graph.ids]
            assert cells == [("polygon", "P")] * 3 + [("vertex", "5"), ("vertex", "2")], name

    def test_cell_cube_sizes(self):
        for x in (two_hexagons_complex(), shared_path_complex(8, 2)):
            dc = dual_cube_complex(x)
            for tag in classify_maximal_cubes(dc).tags:
                if tag.kind == CELL_CUBE:
                    assert 2 * tag.dimension == x.sides(tag.ref)
                    assert len(tag.vertices) == 2**tag.dimension


class TestProjection:
    def test_hexagon_center(self):
        x = ngon_complex(6)
        dc = dual_cube_complex(x)
        for v in dc.graph.ids:
            pt = dual_projection(x, dc, v)
            assert pt.kind == POLYGON_CENTER
            assert pt.cell == ("polygon", "P")
            assert pt.carrier == frozenset(x.boundary["P"])

    def test_lone_edge_endpoints(self):
        x = lone_edge_complex()
        dc = dual_cube_complex(x)
        cells = {dual_projection(x, dc, v).cell for v in dc.graph.ids}
        assert cells == {("vertex", "a"), ("vertex", "b")}
        assert dual_projection(x, dc, dc.principal["a"]).cell == ("vertex", "a")

    def test_square_pendant_points(self):
        x = square_pendant_complex()
        dc = dual_cube_complex(x)
        assert dual_projection(x, dc, dc.principal["t"]).cell == ("vertex", "t")
        assert dual_projection(x, dc, dc.principal["d"]).cell == ("vertex", "d")
        pb = dual_projection(x, dc, dc.principal["b"])
        assert pb.kind == POLYGON_CENTER and pb.cell == ("polygon", "P")

    def test_two_hexagons_edge_midpoint(self):
        x = two_hexagons_complex()
        dc = dual_cube_complex(x)
        rep = classify_maximal_cubes(dc)
        shared = rep.tags[0].vertices & rep.tags[1].vertices
        assert len(shared) == 2
        for v in shared:
            pt = dual_projection(x, dc, v, rep)
            assert pt.kind == EDGE_MIDPOINT
            assert pt.cell == ("edge", "e0")
            assert pt.carrier == frozenset({"v0", "v1"})

    def test_even_segment_midpoint_is_vertex(self):
        x = shared_path_complex(8, 2)
        dc = dual_cube_complex(x)
        rep = classify_maximal_cubes(dc)
        shared = rep.tags[0].vertices & rep.tags[1].vertices
        assert len(shared) == 4
        for v in shared:
            pt = dual_projection(x, dc, v, rep)
            assert pt.kind == SEGMENT_MIDPOINT
            assert pt.cell == ("vertex", "v1")
            assert pt.path == ("v0", "v1", "v2")

    def test_odd_segment_midpoint_is_edge(self):
        x = shared_path_complex(10, 3)
        dc = dual_cube_complex(x)
        rep = classify_maximal_cubes(dc)
        shared = rep.tags[0].vertices & rep.tags[1].vertices
        for v in shared:
            pt = dual_projection(x, dc, v, rep)
            assert pt.kind == SEGMENT_MIDPOINT
            assert pt.cell == ("edge", "e1")
            assert pt.path == ("v0", "v1", "v2", "v3")
            assert pt.carrier == frozenset({"v1", "v2"})

    def test_corner_squares_vertex(self):
        x = corner_squares_complex()
        dc = dual_cube_complex(x)
        rep = classify_maximal_cubes(dc)
        shared = rep.tags[0].vertices & rep.tags[1].vertices
        assert len(shared) == 1
        (v,) = shared
        pt = dual_projection(x, dc, v, rep)
        assert pt.kind == VERTEX_POINT
        assert pt.cell == ("vertex", "c")
        assert pt.note == SINGLE_VERTEX_NOTE

    def test_fan_projection_raises(self):
        x = three_square_fan_complex()
        dc = dual_cube_complex(x)
        with pytest.raises(ValidationError, match="unclassified"):
            dual_projection(x, dc, sorted(dc.graph.ids)[0])

    def test_unknown_vertex_is_input_error(self):
        x = ngon_complex(4)
        dc = dual_cube_complex(x)
        with pytest.raises(GraphInputError, match="unknown vertex"):
            dual_projection(x, dc, "nope")


class TestSeparationTransfer:
    def test_chain_six(self):
        x = square_chain_complex(6)
        dc = dual_cube_complex(x)
        tr = separation_transfer(x, dc, dc.principal["t0"], dc.principal["t6"])
        assert tr.dual_disjoint == 6
        assert tr.wall_disjoint == 4
        assert tr.holds
        assert tr.point_u.cell == ("polygon", "P0")
        assert tr.point_w.cell == ("polygon", "P5")
        # reverify the wall family from scratch
        for k in tr.wall_family:
            w = dc.walls[k]
            su = next(i for i, s in enumerate(w.sides) if tr.point_u.carrier <= s)
            sw = next(i for i, s in enumerate(w.sides) if tr.point_w.carrier <= s)
            assert su != sw
        for a, b in itertools.combinations(tr.wall_family, 2):
            assert not share_polygon(dc.walls[a], dc.walls[b])
        # a fresh dual, so the reverse pair shares no cached chain
        back = separation_transfer(
            x, dual_cube_complex(x), dc.principal["t6"], dc.principal["t0"]
        )
        assert back.wall_family == tr.wall_family

    def test_reverse_pair_on_one_dual_gets_its_own_chain(self):
        # one memo serves both directions, and each must keep its own order
        x = square_chain_complex(6)
        dc = dual_cube_complex(x)
        u, w = dc.graph.ids[0], dc.graph.ids[-1]
        there = separation_transfer(x, dc, u, w)
        back = separation_transfer(x, dc, w, u)
        fresh = separation_transfer(x, dual_cube_complex(x), w, u)
        assert there.dual_family == (1, 2, 3, 4, 5, 6)
        assert back.dual_family == fresh.dual_family == (6, 5, 4, 3, 2, 1)

    def test_cell_test_is_not_implied_by_the_side_test(self):
        # a wall through the square P leaves P's whole boundary on one side,
        # vertex 5 on the other; only the cell test keeps it out of the family
        x = twice_through_hexagon_complex()
        dc = dual_cube_complex(x)
        k = dc.wall_of_edge["e01"]
        wall = dc.walls[k]
        assert wall.polygons == ("P", "Q", "R")
        assert set(x.boundary["P"]) <= wall.sides[0] and "5" in wall.sides[1]
        points = {v: dual_projection(x, dc, v).cell for v in dc.graph.ids}
        u = next(v for v, cell in points.items() if cell == ("polygon", "P"))
        w = next(v for v, cell in points.items() if cell == ("vertex", "5"))
        tr = separation_transfer(x, dc, u, w)
        assert tr.wall_family == () and tr.dual_disjoint == 1 and tr.holds

    def test_kept_chains_give_the_reports_of_a_fresh_dual(self):
        # every ordered pair on one dual, against a dual with nothing kept
        # from another pair: the same parts under a new object, so its
        # points and chains are all made afresh
        cases = {
            "hex-chain-4": hex_chain_complex(4),
            "12-gon": ngon_complex(12),
            "square-chain-6": square_chain_complex(6),
            "twice-through-hexagon": twice_through_hexagon_complex(),
            "twice-through-hexagon-tail": twice_through_hexagon_complex(tail=True),
        }
        for name, x in cases.items():
            dc = dual_cube_complex(x)
            rep = classify_maximal_cubes(dc)
            for u, w in itertools.permutations(dc.graph.ids, 2):
                fresh = DualCubeComplex(
                    x, dc.walls, dc.vertex_index, dc.system, dc.graph,
                    dc.orientations, dc.principal, dc.hyperplane_walls,
                )
                assert separation_transfer(x, dc, u, w, rep) == separation_transfer(
                    x, fresh, u, w, rep
                ), (name, u, w)
            # and a dual built anew, classifying its own cubes
            u, w = dc.graph.ids[-1], dc.graph.ids[0]
            assert separation_transfer(x, dual_cube_complex(x), u, w) == (
                separation_transfer(x, dc, u, w, rep)
            ), name

    def test_another_complex_is_refused(self):
        # the dual owns what is derived from it; an equal complex under
        # another object is not the dual's own
        x = square_chain_complex(6)
        dc = dual_cube_complex(x)
        u, w = dc.principal["t0"], dc.principal["t6"]
        other = square_chain_complex(6)
        for rep in (None, classify_maximal_cubes(dc)):
            with pytest.raises(ValidationError, match="not the one the dual"):
                separation_transfer(other, dc, u, w, rep)
            with pytest.raises(ValidationError, match="not the one the dual"):
                dual_projection(other, dc, u, rep)
        tr = separation_transfer(x, dc, u, w)
        assert (tr.dual_disjoint, tr.wall_disjoint) == (6, 4)

    def test_chain_eight(self):
        x = square_chain_complex(8)
        dc = dual_cube_complex(x)
        tr = separation_transfer(x, dc, dc.principal["t0"], dc.principal["t8"])
        assert tr.dual_disjoint == 8
        assert tr.wall_disjoint == 6
        assert tr.holds

    def test_same_vertex(self):
        x = ngon_complex(6)
        dc = dual_cube_complex(x)
        v = dc.graph.ids[0]
        tr = separation_transfer(x, dc, v, v)
        assert tr.dual_disjoint == 0 and tr.wall_disjoint == 0
        assert tr.holds

    def test_adjacent_principals(self):
        x = square_chain_complex(6)
        dc = dual_cube_complex(x)
        tr = separation_transfer(x, dc, dc.principal["t0"], dc.principal["t1"])
        assert tr.dual_disjoint == 1
        assert tr.holds

    def test_families_match_bruteforce(self):
        cases = {**sc_fixtures(), "square-chain-5": square_chain_complex(5)}
        for name, x in cases.items():
            dc = dual_cube_complex(x)
            g = dc.graph
            rep = classify_maximal_cubes(dc)
            for u, w in itertools.permutations(g.ids, 2):
                tr = separation_transfer(x, dc, u, w, rep)
                seps = list(g.separating(u, w))
                assert tr.dual_disjoint == best_family_brute(
                    seps, lambda i, j: not g.transverse[i, j]
                ), (name, u, w)
                cand = []
                for wall in dc.walls:
                    if tr.point_u.carrier <= wall.sides[0]:
                        su = 0
                    elif tr.point_u.carrier <= wall.sides[1]:
                        su = 1
                    else:
                        continue
                    cell_u, cell_w = tr.point_u.cell, tr.point_w.cell
                    if cell_u[0] == "polygon" and cell_u[1] in wall.polygons:
                        continue
                    if cell_w[0] == "polygon" and cell_w[1] in wall.polygons:
                        continue
                    if cell_u[0] == "edge" and cell_u[1] in wall.edges:
                        continue
                    if cell_w[0] == "edge" and cell_w[1] in wall.edges:
                        continue
                    if tr.point_w.carrier <= wall.sides[1 - su]:
                        cand.append(wall.index)
                assert tr.wall_disjoint == best_family_brute(
                    cand,
                    lambda i, j: not share_polygon(dc.walls[i], dc.walls[j]),
                ), (name, u, w)
                fam = tr.wall_family
                assert len(fam) == tr.wall_disjoint
                assert list(fam) == sorted(set(fam)), (name, u, w)
                # each one misses both cells and splits the carriers
                assert set(fam) <= set(cand), (name, u, w)
                for a, b in itertools.combinations(fam, 2):
                    assert not share_polygon(dc.walls[a], dc.walls[b]), (name, u, w)

    def test_dual_family_is_a_separating_disjoint_chain(self):
        x = hex_chain_complex(3)
        dc = dual_cube_complex(x)
        g = dc.graph
        rep = classify_maximal_cubes(dc)
        for u, w in itertools.combinations(g.ids, 2):
            tr = separation_transfer(x, dc, u, w, rep)
            fam = tr.dual_family
            assert len(fam) == tr.dual_disjoint
            iu, iw = g.index[u], g.index[w]
            assert all(g.sides[j, iu] != g.sides[j, iw] for j in fam), (u, w)
            for a, b in itertools.combinations(fam, 2):
                assert not g.transverse[a, b], (u, w)

    def test_dual_disjoint_is_the_linf_distance(self):
        # the longest chain of disjoint separating hyperplanes is the
        # distance in the cube cone-off, found there by BFS
        for name, x in sc_fixtures().items():
            dc = dual_cube_complex(x)
            for u, w in itertools.combinations(dc.graph.ids, 2):
                tr = separation_transfer(x, dc, u, w)
                assert tr.dual_disjoint == dc.graph.distance(u, w, "linf"), (name, u, w)

    def test_each_vertex_projected_and_cubes_classified_once(self, monkeypatch):
        projected, classified = [], []
        real_project = polygonal.dual_projection
        real_maximal = median.MedianGraph.maximal_cubes

        def project(x, dc, v, report=None):
            projected.append(v)
            return real_project(x, dc, v, report)

        def maximal_cubes(self):
            # a classification reads the maximal cubes once when it is made
            classified.append(self)
            return real_maximal(self)

        monkeypatch.setattr(polygonal, "dual_projection", project)
        monkeypatch.setattr(median.MedianGraph, "maximal_cubes", maximal_cubes)
        x = hex_chain_complex(3)
        dc = dual_cube_complex(x)
        pairs = list(itertools.permutations(dc.graph.ids, 2))
        bare = [separation_transfer(x, dc, u, w) for u, w in pairs]
        assert classified == [dc.graph]
        assert sorted(projected) == sorted(dc.graph.ids)
        # the dual's own report is the one kept, so nothing is made again
        projected.clear()
        rep = classify_maximal_cubes(dc)
        given = [separation_transfer(x, dc, u, w, rep) for u, w in pairs]
        assert projected == []
        assert given == bare
        # bare and given projections share the dual's one classification too
        for v in dc.graph.ids:
            assert real_project(x, dc, v) == real_project(x, dc, v, rep)
        assert classified == [dc.graph]

    def test_another_report_is_refused(self):
        x = hex_chain_complex(3)
        dc = dual_cube_complex(x)
        u, w = dc.graph.ids[:2]
        separation_transfer(x, dc, u, w, classify_maximal_cubes(dc))
        stale = ClassificationReport(True, (), ())
        with pytest.raises(ValidationError, match="not the dual's classification"):
            separation_transfer(x, dc, u, w, stale)
        with pytest.raises(ValidationError, match="not the dual's classification"):
            dual_projection(x, dc, u, stale)
        # an equal report made on another dual of the same complex is accepted
        rep = classify_maximal_cubes(dual_cube_complex(x))
        assert separation_transfer(x, dc, u, w, rep) == separation_transfer(x, dc, u, w)

    def test_all_pairs_sweep_leaves_no_entry_per_pair(self):
        # the wall systems keep rows per wall, halfspace or vertex only: after
        # 1 225 transfers no attribute has grown with the pairs or masks asked
        x = hex_chain_complex(8)
        dc = dual_cube_complex(x)
        rep = classify_maximal_cubes(dc)
        pairs = list(itertools.combinations(dc.graph.ids, 2))
        assert len(pairs) == 1225
        for u, w in pairs:
            separation_transfer(x, dc, u, w, rep)
        for ws in (dc.system, dc.graph.wall_system):
            for name, value in vars(ws).items():
                for part in value if isinstance(value, tuple) else (value,):
                    if isinstance(part, (dict, set, list)):
                        assert len(part) <= max(2 * ws.h, ws.nv), name

    def test_holds_on_sampled_pairs(self):
        for name, x in sc_fixtures().items():
            dc = dual_cube_complex(x)
            rep = classify_maximal_cubes(dc)
            ids = sorted(dc.graph.ids)
            picks = ids[:3] + ids[-3:]
            for u, w in itertools.combinations(picks, 2):
                tr = separation_transfer(x, dc, u, w, rep)
                assert tr.holds, (name, u, w)


class TestInvariants:
    def test_wall_partition(self):
        for x in sc_fixtures().values():
            seen = [e for w in walls(x) for e in w.edges]
            assert sorted(seen) == sorted(x.edges)

    def test_disjoint_polygons_separated(self):
        for x in (square_chain_complex(6), hex_chain_complex(4)):
            ws = walls(x)
            for p, q in itertools.combinations(sorted(x.polygons), 2):
                if set(x.boundary[p]) & set(x.boundary[q]):
                    continue
                vp, vq = set(x.boundary[p]), set(x.boundary[q])
                assert any(
                    w.two_sided
                    and p not in w.polygons
                    and q not in w.polygons
                    and (
                        (vp <= w.sides[0] and vq <= w.sides[1])
                        or (vp <= w.sides[1] and vq <= w.sides[0])
                    )
                    for w in ws
                ), (p, q)

    def test_pairwise_intersecting_polygons_meet(self):
        for x in (
            three_square_fan_complex(),
            square_chain_complex(5),
            hex_chain_complex(3),
            two_hexagons_complex(),
            covered_square_complex(),
        ):
            pids = sorted(x.polygons)
            for size in range(2, min(5, len(pids)) + 1):
                for combo in itertools.combinations(pids, size):
                    if all(
                        set(x.boundary[a]) & set(x.boundary[b])
                        for a, b in itertools.combinations(combo, 2)
                    ):
                        common = set(x.boundary[combo[0]])
                        for pid in combo[1:]:
                            common &= set(x.boundary[pid])
                        assert common, combo

    def test_crossing_table_is_shared_polygons_and_rest_nest(self):
        for name, x in sc_fixtures().items():
            dc = dual_cube_complex(x)
            trans = dc.system.transverse
            assert not trans.diagonal().any(), name
            for a, b in itertools.permutations(dc.walls, 2):
                crossing = share_polygon(a, b)
                assert trans[a.index, b.index] == crossing, (name, a.index, b.index)
                if not crossing:
                    # the premise of the chain DP: one quadrant is empty
                    assert any(
                        not sa & sb for sa in a.sides for sb in b.sides
                    ), (name, a.index, b.index)

    def test_dual_matches_orientation_enumeration(self):
        for name, x in sc_fixtures().items():
            if len(walls(x)) > 12:
                continue
            g = dual_cube_complex(x).graph
            names, edges = dual_orientations_brute(x)
            assert set(g.ids) == names, name
            assert {tuple(sorted((g.ids[a], g.ids[b]))) for a, b in g.edges} == edges, name

    def test_duals_are_median(self):
        for x in sc_fixtures().values():
            assert dual_cube_complex(x).graph.is_median().ok

    def test_no_four_four_grid(self):
        from cubekit.diagnostics import max_grid

        for name, x in sc_fixtures().items():
            rep = polygonal_sc_check(x, QUARTER)
            assert rep.passed, name
            grids = max_grid(dual_cube_complex(x).graph)
            assert grids.thinness <= 3, name

    def test_grid_rule_matches_the_chain_search(self):
        from cubekit.diagnostics import grid_search, verify_grid, walls_in_grids

        for name, x in dual_fixtures().items():
            ws = dual_cube_complex(x).system
            rep = grid_search(ws)
            for grid in rep.witnesses:
                verify_grid(ws, grid)
            walls = {n: walls_in_grids(ws, n) for n in (1, 2, 3, 4, 5)}
            assert (set(rep.pareto), walls) == grid_answers_by_chains(ws), name

    def test_deterministic_rebuild(self):
        a = dual_cube_complex(two_hexagons_complex())
        b = dual_cube_complex(two_hexagons_complex())
        assert a.graph.ids == b.graph.ids
        assert a.graph.edges == b.graph.edges
        assert a.hyperplane_walls == b.hyperplane_walls
        assert [t for t in classify_maximal_cubes(a).tags] == [
            t for t in classify_maximal_cubes(b).tags
        ]


def test_link_check_leaves_no_cycles():
    # the link condition's short-cycle search is recursive
    assert cyclic_garbage(lambda: polygonal_sc_check(hex_chain_complex(3), Fraction(1, 6))) == 0
