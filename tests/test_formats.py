"""Text formats: graphs, subsets, polygonal complexes, presentations."""

from __future__ import annotations

import pytest

from cubekit.errors import FormatError
from cubekit.formats import (
    evaluate_relator,
    parse_graph,
    parse_polygons,
    parse_presentation_file,
    parse_relator_expression,
    parse_subsets,
    serialize_graph,
)
from cubekit.median import MedianGraph
from fixtures import cyclic_garbage

GRAPH_TEXT = """
# a unit square
vertex a
vertex b
vertex c
vertex d
edge a b
edge b c
edge c d
edge d a
"""


def test_graph_round_trip():
    vs, es = parse_graph(GRAPH_TEXT)
    assert vs == ["a", "b", "c", "d"]
    assert len(es) == 4
    text = serialize_graph(vs, es)
    vs2, es2 = parse_graph(text)
    assert vs2 == vs and es2 == es
    assert MedianGraph(vs, es).is_median().ok


def test_graph_error_carries_line_number():
    bad = "vertex a\nvertex b\nedge a z\n"
    with pytest.raises(FormatError) as err:
        parse_graph(bad)
    assert "line 3" in str(err.value)
    assert "'z'" in str(err.value)


def test_graph_rejects_double_declaration():
    with pytest.raises(FormatError) as err:
        parse_graph("vertex a\nvertex a\n")
    assert "line 2" in str(err.value)


def test_graph_rejects_unknown_directive():
    with pytest.raises(FormatError) as err:
        parse_graph("vertex a\nnode b\n")
    assert "line 2" in str(err.value)


def test_graph_edge_may_precede_vertex():
    vs, es = parse_graph("edge a b\nvertex a\nvertex b\n")
    assert es == [("a", "b")]


def test_subsets():
    subs = parse_subsets("sub left : a b\nsub right : c d e\n")
    assert subs == {"left": ["a", "b"], "right": ["c", "d", "e"]}
    with pytest.raises(FormatError):
        parse_subsets("sub left a b\n")


def test_polygon_file():
    raw = parse_polygons(
        """
vertex p
vertex q
vertex r
vertex s
edge e1 p q
edge e2 q r
edge e3 r s
edge e4 s p
polygon P : +e1 +e2 +e3 +e4
"""
    )
    assert raw.vertices == ["p", "q", "r", "s"]
    assert raw.polygons["P"] == [("e1", 1), ("e2", 1), ("e3", 1), ("e4", 1)]


def test_polygon_unknown_edge_has_line_number():
    with pytest.raises(FormatError) as err:
        parse_polygons("vertex p\nvertex q\nedge e1 p q\npolygon P : +e1 -e9\n")
    assert "line 4" in str(err.value)


def test_presentation_free_group():
    pres = parse_presentation_file(
        """
generators a b
param k = 4..6
relator (a^n b^n)^k  # not valid: n is undeclared
""".replace(
            "a^n b^n", "a^k b^k"
        )
    )
    assert pres.kind == "free"
    assert pres.generators == ("a", "b")
    assert pres.param == "k"
    assert pres.param_values == (4, 5, 6)
    expr = parse_relator_expression(pres.relator_texts[0], pres.param)
    word = evaluate_relator(expr, 2)
    assert word == [("a", 1)] * 2 + [("b", 1)] * 2 + [("a", 1)] * 2 + [("b", 1)] * 2


def test_relator_evaluation_leaves_no_cycles():
    expr = parse_relator_expression("(a b^-1)^n [a, (b a)^2]", "n")
    assert cyclic_garbage(lambda: evaluate_relator(expr, 3)) == 0


def test_presentation_rejects_undeclared_parameter():
    with pytest.raises(FormatError):
        parse_relator_expression("a^n b", None)


def test_relator_expressions():
    expr = parse_relator_expression("a^2 b^-1", None)
    assert evaluate_relator(expr, None) == [("a", 1), ("a", 1), ("b", -1)]
    expr = parse_relator_expression("[a, b]", None)
    assert evaluate_relator(expr, None) == [("a", 1), ("b", 1), ("a", -1), ("b", -1)]
    expr = parse_relator_expression("(a b)^-2", None)
    assert evaluate_relator(expr, None) == [("b", -1), ("a", -1)] * 2
    expr = parse_relator_expression("a^(2n-1)", "n")
    assert evaluate_relator(expr, 3) == [("a", 1)] * 5
    expr = parse_relator_expression("a^(n+1) b^-n", "n")
    assert evaluate_relator(expr, 2) == [("a", 1)] * 3 + [("b", -1)] * 2


def test_relator_zero_power_blocks_drop():
    expr = parse_relator_expression("a^n b", "n")
    assert evaluate_relator(expr, 0) == [("b", 1)]


def test_relator_parse_errors():
    for bad in ["a^", "(a", "[a b]", "a )", "", "a^x"]:
        with pytest.raises(FormatError):
            parse_relator_expression(bad, "n")


def test_presentation_free_product():
    pres = parse_presentation_file(
        """
factor A cyclic 0 a
factor B free-abelian 2 x y
param n = 2,5
relator a^n x y^-1
"""
    )
    assert pres.kind == "free-product"
    assert [f.kind for f in pres.factors] == ["cyclic", "free-abelian"]
    assert pres.factors[1].generators == ("x", "y")
    assert pres.param_values == (2, 5)


def test_presentation_rejects_generator_in_two_factors():
    with pytest.raises(FormatError):
        parse_presentation_file(
            "factor A cyclic 0 a\nfactor B cyclic 0 a\nrelator a\n"
        )


def test_presentation_rejects_mixing_modes():
    with pytest.raises(FormatError):
        parse_presentation_file("generators a\nfactor B cyclic 0 b\nrelator a\n")


def test_presentation_requires_relators():
    with pytest.raises(FormatError):
        parse_presentation_file("generators a b\n")
