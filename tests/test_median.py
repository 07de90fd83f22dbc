"""Median recognition, hyperplanes, cubes, distances, convexity, gates."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

import bruteforce as bf
from fixtures import (
    c6_with_chord,
    corner_squares_complex,
    cycle_graph,
    grid_graph,
    hex_chain_complex,
    hypercube,
    k23,
    lshape,
    named_fixtures,
    ngon_complex,
    path_graph,
    product_graph,
    random_tree,
    square_chain_complex,
    staircase,
    tree_y,
    two_hexagons_complex,
)
from cubekit import diagnostics, median
from cubekit.errors import ConsistencyError, GraphInputError, NotMedianError, SizeCapError
from cubekit.median import L1, LINF, MedianGraph, MedianVerdict, ram_bound
from cubekit.polygonal import dual_cube_complex
from cubekit.racg import DefiningGraph, ball_walls

FIX = named_fixtures()


# -- construction guards ------------------------------------------------------


def test_rejects_empty_vertex_set():
    with pytest.raises(GraphInputError):
        MedianGraph([], [])


def test_rejects_loop_edge():
    with pytest.raises(GraphInputError):
        MedianGraph(["a", "b"], [("a", "a")])


def test_rejects_duplicate_edge():
    with pytest.raises(GraphInputError):
        MedianGraph(["a", "b"], [("a", "b"), ("b", "a")])


def test_rejects_unknown_endpoint():
    with pytest.raises(GraphInputError):
        MedianGraph(["a", "b"], [("a", "c")])


def test_rejects_disconnected_for_analysis():
    g = MedianGraph(["a", "b", "c"], [("a", "b")])
    with pytest.raises(GraphInputError):
        g.is_median()


# -- median recognition -------------------------------------------------------


def test_four_cycle_is_median():
    assert grid_graph(1, 1).is_median().ok


def test_single_vertex_is_median():
    assert MedianGraph(["v"], []).is_median().ok


def test_k23_witness_is_valid():
    g = k23()
    verdict = g.is_median()
    assert not verdict.ok
    x, y, z = verdict.witness
    meds = bf.median_candidates(g, x, y, z)
    assert len(meds) != 1
    assert set(verdict.medians) == meds
    with pytest.raises(NotMedianError):
        g.require_median()


def test_k23_degree_two_triple_has_two_medians():
    g = k23()
    assert bf.median_candidates(g, "1", "2", "3") == {"a", "b"}


def test_c6_with_chord_witness_is_valid():
    g = c6_with_chord()
    verdict = g.is_median()
    assert not verdict.ok
    x, y, z = verdict.witness
    assert len(bf.median_candidates(g, x, y, z)) != 1


def test_triangle_triple_has_no_median():
    g = c6_with_chord()
    assert bf.median_candidates(g, "0", "1", "2") == set()


@pytest.mark.parametrize("name", sorted(FIX))
def test_registry_fixtures_are_median(name):
    assert FIX[name].is_median().ok


@pytest.mark.parametrize("name", ["square", "tripod", "grid_3x2", "cube3"])
def test_recognition_matches_bruteforce(name):
    ok, _ = bf.is_median_brute(FIX[name])
    assert ok == FIX[name].is_median().ok


def test_bruteforce_agrees_on_non_median():
    ok, witness = bf.is_median_brute(k23())
    assert not ok and witness is not None


def _cube_minus_vertex() -> MedianGraph:
    q = hypercube(3)
    return MedianGraph(
        [v for v in q.ids if v != "111"],
        [(q.ids[a], q.ids[b]) for a, b in q.edges if "111" not in (q.ids[a], q.ids[b])],
    )


def _witness_shape(g: MedianGraph, rule: str) -> bool:
    """Whether the rejection witness has the shape its local rule produces."""
    verdict = g.is_median()
    x, y, z = g.indices_of(verdict.witness)
    d = g.dist
    if rule == "bipartite":
        # a root and an edge level with it
        return d[y, z] == 1 and d[x, y] == d[x, z] and not verdict.medians
    if rule == "quadrangle":
        # a root and a pair at distance 2 level with it
        return d[y, z] == 2 and d[x, y] == d[x, z] and not verdict.medians
    # K_{2,3}: three common neighbours of the two medians
    meds = g.indices_of(verdict.medians)
    return len(meds) >= 2 and all(d[m, t] == 1 for m in meds for t in (x, y, z))


@pytest.mark.parametrize(
    "build,rule",
    [
        (lambda: cycle_graph(6), "quadrangle"),
        (_cube_minus_vertex, "quadrangle"),
        (c6_with_chord, "bipartite"),
        (k23, "k23"),
    ],
    ids=["c6", "cube3_minus_vertex", "c6_with_chord", "k23"],
)
def test_each_local_rule_has_a_checked_witness(build, rule):
    g = build()
    verdict = g.is_median()
    assert not verdict.ok
    assert not bf.is_median_brute(g)[0]
    meds = bf.median_candidates(g, *verdict.witness)
    assert len(meds) != 1
    assert set(verdict.medians) == meds
    assert _witness_shape(g, rule)


def _perturbed_products(count: int, seed: int) -> list[tuple[str, MedianGraph]]:
    """Products of trees, paths, grids and cubes (n <= 28), each left intact,
    with one edge deleted, or with a chord closing an odd or an even cycle;
    disconnected results are dropped."""
    rng = random.Random(seed)
    factors = [
        lambda: random_tree(rng.randint(2, 6), rng),
        lambda: path_graph(rng.randint(1, 4)),
        lambda: grid_graph(rng.randint(1, 3), rng.randint(1, 2)),
        lambda: hypercube(rng.randint(1, 3)),
    ]
    kinds = ["intact", "delete", "odd_chord", "even_chord"]
    out = []
    while len(out) < count:
        p = product_graph(rng.choice(factors)(), rng.choice(factors)())
        if p.n > 28:
            continue
        kind = kinds[len(out) % len(kinds)]
        edges = [(p.ids[a], p.ids[b]) for a, b in p.edges]
        if kind == "delete":
            edges.pop(rng.randrange(len(edges)))
        elif kind != "intact":
            parity = 0 if kind == "odd_chord" else 1
            far = [
                (p.ids[a], p.ids[b])
                for a, b in itertools.combinations(range(p.n), 2)
                if p.dist[a, b] >= 2 and p.dist[a, b] % 2 == parity
            ]
            if not far:
                continue
            edges.append(rng.choice(far))
        g = MedianGraph(p.ids, edges)
        if g.is_connected:
            out.append((kind, g))
    return out


def test_local_recognition_matches_triple_oracle():
    cases = _perturbed_products(150, 2026)
    rejected = 0
    rules = set()
    for kind, g in cases:
        verdict = g.is_median()
        assert verdict.ok == bf.is_median_brute(g)[0], (kind, g.ids, g.edges)
        if not verdict.ok:
            rejected += 1
            meds = bf.median_candidates(g, *verdict.witness)
            assert len(meds) != 1, (kind, verdict)
            assert set(verdict.medians) == meds, (kind, verdict)
            shapes = [r for r in ("bipartite", "quadrangle", "k23") if _witness_shape(g, r)]
            assert shapes, (kind, verdict)
            rules.update(shapes)
    # both verdicts are well represented and every rule rejects something
    assert 40 <= rejected <= len(cases) - 40
    assert rules == {"bipartite", "quadrangle", "k23"}


def _oracle_graphs(count: int, seed: int) -> list[MedianGraph]:
    """Connected graphs with at most 40 vertices: random ones (a random
    spanning tree plus random extra edges) alternating with products of one
    to three random trees, each with one edge removed or one chord added;
    vertices listed in random order."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2:
            n = rng.randint(1, 40)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            for _ in range(rng.randint(0, n)):
                a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
                if a != b:
                    edges.add((a, b))
            ids = [str(v) for v in range(n)]
            edges = [(ids[a], ids[b]) for a, b in edges]
        else:
            p = random_tree(rng.randint(2, 8), rng)
            for _ in range(rng.randint(0, 2)):
                p = product_graph(p, random_tree(rng.randint(2, 4), rng))
            if p.n > 40:
                continue
            ids = p.ids
            edges = [(ids[a], ids[b]) for a, b in p.edges]
            if rng.random() < 0.5:
                edges.pop(rng.randrange(len(edges)))
            else:
                far = [(a, b) for a, b in itertools.combinations(range(p.n), 2) if p.dist[a, b] >= 2]
                if not far:
                    continue
                a, b = rng.choice(far)
                edges.append((ids[a], ids[b]))
        g = MedianGraph(rng.sample(ids, len(ids)), edges)
        if g.is_connected:
            out.append(g)
    return out


def test_square_count_matches_the_pair_scan():
    # the same first triple as the per-root pair scan; every local rule
    # rejects at least 100 of the graphs and at least 100 are median
    rules = {"accept": 0, "bipartite": 0, "quadrangle": 0, "k23": 0}
    for g in _oracle_graphs(2000, 2033):
        triple = g._median_failure()
        assert triple == bf.median_failure_pairs_brute(g), (g.ids, g.edges)
        if triple is None:
            rules["accept"] += 1
        else:
            shapes = [r for r in ("bipartite", "quadrangle", "k23") if _witness_shape(g, r)]
            rules[shapes[0]] += 1
    assert min(rules.values()) >= 100, rules


@pytest.mark.parametrize("name", sorted(FIX))
def test_down_pairs_number_the_squares_at_every_root(name):
    # sum_x C(k_ux, 2) = #4-cycles at every root u of a median graph, with
    # k_ux the neighbours of x nearer u and the 4-cycles counted by diagonals
    g = FIX[name]
    d = g.dist
    common = [len(g.adj[v] & g.adj[w]) for v, w in itertools.combinations(range(g.n), 2)]
    squares = sum(c * (c - 1) // 2 for c in common) // 2
    for u in range(g.n):
        ks = [sum(d[u, y] < d[u, x] for y in g.adj[x]) for x in range(g.n)]
        assert sum(k * (k - 1) // 2 for k in ks) == squares, (name, u)


def test_recognition_peak_memory_on_a_grid():
    # 17 x 17 vertices, distance table (0.3 MiB) built: the counted
    # quadrangle test keeps its scratch within a few such tables
    g = grid_graph(16, 16)
    g.dist
    tracemalloc.start()
    try:
        assert g.is_median().ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, peak


def test_size_cap_refuses_recognition(monkeypatch):
    monkeypatch.setattr(median, "IS_MEDIAN_CAP", 3)
    with pytest.raises(SizeCapError):
        grid_graph(1, 1).is_median()
    assert MedianGraph(["a", "b"], [("a", "b")]).is_median().ok
    # above the cap a disconnected graph is still refused as disconnected
    with pytest.raises(GraphInputError, match="disconnected"):
        MedianGraph(list("abcd"), [("a", "b"), ("c", "d")]).is_median()


def test_recognition_reads_connectivity_off_the_distance_pass(monkeypatch):
    # below the cap no separate search runs: the distance pass sets the flag
    # before anything reads it, and refuses a disconnected graph itself
    reads = []
    real = MedianGraph.is_connected

    def spy(self):
        reads.append("connected" in self._cache)
        return real.fget(self)

    monkeypatch.setattr(MedianGraph, "is_connected", property(spy))
    assert grid_graph(3, 3).is_median().ok
    assert not k23().is_median().ok
    with pytest.raises(GraphInputError, match="disconnected"):
        MedianGraph(list("abc"), [("a", "b")]).is_median()
    assert reads and all(reads)


# -- the distance table read off the hyperplanes ----------------------------------


def _fresh(g: MedianGraph) -> MedianGraph:
    """An uncached copy of a graph."""
    return MedianGraph(g.ids, [(g.ids[a], g.ids[b]) for a, b in g.edges])


def _oracle_table(g: MedianGraph) -> np.ndarray:
    d = bf.all_pairs(bf.adj_dict(g))
    return np.array([[d[a][b] for b in g.ids] for a in g.ids])


def _certificate_parts(g: MedianGraph) -> tuple[bool, bool]:
    """Checks (a) and (b) of the distance certificate, evaluated from the
    oracle's edge classes with codes along a BFS tree from vertex 0: (a)
    every edge flips exactly its own class; (b) at each vertex x the
    halfspaces on x's side of the classes of x's edges meet only in x."""
    cls = bf.hyperplane_classes_brute(g)[0]
    cls_of = {e: c for e, c in zip(g.edges, cls)}
    code, order = {0: frozenset()}, [0]
    for v in order:
        for w in sorted(g.adj[v]):
            if w not in code:
                code[w] = code[v] ^ {cls_of[(min(v, w), max(v, w))]}
                order.append(w)
    a_ok = all(code[u] ^ code[v] == {cls_of[(u, v)]} for u, v in g.edges)
    b_ok = True
    for x in range(g.n):
        at = {cls_of[(min(x, y), max(x, y))] for y in g.adj[x]}
        meet = [u for u in range(g.n) if all((c in code[u]) == (c in code[x]) for c in at)]
        b_ok &= meet == [x]
    return a_ok, b_ok


def _spy_bfs(monkeypatch) -> list[int]:
    """Record the vertex count of every ``median._bfs_table`` call."""
    calls, real = [], median._bfs_table

    def spy(n, arcs):
        calls.append(n)
        return real(n, arcs)

    monkeypatch.setattr(median, "_bfs_table", spy)
    return calls


def _certified_graphs() -> list[tuple[str, MedianGraph]]:
    rng = random.Random(2051)
    factors = [
        lambda: random_tree(rng.randint(2, 9), rng),
        lambda: path_graph(rng.randint(1, 5)),
        lambda: hypercube(rng.randint(1, 3)),
    ]
    out = []
    while len(out) < 30:
        p = rng.choice(factors)()
        for _ in range(rng.randint(1, 2)):
            p = product_graph(p, rng.choice(factors)())
        if p.n <= 150:
            out.append((f"product{len(out)}", p))
    out += sorted(FIX.items())
    for name, make in [
        ("hex_chain_3", lambda: hex_chain_complex(3)),
        ("square_chain_4", lambda: square_chain_complex(4)),
        ("two_hexagons", two_hexagons_complex),
        ("corner_squares", corner_squares_complex),
        ("ngon_8", lambda: ngon_complex(8)),
    ]:
        out.append((f"dual_{name}", dual_cube_complex(make()).graph))
    return out


def test_hyperplane_table_matches_bfs_and_the_class_oracle(monkeypatch):
    # products of trees, paths and cubes, the median fixtures and polygonal
    # duals: the table, classes and sides come from the certified pass, and
    # equal the BFS table and the edge-by-edge oracle
    calls = _spy_bfs(monkeypatch)
    for name, g in _certified_graphs():
        g = _fresh(g)
        assert (g.dist == _oracle_table(g)).all(), name
        assert _certificate_parts(g) == (True, True), name
        assert g.is_median().ok, name
        edge_class, sides = bf.hyperplane_classes_brute(g)
        data = g._hyperplane_data()
        assert data["edge_class"].tolist() == edge_class, name
        assert data["sides"].dtype == bool and (data["sides"] == sides).all(), name
        assert data["class_edges"] == [
            [e for e, c in enumerate(edge_class) if c == j] for j in range(len(sides))
        ], name
    assert calls == []


def _cube4_subgraph() -> MedianGraph:
    """An induced subgraph of Q4 whose square classes pass check (a) of the
    certificate and fail check (b)."""
    q = hypercube(4)
    keep = {"0000", "0001", "0100", "0101", "1000", "1010", "1011", "1100", "1101", "1110", "1111"}
    return MedianGraph(
        sorted(keep),
        [(q.ids[a], q.ids[b]) for a, b in q.edges if {q.ids[a], q.ids[b]} <= keep],
    )


@pytest.mark.parametrize(
    "build,parts",
    [
        (lambda: cycle_graph(3), None),
        (lambda: cycle_graph(5), None),
        (lambda: cycle_graph(7), None),
        (k23, None),
        (lambda: cycle_graph(6), (False, True)),
        (lambda: product_graph(cycle_graph(6), path_graph(1)), (False, True)),
        (lambda: product_graph(cycle_graph(8), path_graph(1)), (False, True)),
        (_cube4_subgraph, (True, False)),
    ],
    ids=["c3", "c5", "c7", "k23", "c6", "prism6", "prism8", "cube4_subgraph"],
)
def test_certificate_refuses_and_bfs_answers(build, parts, monkeypatch):
    # odd cycles stop at the BFS tree and K_{2,3} at the squares; on C6 and
    # the even prisms an edge flips several classes (a), and on the Q4
    # subgraph (a) holds but some vertex's halfspaces meet in more than it (b)
    calls = _spy_bfs(monkeypatch)
    g = build()
    if parts is not None:
        assert _certificate_parts(g) == parts
    assert g._certified_table() is None
    assert "walls" not in g._cache
    assert (g.dist == _oracle_table(g)).all()
    assert calls == [g.n]
    assert not g.is_median().ok


def test_certified_non_median_graph_keeps_its_witness(monkeypatch):
    # Q3 minus a vertex passes the certificate, so its table is read off the
    # classes; recognition still counts the squares and names the triple
    calls = _spy_bfs(monkeypatch)
    g = _cube_minus_vertex()
    assert _certificate_parts(g) == (True, True)
    assert (g.dist == _oracle_table(g)).all()
    verdict = g.is_median()
    assert not verdict.ok and calls == []
    assert len(bf.median_candidates(g, *verdict.witness)) != 1
    with pytest.raises(NotMedianError):
        g.sides


# -- the bit-parallel BFS table -----------------------------------------------------


def _arcs(g: MedianGraph) -> np.ndarray:
    e = g._ends
    return np.r_[e, e[:, ::-1]]


def _bfs_cases() -> list[tuple[str, int, np.ndarray]]:
    """(name, n, arcs) inputs of ``_bfs_table``: a single vertex, short
    cycles, the certificate's refusals, a long path, seeded random connected
    graphs (even ones bipartite), the linf adjacency of every median fixture,
    and clique and apex cone-offs of a grid by its rows."""
    graphs = [("single", MedianGraph(["a"], [])), ("path70", path_graph(70))]
    graphs += [(f"c{k}", cycle_graph(k)) for k in range(3, 9)]
    graphs += [("k23", k23()), ("c6_chord", c6_with_chord()), ("cube4_subgraph", _cube4_subgraph())]
    rng = random.Random(2089)
    for i in range(24):
        n = rng.randint(2, 90)
        parent = [0] + [rng.randrange(v) for v in range(1, n)]
        depth = [0] * n
        for v in range(1, n):
            depth[v] = depth[parent[v]] + 1
        edges = {(parent[v], v) for v in range(1, n)}
        for _ in range(rng.randint(0, 2 * n)):
            a, b = sorted(rng.sample(range(n), 2))
            if i % 2 or (depth[a] - depth[b]) % 2:
                edges.add((a, b))
        ids = [str(v) for v in range(n)]
        graphs.append((f"random{i}", MedianGraph(ids, [(ids[a], ids[b]) for a, b in edges])))
    rows = {f"row{y}": [f"{x},{y}" for x in range(4)] for y in range(3)}
    for kind in (diagnostics.CLIQUE, diagnostics.APEX):
        graphs.append((f"coneoff_{kind}", diagnostics.cone_off(grid_graph(3, 2), rows, kind).graph))
    cases = [(name, g.n, _arcs(g)) for name, g in graphs]
    cases += [(f"linf_{name}", g.n, np.argwhere(g.linf_adjacency())) for name, g in sorted(FIX.items())]
    return cases


def _bfs_oracle(n: int, arcs: np.ndarray) -> np.ndarray:
    adj = {v: set() for v in range(n)}
    for a, b in arcs.tolist():
        adj[a].add(b)
    rows = [bf.bfs_dist(adj, u) for u in range(n)]
    return np.array([[row[v] for v in range(n)] for row in rows])


@pytest.mark.parametrize("cells", [None, 1, 150])
def test_bfs_table_matches_the_oracle(cells, monkeypatch):
    # the default blocks, one slot per gather, and a few vertices per gather
    if cells is not None:
        monkeypatch.setattr(median, "_BLOCK_CELLS", cells)
    for name, n, arcs in _bfs_cases():
        table = median._bfs_table(n, arcs)
        assert table.dtype == np.int32, name
        assert (table == _bfs_oracle(n, arcs)).all(), name


@pytest.mark.parametrize("cells", [1, 7, 64, 1 << 20])
def test_degree_blocks_cover_every_slot_within_the_cell_budget(cells, monkeypatch):
    monkeypatch.setattr(median, "_BLOCK_CELLS", cells)
    rng = random.Random(2091)
    deg = np.array([rng.choice([0, 1, 2, 2, 3, 9, 30]) for _ in range(60)])
    head = np.array([rng.randrange(60) for _ in range(deg.sum())])
    start = np.r_[0, np.cumsum(deg)]
    want = {x: head[start[x] : start[x + 1]].tolist() for x in range(60) if deg[x]}
    for width in (1, 5, 40):
        seen = {}
        for delta, xs, parts in median._degree_blocks(deg, head, width):
            assert (deg[xs] == delta).all()
            for part in parts:
                assert part.shape[0] == len(xs)
                assert part.size * width <= cells or part.size == 1, (width, part.shape)
            for x, row in zip(xs.tolist(), np.hstack(parts).tolist()):
                assert x not in seen
                seen[x] = row
        assert seen == want, width


def _star(k: int) -> MedianGraph:
    return MedianGraph([str(i) for i in range(k + 1)], [("0", str(i)) for i in range(1, k + 1)])


@pytest.mark.parametrize("cells", [1, 40])
def test_square_count_splits_the_slots_of_high_degree_vertices(cells, monkeypatch):
    # K_{1,k} x P_2 and K_{1,k} x P_3, intact, less any one edge and with
    # a few chords, counted with the centres' neighbour rows gathered a few
    # slots at a time: the same triples as the per-root pair scan
    monkeypatch.setattr(median, "_BLOCK_CELLS", cells)
    rng = random.Random(2093)
    rules = set()
    for k, length in [(7, 1), (6, 2)]:
        p = product_graph(_star(k), path_graph(length))
        edges = [(p.ids[a], p.ids[b]) for a, b in p.edges]
        variants = [edges] + [edges[:i] + edges[i + 1 :] for i in range(len(edges))]
        far = [(p.ids[a], p.ids[b]) for a, b in itertools.combinations(range(p.n), 2) if p.dist[a, b] >= 2]
        variants += [edges + [chord] for chord in rng.sample(far, 6)]
        for es in variants:
            g = MedianGraph(p.ids, es)
            if not g.is_connected:
                continue
            triple = g._median_failure()
            assert triple == bf.median_failure_pairs_brute(g), (k, length, es)
            verdict = g.is_median()
            if triple is not None:
                assert len(bf.median_candidates(g, *verdict.witness)) != 1
                rules.update(r for r in ("bipartite", "quadrangle", "k23") if _witness_shape(g, r))
    assert "quadrangle" in rules


def test_distance_pass_sets_connectivity_and_refuses_disconnected_input():
    g = MedianGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(GraphInputError, match="disconnected"):
        g.dist
    assert g._cache["connected"] is False
    g = grid_graph(2, 2)
    g.dist
    assert g._cache["connected"] is True


def test_cube_corner_median():
    g = hypercube(3)
    assert g.median("100", "010", "001") == "000"


def test_grid_medians_are_coordinatewise():
    g = grid_graph(2, 2)
    for xs in itertools.product(range(3), repeat=2):
        for ys in itertools.product(range(3), repeat=2):
            for zs in itertools.product(range(3), repeat=2):
                m = g.median(f"{xs[0]},{xs[1]}", f"{ys[0]},{ys[1]}", f"{zs[0]},{zs[1]}")
                want = tuple(
                    sorted([xs[i], ys[i], zs[i]])[1] for i in range(2)
                )
                assert m == f"{want[0]},{want[1]}"


def test_interval_matches_bruteforce():
    for name in ["square", "tripod", "grid_3x2", "staircase"]:
        g = FIX[name]
        adj = bf.adj_dict(g)
        d = bf.all_pairs(adj)
        for x, y in itertools.combinations(g.ids, 2):
            want = {m for m in g.ids if d[x][m] + d[m][y] == d[x][y]}
            assert g.interval(x, y) == frozenset(want)


# -- hyperplanes --------------------------------------------------------------


def test_grid_3x2_hyperplanes():
    g = FIX["grid_3x2"]
    assert g.hyperplane_count == 5
    trans = g.transverse
    pairs = {(i, j) for i in range(5) for j in range(5) if i < j and trans[i, j]}
    assert len(pairs) == 6
    # transversality is complete bipartite between the two parallel classes
    vertical = {j for j in range(5) if sum(1 for p in pairs if j in p) == 2}
    horizontal = set(range(5)) - vertical
    assert len(vertical) == 3 and len(horizontal) == 2
    assert pairs == {(min(a, b), max(a, b)) for a in vertical for b in horizontal}


def test_path_hyperplanes_all_disjoint():
    g = FIX["path7"]
    assert g.hyperplane_count == 7
    assert not g.transverse.any()
    for h in g.hyperplanes():
        assert len(h.dual_edges) == 1
        assert h.dimension == 1


def test_hyperplane_sides_partition():
    for name in ["grid_3x2", "cube3", "tripod", "staircase"]:
        g = FIX[name]
        all_ids = set(g.ids)
        for h in g.hyperplanes():
            assert h.side_a | h.side_b == all_ids
            assert not (h.side_a & h.side_b)
            for u, v in h.dual_edges:
                assert (u in h.side_a) != (v in h.side_a)


def test_distance_equals_separating_count():
    for name in ["grid_3x2", "cube4", "tripod", "staircase", "tree_rand"]:
        g = FIX[name]
        d = g.dist
        for ix, iy in itertools.combinations(range(g.n), 2):
            assert d[ix, iy] == len(g.separating(g.ids[ix], g.ids[iy]))


def test_wall_system_is_cached_over_the_hyperplane_tables():
    g = FIX["grid_3x2"]
    ws = g.wall_system
    assert g.wall_system is ws
    assert ws.sides is g.sides
    assert ws.transverse is g.transverse


def test_transverse_means_four_nonempty_quarters():
    graphs = list(FIX.values()) + [product_graph(random_tree(9, random.Random(4)), hypercube(2))]
    for g in graphs:
        s = g.sides
        for i, j in itertools.product(range(g.hyperplane_count), repeat=2):
            quarters = [(s[i] == a) & (s[j] == b) for a in (True, False) for b in (True, False)]
            assert g.transverse[i, j] == (i != j and all(q.any() for q in quarters)), (g, i, j)


def test_wall_pairs_match_pairwise_oracle():
    # same masks, same representative pairs, same first-occurrence order
    rng = random.Random(2026)
    graphs = list(FIX.values())
    while len(graphs) < len(FIX) + 40:
        p = product_graph(
            rng.choice([path_graph, hypercube])(rng.randint(1, 3)),
            random_tree(rng.randint(2, 8), rng),
        )
        for _ in range(rng.randint(0, 1)):
            p = product_graph(p, path_graph(rng.randint(1, 3)))
        graphs.append(p)
    for g in graphs:
        ws = median.WallSystem(g.sides, g.transverse)
        assert list(ws.iter_pairs()) == bf.wall_pairs_brute(g.sides), g
    # more than 64 walls take more than one packed word per vertex
    for g in (random_tree(90, rng), product_graph(path_graph(70), path_graph(1))):
        assert list(g.wall_system.iter_pairs()) == bf.wall_pairs_brute(g.sides)


def test_wall_pairs_stop_early_without_caching():
    ws = median.WallSystem(FIX["grid_6x6"].sides, FIX["grid_6x6"].transverse)
    head = list(itertools.islice(ws.iter_pairs(), 10))
    pairs = list(ws.iter_pairs())
    assert head == pairs[:10]
    assert pairs == bf.wall_pairs_brute(ws.sides)


def _chain_oracle_systems():
    """Wall systems of generated median graphs, a Coxeter ball and a
    polygonal dual (its walls and its dual's hyperplanes)."""
    rng = random.Random(14)
    graphs = [grid_graph(3, 4), hypercube(3), staircase(3)]
    graphs += [product_graph(random_tree(rng.randint(3, 6), rng), random_tree(4, rng)) for _ in range(3)]
    out = [g.wall_system for g in graphs]
    c5 = DefiningGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    out.append(ball_walls(c5, 2).system)
    dc = dual_cube_complex(hex_chain_complex(3))
    out += [dc.system, dc.graph.wall_system]
    return out


def test_chain_dp_and_order_match_oracles():
    """On sampled vertex pairs and random submasks of their separating walls,
    the longest chain is a largest pairwise disjoint family listed in
    halfspace order toward its own pair, and order_chain equals the stable
    numpy ordering, ties and all."""
    rng = random.Random(7)
    for ws in _chain_oracle_systems():
        pairs = list(itertools.permutations(range(ws.nv), 2))
        for x, y in rng.sample(pairs, min(40, len(pairs))):
            seps = [j for j in range(ws.h) if ws.sides[j, x] != ws.sides[j, y]]
            for keep in (seps, [j for j in seps if rng.random() < 0.5]):
                keep = keep[:14]
                ln, members, rep = ws.longest_chain(sum(1 << j for j in keep))
                chain = ws.order_chain(members, (x, y))
                assert ln == len(chain) and set(chain) <= set(keep)
                assert bf.pairwise_disjoint_family(ws.transverse, list(chain), ln) is not None
                assert bf.pairwise_disjoint_family(ws.transverse, keep, ln + 1) is None
                assert bf.pairwise_disjoint_family(ws.transverse, keep, ln) is not None or ln == 0
                assert chain == bf.order_chain_numpy(ws.sides, chain, (x, y))
                if ln:
                    assert members == bf.order_chain_numpy(ws.sides, members, rep)
            members = rng.sample(range(ws.h), min(ws.h, rng.randint(0, 8)))
            for rep in ((x, y), (y, x)):
                assert ws.order_chain(members, rep) == bf.order_chain_numpy(ws.sides, members, rep)


def _chain_oracle_systems_at_scale():
    """The chain oracle systems, the C4 and C5 ball walls up to r = 4 and 30
    seeded tree products."""
    rng = random.Random(16)
    out = _chain_oracle_systems()
    for spec in ("abcd", "abcde"):
        cycle = DefiningGraph(spec, list(zip(spec, spec[1:] + spec[0])))
        out += [ball_walls(cycle, r).system for r in (1, 2, 3, 4)]
    for _ in range(30):
        g = product_graph(random_tree(rng.randint(2, 7), rng), random_tree(rng.randint(2, 5), rng))
        if rng.random() < 0.3:
            g = product_graph(g, path_graph(rng.randint(1, 2)))
        out.append(g.wall_system)
    return out


def _separates(ws, pair, walls) -> bool:
    x, y = pair
    return all(ws.sides[j, x] != ws.sides[j, y] for j in walls)


def test_longest_chain_matches_the_mask_scan():
    # random masks: the mask-scan oracle's length, pairwise disjoint
    # members, and a pair that every member separates
    rng = random.Random(16)
    for ws in _chain_oracle_systems_at_scale():
        masks = [(1 << ws.h) - 1] + [rng.getrandbits(ws.h) for _ in range(20)]
        for mask in masks:
            ln, members, rep = ws.longest_chain(mask)
            assert ln == bf.longest_chain_by_masks(ws, mask)[0], (ws.h, mask)
            assert ln == len(members) and all(mask >> j & 1 for j in members)
            assert bf.pairwise_disjoint_family(ws.transverse, list(members), ln) == members
            assert rep is None if ln == 0 else _separates(ws, rep, members)


def test_chain_search_extends_by_comparability_as_by_separation_masks():
    # at every node of a capped search, the walls that may extend the chain
    # are those of the separation masks holding it, disjoint from it and
    # above its last wall; the pair handed on is separated by the chain,
    # and the crossing chain is the mask-scan oracle's length
    seen = []

    def visit(chain, rep, cross, ext):
        seen.append((chain, rep, cross, ext))
        return True

    for ws in _chain_oracle_systems_at_scale():
        pairs = list(ws.iter_pairs())
        seen.clear()
        nodes, _ = bf.chain_search(ws, visit, 400, 0)
        assert len(seen) == nodes - 1
        for chain, rep, cross, ext in seen:
            held = sum(1 << j for j in chain)
            want = 0
            for m, _ in pairs:
                if m & held == held:
                    want |= m
            for j in chain:
                want &= ws._disjoint_int[j]
            assert ext == want & -(2 << chain[-1]), (ws.h, chain)
            assert _separates(ws, rep, chain)
            tmask = (1 << ws.h) - 1
            for j in chain:
                tmask &= ws._trans_int[j]
            assert len(cross) == bf.longest_chain_by_masks(ws, tmask, pairs)[0]


def test_halfspaces_are_convex():
    for name in ["grid_3x2", "cube3", "staircase"]:
        g = FIX[name]
        for j in range(g.hyperplane_count):
            for side in ("a", "b"):
                assert g.is_convex(g.halfspace(j, side)).ok


def test_hyperplane_dimension_from_cubes():
    g = FIX["cube3"]
    assert [h.dimension for h in g.hyperplanes()] == [3, 3, 3]
    g2 = FIX["grid_3x2"]
    assert all(h.dimension == 2 for h in g2.hyperplanes())


# -- cubes ---------------------------------------------------------------------


def test_cube3_inventory():
    g = FIX["cube3"]
    by_dim = {}
    for c in g.cubes():
        by_dim.setdefault(c.dimension, []).append(c)
    assert {d: len(cs) for d, cs in by_dim.items()} == {1: 12, 2: 6, 3: 1}
    maxes = g.maximal_cubes()
    assert len(maxes) == 1 and maxes[0].dimension == 3
    assert maxes[0].vertices == frozenset(g.ids)


def test_grid_3x2_inventory():
    g = FIX["grid_3x2"]
    cubes = g.cubes()
    assert sum(1 for c in cubes if c.dimension == 1) == 17
    assert sum(1 for c in cubes if c.dimension == 2) == 6
    assert all(c.dimension == 2 for c in g.maximal_cubes())
    assert len(g.maximal_cubes()) == 6


def test_tree_cubes_are_edges():
    g = FIX["tree_rand"]
    assert all(c.dimension == 1 and c.maximal for c in g.cubes())
    assert len(g.cubes()) == len(g.edges)


def test_cube_vertices_count():
    for name in ["grid_3x3", "cube4", "square_x_path"]:
        for c in FIX[name].cubes():
            assert len(c.vertices) == 2**c.dimension
            assert len(c.hyperplanes) == c.dimension


def _seeded_products(count: int, seed: int) -> list[MedianGraph]:
    """Products of two or three trees, paths and cubes with n <= 40, their
    vertices listed in random order (so vertex 0 and the index order are not
    tied to the factors)."""
    rng = random.Random(seed)
    factors = [
        lambda: random_tree(rng.randint(2, 7), rng),
        lambda: path_graph(rng.randint(1, 4)),
        lambda: hypercube(rng.randint(1, 3)),
    ]
    out = []
    while len(out) < count:
        p = product_graph(rng.choice(factors)(), rng.choice(factors)())
        if rng.random() < 0.3:
            p = product_graph(p, rng.choice(factors)())
        if p.n <= 40:
            edges = [(p.ids[a], p.ids[b]) for a, b in p.edges]
            out.append(MedianGraph(rng.sample(p.ids, p.n), edges))
    return out


def test_cubes_match_interval_oracle():
    # field by field and in order, and the linf cone-off built from the
    # enumerator's index rows joins exactly the pairs in a common maximal cube
    graphs = list(FIX.values()) + [staircase(6)] + _seeded_products(110, 2031)
    for g in graphs:
        truth = bf.cubes_interval_brute(g)
        assert g.cubes() == truth, g
        joined = np.zeros((g.n, g.n), dtype=bool)
        for c in truth:
            if c.maximal:
                idx = g.indices_of(c.vertices)
                joined[np.ix_(idx, idx)] = True
        np.fill_diagonal(joined, False)
        assert (g.linf_adjacency() == joined).all(), g


def test_cube_counts_dimensions_and_maximal_cubes_match_the_inventory(monkeypatch):
    # read from the cube rows on a fresh copy, before and after its Cube
    # objects exist, and compared with the full inventory; corners are built
    # for the maximal cubes alone, and not for counts or dimensions
    corner_rows = []
    real_corners = MedianGraph._cube_corners

    def corners(self, gates, hs):
        corner_rows.append(len(gates))
        return real_corners(self, gates, hs)

    monkeypatch.setattr(MedianGraph, "_cube_corners", corners)
    rng = random.Random(2036)
    graphs = list(FIX.values()) + _seeded_products(60, 2035) + [hypercube(5)]
    graphs += [product_graph(random_tree(t, rng), path_graph(m)) for t, m in ((6, 2), (9, 3), (12, 1))]
    graphs += [dual_cube_complex(x).graph for x in (
        hex_chain_complex(4), square_chain_complex(5), two_hexagons_complex(),
        corner_squares_complex(), ngon_complex(10),
    )]
    for g in graphs:
        cubes = g.cubes()
        fresh = MedianGraph(g.ids, [(g.ids[a], g.ids[b]) for a, b in g.edges])
        corner_rows.clear()
        counts: dict[int, int] = {}
        dims = [1] * g.hyperplane_count
        for c in cubes:
            counts[c.dimension] = counts.get(c.dimension, 0) + 1
            for j in c.hyperplanes:
                dims[j] = max(dims[j], c.dimension)
        assert list(fresh.cube_counts().items()) == sorted(counts.items()), g
        assert [h.dimension for h in fresh.hyperplanes()] == dims, g
        assert sum(corner_rows) == 0, g
        maximal = [c for c in cubes if c.maximal]
        assert fresh.maximal_cubes() == maximal, g
        assert sum(corner_rows) == len(maximal), g
        assert "cubes" not in fresh._cache
        assert fresh.cubes() == cubes and fresh.maximal_cubes() == maximal, g


def test_maximal_cubes_are_built_once_and_kept(monkeypatch):
    # a second call builds no corner rows, with or without the inventory,
    # and a caller changing the list it got changes nothing kept
    corner_rows = []
    real_corners = MedianGraph._cube_corners

    def corners(self, gates, hs):
        corner_rows.append(len(gates))
        return real_corners(self, gates, hs)

    monkeypatch.setattr(MedianGraph, "_cube_corners", corners)
    for g in (hypercube(3), product_graph(random_tree(9, random.Random(3)), path_graph(2)),
              dual_cube_complex(hex_chain_complex(4)).graph):
        for inventory in (False, True):
            fresh = MedianGraph(g.ids, [(g.ids[a], g.ids[b]) for a, b in g.edges])
            if inventory:
                fresh.cubes()
            first = fresh.maximal_cubes()
            corner_rows.clear()
            second = fresh.maximal_cubes()
            assert corner_rows == [] and second == first and second is not first
            second.pop()
            first.clear()
            assert fresh.maximal_cubes() == [c for c in fresh.cubes() if c.maximal]
            assert len(fresh.maximal_cubes()) == len(second) + 1


def test_star_times_path_cubes_at_scale():
    # K_{1,s} x P_m: s(m+1) + (s+1)m edges and sm squares, every square
    # maximal; a scan over vertex pairs within max-degree distance took
    # seconds here, the up-link enumeration takes well under one
    s, m = 300, 3
    star = MedianGraph(["c"] + [f"l{i}" for i in range(s)], [("c", f"l{i}") for i in range(s)])
    g = product_graph(star, path_graph(m))
    assert g.n == 1204
    g.wall_system
    start = time.perf_counter()
    cubes = g.cubes()
    elapsed = time.perf_counter() - start
    dims = {}
    for c in cubes:
        dims[c.dimension] = dims.get(c.dimension, 0) + 1
    assert dims == {1: s * (m + 1) + (s + 1) * m, 2: s * m}
    assert sum(c.maximal for c in cubes) == s * m
    assert all(c.maximal == (c.dimension == 2) for c in cubes)
    assert elapsed < 2.0, elapsed


def test_cube_corner_missing_is_an_internal_error():
    # a transversality table claiming that two legs of a tripod cross asks
    # for a square at the centre that is not there
    g = MedianGraph(["c", "a", "b", "d"], [("c", "a"), ("c", "b"), ("c", "d")])
    ws = g.wall_system
    ws._trans_int[0] |= 1 << 1
    ws._trans_int[1] |= 1 << 0
    with pytest.raises(ConsistencyError, match="corner is missing"):
        g.cubes()


def test_cube_vertex_count_is_checked():
    # hand-made tables for a triangle: its two up-edges at c in crossing
    # classes, the third edge in the first class, so the far corner of the
    # square repeats a vertex
    g = MedianGraph(["c", "a", "b"], [("c", "a"), ("c", "b"), ("a", "b")])
    g._cache["median_verdict"] = MedianVerdict(ok=True)
    g._cache["hyp"] = {
        "class_edges": [[0, 2], [1]],
        "edge_class": np.array([0, 1, 0], dtype=np.int32),
        "sides": np.array([[True, False, True], [True, True, False]]),
    }
    g._cache["transverse"] = np.array([[False, True], [True, False]])
    with pytest.raises(ConsistencyError, match="wrong vertex count"):
        g.cubes()


# -- distances ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hypercube_antipodal_distances(n):
    g = hypercube(n)
    a, b = "0" * n, "1" * n
    assert g.distance(a, b, L1) == n
    assert g.distance(a, b, LINF) == 1


def test_grid_3x2_linf_corner():
    g = FIX["grid_3x2"]
    assert g.distance("0,0", "3,2", LINF) == 3
    assert g.distance("0,0", "3,2", L1) == 5


def test_linf_vs_l1_bounds():
    for name in ["grid_3x2", "grid_3x3", "cube4", "staircase", "tripod"]:
        g = FIX[name]
        for x, y in itertools.combinations(g.ids, 2):
            li = g.distance(x, y, LINF)
            l1 = g.distance(x, y, L1)
            assert li <= l1
            assert l1 <= li * max(c.dimension for c in g.maximal_cubes())


def test_halfspace_restriction_preserves_linf():
    for name in ["grid_3x2", "cube3", "staircase"]:
        g = FIX[name]
        for j in range(g.hyperplane_count):
            hs = sorted(g.halfspace(j, "a"))
            sub = MedianGraph(
                hs,
                [
                    (g.ids[u], g.ids[v])
                    for u, v in g.edges
                    if g.ids[u] in set(hs) and g.ids[v] in set(hs)
                ],
            )
            assert sub.is_median().ok
            for x, y in itertools.combinations(hs, 2):
                assert sub.distance(x, y, LINF) == g.distance(x, y, LINF)


# -- convexity and gates ------------------------------------------------------


def test_lshape_not_convex():
    g, subset = lshape()
    verdict = g.is_convex(subset)
    assert not verdict.ok
    a, b, v = verdict.violation
    assert v == "0,1"
    assert {a, b} == {"0,0", "1,1"}


def test_convexity_needs_connected_induced_subgraph():
    g = FIX["path4"]
    with pytest.raises(GraphInputError):
        g.is_convex(["0", "2"])
    with pytest.raises(GraphInputError):
        g.is_convex([])


def test_local_convexity_rule_matches_the_interval_scan():
    # every connected subset of every fixture on at most 16 vertices
    checked = 0
    for name, g in FIX.items():
        if g.n > 16:
            continue
        for subset in bf.connected_subsets(g):
            verdict = g.is_convex(subset)
            assert verdict.ok == bf.convex_scan_brute(g, subset).ok, (name, subset)
            if not verdict.ok:
                a, b, x = verdict.violation
                assert a in subset and b in subset and x not in subset
                assert g.distance(a, x) == g.distance(b, x) == 1
            checked += 1
    assert checked > 70_000


def test_convexity_refuses_non_median_graphs():
    g = k23()
    with pytest.raises(NotMedianError):
        g.is_convex(g.ids[:1])


def test_intervals_are_convex():
    for name in ["grid_3x3", "cube3", "staircase"]:
        g = FIX[name]
        for x, y in itertools.combinations(g.ids, 2):
            assert g.is_convex(g.interval(x, y)).ok


def test_grid_projection_to_row():
    g = FIX["grid_3x3"]
    row0 = [f"{x},0" for x in range(4)]
    assert g.project(row0, "2,3") == "2,0"
    assert g.project(row0, "0,2") == "0,0"
    assert g.project(row0, "3,0") == "3,0"


def test_grid_gate_image_of_opposite_row():
    g = FIX["grid_3x3"]
    row0 = [f"{x},0" for x in range(4)]
    row3 = [f"{x},3" for x in range(4)]
    image, crossing = g.gate_image(row0, row3)
    assert image == frozenset(row0)
    assert len(crossing) == 3
    # the crossing hyperplanes are exactly those separating the row's ends
    sep = set(g.separating("0,0", "3,0"))
    assert set(crossing) == sep


def test_gate_image_single_point():
    g = FIX["grid_3x3"]
    row0 = [f"{x},0" for x in range(4)]
    image, crossing = g.gate_image(row0, ["1,2"])
    assert image == frozenset({"1,0"})
    assert crossing == ()


def test_projection_idempotent():
    g = FIX["staircase"]
    target = sorted(g.interval("0,0", "2,1"))
    for x in g.ids:
        p = g.project(target, x)
        assert g.project(target, p) == p


def test_projection_is_nearest_point():
    for name in ["grid_3x2", "cube3"]:
        g = FIX[name]
        adj = bf.adj_dict(g)
        d = bf.all_pairs(adj)
        target = sorted(g.interval(g.ids[0], g.ids[-1]))
        tset = set(target)
        for x in g.ids:
            p = g.project(target, x)
            assert d[x][p] == min(d[x][t] for t in tset)


# -- Ramsey-type extraction ----------------------------------------------------


def _max_transverse_clique(g) -> int:
    trans = g.transverse
    h = g.hyperplane_count
    best = 1 if h else 0
    for size in range(2, h + 1):
        found = False
        for combo in itertools.combinations(range(h), size):
            if all(trans[a, b] for a, b in itertools.combinations(combo, 2)):
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


@pytest.mark.parametrize(
    "name,d",
    [("path7", 1), ("grid_3x3", 2), ("tree_rand", 1), ("tree_rand", 3)],
)
def test_disjoint_family_extraction(name, d):
    """Families of >= ram_bound(d) hyperplanes with no d+1 pairwise transverse
    must contain d+1 pairwise disjoint ones, and we can exhibit them."""
    g = FIX[name]
    assert _max_transverse_clique(g) <= d
    assert g.hyperplane_count >= ram_bound(d)
    combo = bf.pairwise_disjoint_family(
        g.transverse, list(range(g.hyperplane_count)), d + 1
    )
    assert combo is not None


def test_ram_bound_values():
    assert [ram_bound(d) for d in range(5)] == [1, 2, 6, 20, 70]
