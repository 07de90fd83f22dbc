"""Even polygonal complexes, their walls, and the dual cube complex.

A complex is a finite set of vertices, edges, and polygons; each polygon is
a cyclic sequence of oriented edges that closes up, embeds, and has an even
number of at least four sides.  Opposite edges of a polygon generate an
equivalence relation on edges whose classes are the walls of the complex.
Cutting a wall's edge class out of the 1-skeleton yields the wall's sides;
two walls cross exactly when they pass through a common polygon.  The
walls of a complex form one ``WallSystem``, and orienting every wall
consistently cubulates that wall space (Sageev, Proc. LMS 1995) into a
median graph whose hyperplanes recover the walls one for one.

Small-cancellation conditions live on the complex itself: pieces are the
maximal shared boundary paths of distinct polygons, the metric condition
bounds piece length against both polygons, the cover condition asks how few
pieces cover a boundary, and the link condition forbids short cycles in
vertex links.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConsistencyError,
    GraphInputError,
    SizeCapError,
    UnionFind,
    ValidationError,
)
from .formats import RawComplex
from .median import IS_MEDIAN_CAP, MedianGraph, WallSystem, _row_bits, side_meets

EDGE_CUBE = "edge-cube"
CELL_CUBE = "cell-cube"

VERTEX_POINT = "vertex"
EDGE_MIDPOINT = "edge-midpoint"
SEGMENT_MIDPOINT = "segment-midpoint"
POLYGON_CENTER = "polygon-center"

SINGLE_VERTEX_NOTE = (
    "surrounding polygons meet in a single vertex; the projection emits "
    "that vertex"
)


class PolygonalComplex:
    """A finite two-dimensional complex with even polygonal cells.

    ``edges`` maps edge ids to vertex pairs and ``polygons`` maps polygon
    ids to cyclic sequences of signed edges; +1 traverses an edge as stored,
    -1 reverses it.  Construction validates that every boundary chains into
    a closed cycle, revisits no vertex, and has an even number of at least
    four sides, and that no two polygons share their whole boundary.
    """

    def __init__(self, vertices, edges, polygons):
        self.ids = tuple(vertices)
        if len(set(self.ids)) != len(self.ids):
            raise GraphInputError("duplicate vertex ids")
        known = set(self.ids)
        self.edges: dict[str, tuple[str, str]] = {}
        for eid, (a, b) in dict(edges).items():
            if a not in known or b not in known:
                raise GraphInputError(f"edge {eid} uses an undeclared vertex")
            if a == b:
                raise GraphInputError(f"edge {eid} is a loop")
            self.edges[eid] = (a, b)

        self.polygons: dict[str, tuple[tuple[str, int], ...]] = {}
        self.boundary: dict[str, tuple[str, ...]] = {}
        self.boundary_edges: dict[str, tuple[str, ...]] = {}
        by_edge_set: dict[frozenset[str], str] = {}
        for pid, chain in dict(polygons).items():
            oriented = []
            for eid, sign in chain:
                if eid not in self.edges:
                    raise GraphInputError(
                        f"polygon {pid} references unknown edge {eid}"
                    )
                a, b = self.edges[eid]
                oriented.append((eid, (a, b) if sign >= 0 else (b, a)))
            m = len(oriented)
            if m < 4 or m % 2:
                raise GraphInputError(
                    f"polygon {pid} has {m} sides; "
                    "an even count of at least 4 is required"
                )
            for (_, (_, head)), (_, (tail, _)) in zip(
                oriented, oriented[1:] + oriented[:1]
            ):
                if head != tail:
                    raise GraphInputError(
                        f"polygon {pid} is not a closed edge cycle"
                    )
            cycle = tuple(tail for _, (tail, _) in oriented)
            if len(set(cycle)) != m:
                raise GraphInputError(
                    f"polygon {pid} revisits a vertex; cells must embed"
                )
            eids = tuple(e for e, _ in oriented)
            key = frozenset(eids)
            if key in by_edge_set:
                raise GraphInputError(
                    f"polygons {by_edge_set[key]} and {pid} have the same boundary"
                )
            by_edge_set[key] = pid
            self.polygons[pid] = tuple(
                (e, 1 if s >= 0 else -1) for e, s in chain
            )
            self.boundary[pid] = cycle
            self.boundary_edges[pid] = eids

        polys_of: dict[str, list[str]] = {eid: [] for eid in self.edges}
        for pid, eids in self.boundary_edges.items():
            for e in eids:
                polys_of[e].append(pid)
        self.edge_polygons = {e: tuple(ps) for e, ps in polys_of.items()}

        inc: dict[str, list[str]] = {v: [] for v in self.ids}
        for eid, (a, b) in self.edges.items():
            inc[a].append(eid)
            inc[b].append(eid)
        self.incident = {v: tuple(es) for v, es in inc.items()}

        # one corner per polygon visit: at boundary position i the polygon
        # turns from edge i-1 onto edge i
        corners: dict[str, list[tuple[str, str, str]]] = {v: [] for v in self.ids}
        for pid in self.polygons:
            cycle = self.boundary[pid]
            eids = self.boundary_edges[pid]
            for i in range(len(cycle)):
                corners[cycle[i]].append((eids[i - 1], eids[i], pid))
        self.links = {v: tuple(cs) for v, cs in corners.items()}

    @classmethod
    def from_raw(cls, raw: RawComplex) -> "PolygonalComplex":
        return cls(raw.vertices, raw.edges, raw.polygons)

    def sides(self, pid: str) -> int:
        return len(self.boundary_edges[pid])

    def __repr__(self):
        return (
            f"PolygonalComplex({len(self.ids)} vertices, "
            f"{len(self.edges)} edges, {len(self.polygons)} polygons)"
        )


@dataclass(frozen=True)
class Piece:
    """A maximal shared boundary path between two distinct polygons."""

    polygons: tuple[str, str]
    edges: tuple[str, ...]
    vertices: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


def _edge_components(x: PolygonalComplex, eids) -> list[tuple[tuple, tuple]]:
    """Split an edge set lying on a boundary cycle into ordered paths."""
    adj: dict[str, list[tuple[str, str]]] = {}
    for e in eids:
        a, b = x.edges[e]
        adj.setdefault(a, []).append((e, b))
        adj.setdefault(b, []).append((e, a))
    for v, nb in adj.items():
        if len(nb) > 2:
            raise ConsistencyError(f"shared edges branch at vertex {v}")
    done: set[str] = set()
    paths = []
    for start in sorted(v for v, nb in adj.items() if len(nb) == 1):
        if all(e in done for e, _ in adj[start]):
            continue
        verts = [start]
        path_edges = []
        cur = start
        while True:
            step = [(e, w) for e, w in adj[cur] if e not in done]
            if not step:
                break
            e, w = step[0]
            done.add(e)
            path_edges.append(e)
            verts.append(w)
            cur = w
        paths.append((tuple(path_edges), tuple(verts)))
    if len(done) != len(set(eids)):
        raise ConsistencyError("shared edges close into a full cycle")
    return paths


def pieces(x: PolygonalComplex) -> tuple[Piece, ...]:
    """All maximal pieces, longest first.

    A piece is a path contained in the boundaries of two distinct polygons;
    the maximal ones are the connected components of each pairwise shared
    edge set, which are always paths because boundaries embed.
    """
    out = []
    for p, q in itertools.combinations(sorted(x.polygons), 2):
        shared = set(x.boundary_edges[p]) & set(x.boundary_edges[q])
        if not shared:
            continue
        for path_edges, verts in _edge_components(x, sorted(shared)):
            out.append(Piece((p, q), path_edges, verts))
    out.sort(key=lambda pc: (-len(pc.edges), pc.polygons, pc.edges))
    return tuple(out)


@dataclass(frozen=True)
class MetricVerdict:
    """Every piece shorter than lam times both ambient polygon boundaries."""

    passed: bool
    lam: Fraction
    witness: tuple[Piece, str] | None


@dataclass(frozen=True)
class CoverVerdict:
    """No polygon boundary covered by fewer than n pieces."""

    passed: bool
    n: int
    covers: tuple[tuple[str, int | None], ...]
    witness: str | None


@dataclass(frozen=True)
class LinkVerdict:
    """Every vertex link cycle has length 2 or at least n."""

    passed: bool
    n: int
    witness: tuple[str, tuple[str, ...]] | None


@dataclass(frozen=True)
class PolygonalSCReport:
    pieces: tuple[Piece, ...]
    max_piece: int
    metric: MetricVerdict
    cover: CoverVerdict
    link: LinkVerdict

    @property
    def passed(self) -> bool:
        return self.metric.passed and self.cover.passed and self.link.passed


def _metric_verdict(x, pcs, lam):
    for pc in pcs:
        for pid in pc.polygons:
            if pc.length >= lam * x.sides(pid):
                return MetricVerdict(False, lam, (pc, pid))
    return MetricVerdict(True, lam, None)


def _arcs_on(x, pid, pcs):
    """Project every piece onto maximal index arcs of pid's boundary cycle."""
    eids = x.boundary_edges[pid]
    pos = {e: i for i, e in enumerate(eids)}
    m = len(eids)
    arcs = set()
    for pc in pcs:
        hits = sorted(pos[e] for e in pc.edges if e in pos)
        if not hits:
            continue
        runs = [[hits[0]]]
        for i in hits[1:]:
            if i == runs[-1][-1] + 1:
                runs[-1].append(i)
            else:
                runs.append([i])
        if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == m - 1:
            runs[0] = runs.pop() + runs[0]
        for run in runs:
            arcs.add((run[0], len(run)))
    return m, arcs


def _min_circular_cover(m, arcs):
    """Exact minimum number of arcs covering all m positions, None if impossible.

    Arcs are contiguous, so seeding a greedy sweep at every candidate first
    arc is exact for the circular cover.
    """
    best = None
    ordered = sorted(arcs)
    for s0, l0 in ordered:
        count = 1
        reach = s0 + l0
        goal = s0 + m
        while reach < goal:
            ext = reach
            for s, length in ordered:
                ss = s if s >= s0 else s + m
                if ss <= reach and ss + length > ext:
                    ext = ss + length
            if ext == reach:
                count = None
                break
            reach = ext
            count += 1
        if count is not None and (best is None or count < best):
            best = count
    return best


def _cover_verdict(x, pcs, n):
    covers = []
    witness = None
    for pid in sorted(x.polygons):
        m, arcs = _arcs_on(x, pid, pcs)
        val = _min_circular_cover(m, arcs)
        covers.append((pid, val))
        if val is not None and val < n and witness is None:
            witness = pid
    return CoverVerdict(witness is None, n, tuple(covers), witness)


def _short_cycle(adj, bound):
    """A shortest simple cycle with 3 <= length < bound, None if none."""
    nodes = sorted(adj)
    order = {u: i for i, u in enumerate(nodes)}

    def extend(path, used, length):
        if len(path) == length:
            return path if path[0] in adj[path[-1]] else None
        for w in sorted(adj[path[-1]]):
            if w in used or order[w] < order[path[0]]:
                continue
            got = extend(path + (w,), used | {w}, length)
            if got:
                return got
        return None

    try:
        for length in range(3, bound):
            for root in nodes:
                got = extend((root,), {root}, length)
                if got:
                    return got
        return None
    finally:
        del extend  # a self-referring closure is a reference cycle


def _link_verdict(x, n):
    # cycles of length 2 (two polygons cornering the same edge pair) are
    # allowed, so the collapsed simple graph is the right place to look
    for v in x.ids:
        adj: dict[str, set[str]] = {}
        for e1, e2, _pid in x.links[v]:
            if e1 == e2:
                continue
            adj.setdefault(e1, set()).add(e2)
            adj.setdefault(e2, set()).add(e1)
        cyc = _short_cycle(adj, n)
        if cyc is not None:
            return LinkVerdict(False, n, (v, cyc))
    return LinkVerdict(True, n, None)


def polygonal_sc_check(x, lam, n_cover=4, n_link=4) -> PolygonalSCReport:
    """Check the metric, cover, and link small-cancellation conditions.

    ``lam`` bounds every piece strictly below lam times the boundary length
    of both polygons it lies on; ``n_cover`` requires that no boundary be
    covered by fewer than n_cover pieces; ``n_link`` requires link cycles of
    length 2 or at least n_link.
    """
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise GraphInputError("lambda must satisfy 0 < lambda < 1")
    if n_cover < 1:
        raise GraphInputError("cover condition needs n >= 1")
    if n_link < 3:
        raise GraphInputError("link condition needs n >= 3")
    pcs = pieces(x)
    max_piece = max((pc.length for pc in pcs), default=0)
    return PolygonalSCReport(
        pcs,
        max_piece,
        _metric_verdict(x, pcs, lam),
        _cover_verdict(x, pcs, n_cover),
        _link_verdict(x, n_link),
    )


@dataclass(frozen=True)
class Wall:
    """An equivalence class of edges under opposition in a polygon.

    ``sides`` are the vertex components of the 1-skeleton after deleting
    the class; small-cancellation complexes give exactly two.  ``polygons``
    is the carrier: every polygon the wall passes through.
    """

    index: int
    edges: tuple[str, ...]
    polygons: tuple[str, ...]
    sides: tuple[frozenset[str], ...]

    @property
    def two_sided(self) -> bool:
        return len(self.sides) == 2


def _cut_components(x, cut):
    pos = {v: i for i, v in enumerate(x.ids)}
    uf = UnionFind(len(pos))
    for eid, (a, b) in x.edges.items():
        if eid not in cut:
            uf.union(pos[a], pos[b])
    comps: dict[int, set[str]] = {}
    for v, i in pos.items():
        comps.setdefault(uf.find(i), set()).add(v)
    return tuple(sorted((frozenset(c) for c in comps.values()), key=sorted))


def walls(x: PolygonalComplex) -> tuple[Wall, ...]:
    """Edge classes under opposite-in-a-polygon, with sides and carriers."""
    eids = list(x.edges)
    pos = {e: i for i, e in enumerate(eids)}
    uf = UnionFind(len(eids))
    for boundary in x.boundary_edges.values():
        half = len(boundary) // 2
        for i in range(half):
            uf.union(pos[boundary[i]], pos[boundary[i + half]])

    classes: dict[int, list[str]] = {}
    for i, e in enumerate(eids):
        classes.setdefault(uf.find(i), []).append(e)

    out = []
    for cls in sorted(tuple(sorted(c)) for c in classes.values()):
        carriers = sorted({p for e in cls for p in x.edge_polygons[e]})
        out.append(
            Wall(len(out), cls, tuple(carriers), _cut_components(x, set(cls)))
        )
    return tuple(out)


class DualCubeComplex:
    """Median graph of consistent wall orientations.

    Vertices are the orientations reachable from the principal ones (each
    complex vertex orients every wall toward its own side) by single-wall
    flips keeping all pairwise side intersections nonempty; edges join
    orientations differing on one wall.

    ``system`` holds the walls as a WallSystem over the complex vertices:
    ``sides[k, i]`` is true when vertex ``base.ids[i]`` (``vertex_index``
    maps ids to columns) lies in side 0 of wall k, and two walls are
    transverse exactly when they pass through a common polygon.
    ``wall_of_edge`` maps every edge to its wall.

    What is derived from the dual alone is made at most once and kept on it
    for its lifetime: the maximal-cube classification, each dual vertex's
    projection with its wall masks (``_transfer_end``), and each longest
    chain by its separating mask, the dual's as found and the walls' sorted.
    They hold at most one entry per vertex or mask asked for, and each is
    the same function of the same key, so a kept one is exact.
    """

    def __init__(self, base, wall_list, vertex_index, system, graph,
                 orientations, principal, hyperplane_walls):
        self.base = base
        self.walls = wall_list
        self.vertex_index = vertex_index
        self.wall_of_edge = {e: w.index for w in wall_list for e in w.edges}
        self.system = system
        self.graph = graph
        self.orientations = orientations
        self.principal = principal
        self.hyperplane_walls = hyperplane_walls
        self._classification = None
        self._ends, self._dual_chains, self._wall_chains = {}, {}, {}

    def __repr__(self):
        return (
            f"DualCubeComplex({self.graph.n} vertices, "
            f"{len(self.walls)} walls)"
        )


def dual_cube_complex(x: PolygonalComplex) -> DualCubeComplex:
    ws = walls(x)
    for w in ws:
        if not w.two_sided:
            raise ValidationError(
                f"wall {w.index} cuts the complex into {len(w.sides)} "
                "pieces; the wall space is degenerate"
            )
    h = len(ws)
    index = {v: i for i, v in enumerate(x.ids)}
    poly_pos = {p: i for i, p in enumerate(x.polygons)}
    sides = np.zeros((h, len(index)), dtype=bool)
    carriers = np.zeros((h, len(poly_pos)), dtype=np.float32)
    for w in ws:
        sides[w.index, [index[v] for v in w.sides[0]]] = True
        carriers[w.index, [poly_pos[p] for p in w.polygons]] = 1
    # walls cross exactly when they pass through a common polygon
    transverse = carriers @ carriers.T > 0
    np.fill_diagonal(transverse, False)
    system = WallSystem(sides, transverse)

    # an orientation is an int whose bit k is the side chosen for wall k;
    # clash[b][c][k] holds the walls j != k whose side c misses side b of k
    quad = side_meets(sides, sides)
    apart = ~quad & ~np.eye(h, dtype=bool)
    clash = [[_row_bits(apart[b, c]) for c in (0, 1)] for b in (0, 1)]

    def name(o):
        # o's h bits, wall 0 first; the leading 1 is dropped, so no walls spell "o"
        return "o" + format(o | 1 << h, "b")[:0:-1]

    seen: dict[int, str] = {}
    principal = {}
    for v, o in zip(x.ids, _row_bits(~sides.T)):
        principal[v] = seen.setdefault(o, name(o))
    queue = list(seen)
    for o in queue:
        # every vertex found is dequeued, so this sees the final count too;
        # a dual past the cap of median recognition could never be recognised
        if len(seen) > IS_MEDIAN_CAP:
            raise SizeCapError(
                f"dual complex exceeds {IS_MEDIAN_CAP} vertices, the "
                "IS_MEDIAN_CAP of median recognition"
            )
        for k in range(h):
            b = (o >> k & 1) ^ 1
            if ~o & clash[b][0][k] or o & clash[b][1][k]:
                continue
            t = o ^ (1 << k)
            if t not in seen:
                seen[t] = name(t)
                queue.append(t)

    edge_set = set()
    for o, vid in seen.items():
        for k in range(h):
            t = o ^ (1 << k)
            if t in seen:
                edge_set.add(tuple(sorted((vid, seen[t]))))
    graph = MedianGraph(sorted(seen.values()), sorted(edge_set))
    # median by construction (Sageev 1995), so a failure here is a bug
    verdict = graph.is_median()
    if not verdict.ok:
        raise ConsistencyError(f"the dual is not median at triple {verdict.witness}")

    # each hyperplane's edge class must flip one wall, and each wall once
    code = {vid: o for o, vid in seen.items()}
    codes = [code[vid] for vid in graph.ids]
    labels = []
    for j, class_edges in enumerate(graph._hyperplane_data()["class_edges"]):
        ks = set()
        for e in class_edges:
            a, b = graph.edges[e]
            flip = codes[a] ^ codes[b]
            if flip & (flip - 1):
                raise ConsistencyError("a dual edge flips more than one wall")
            ks.add(flip.bit_length() - 1)
        if len(ks) != 1:
            raise ConsistencyError(f"hyperplane {j} mixes walls {sorted(ks)}")
        labels.append(ks.pop())
    if sorted(labels) != list(range(h)):
        raise ConsistencyError("hyperplanes do not biject with walls")
    orientations = {
        vid: tuple(o >> k & 1 for k in range(h)) for o, vid in seen.items()
    }
    return DualCubeComplex(
        x, ws, index, system, graph, orientations, principal, tuple(labels)
    )


@dataclass(frozen=True)
class CubeTag:
    kind: str
    ref: str
    dimension: int
    vertices: frozenset[str]


@dataclass(frozen=True)
class ClassificationReport:
    ok: bool
    tags: tuple[CubeTag, ...]
    unmatched: tuple[tuple[tuple[int, ...], frozenset[str]], ...]


def classify_maximal_cubes(dc: DualCubeComplex) -> ClassificationReport:
    """Match every maximal cube to an isolated edge or a polygon.

    A maximal 1-cube over an isolated edge's wall is an edge cube; a cube
    whose wall set equals the wall set of some polygon with half as many
    sides is that polygon's cell cube, the first such polygon by sorted id
    (a polygon whose wall passes through it twice has fewer walls than half
    its sides, and can share its wall set with a smaller polygon).
    Anything else lands in ``unmatched`` with its wall set, which flags
    inputs outside the small-cancellation regime rather than raising.
    The report is made once per dual and kept on it.
    """
    if dc._classification is not None:
        return dc._classification
    x = dc.base
    poly_sets: dict[frozenset[int], list[str]] = {}
    for pid in sorted(x.polygons):
        s = frozenset(dc.wall_of_edge[e] for e in x.boundary_edges[pid])
        poly_sets.setdefault(s, []).append(pid)
    isolated = {w.index: w.edges[0] for w in dc.walls if not w.polygons}

    tags = []
    unmatched = []
    for cube in dc.graph.maximal_cubes():
        wset = frozenset(dc.hyperplane_walls[j] for j in cube.hyperplanes)
        only = next(iter(wset)) if len(wset) == 1 else None
        cell = next(
            (p for p in poly_sets.get(wset, ()) if x.sides(p) == 2 * cube.dimension),
            None,
        )
        if cube.dimension == 1 and only in isolated:
            tags.append(CubeTag(EDGE_CUBE, isolated[only], 1, cube.vertices))
        elif cell is not None:
            tags.append(CubeTag(CELL_CUBE, cell, cube.dimension, cube.vertices))
        else:
            unmatched.append((tuple(sorted(wset)), cube.vertices))
    tags.sort(key=lambda t: (t.kind, t.ref, sorted(t.vertices)))
    dc._classification = ClassificationReport(
        not unmatched, tuple(tags), tuple(unmatched)
    )
    return dc._classification


@dataclass(frozen=True)
class ProjectionPoint:
    """A symbolic point of the complex: a cell plus a barycentric tag.

    ``kind`` says how the point sits in the cell; ``cell`` is the carrier
    cell (vertex, edge, or polygon id); ``path`` records the shared segment
    for segment midpoints; ``carrier`` is the carrier cell's vertex set,
    which is what wall separation is measured against.
    """

    kind: str
    cell: tuple[str, str]
    path: tuple[str, ...]
    carrier: frozenset[str]
    note: str = ""


def _own_report(x, dc, report) -> ClassificationReport:
    """The dual's classification, once ``x`` and ``report`` are its own."""
    if x is not dc.base:
        raise ValidationError("the complex is not the one the dual was built from")
    own = classify_maximal_cubes(dc)
    if report not in (None, own):
        raise ValidationError("the report is not the dual's classification")
    return own


def dual_projection(x, dc, v, report=None) -> ProjectionPoint:
    """Project a dual vertex back into the complex.

    Vertices of an edge cube land on the matching endpoint of the isolated
    edge.  Otherwise the polygons of all maximal cubes through ``v`` are
    intersected: a whole polygon projects to its center, a shared segment
    to its midpoint, and a single shared vertex to that vertex.

    ``x`` must be ``dc.base`` and ``report`` None or the dual's own
    classification; anything else is a ``ValidationError``.  So is a
    vertex in an unclassified maximal cube, since projection needs a
    small-cancellation complex.
    """
    dc.graph.indices_of([v])  # an unknown id is bad input, not a bug
    report = _own_report(x, dc, report)
    for wset, verts in report.unmatched:
        if v in verts:
            raise ValidationError(
                f"dual vertex {v} lies in an unclassified maximal cube over "
                f"walls {list(wset)}; projection needs a small-cancellation "
                "complex"
            )
    mine = [t for t in report.tags if v in t.vertices]
    if not mine:
        raise ConsistencyError(f"dual vertex {v} lies in no maximal cube")

    for t in mine:
        if t.kind == EDGE_CUBE:
            a, b = x.edges[t.ref]
            k = dc.wall_of_edge[t.ref]
            side = dc.walls[k].sides[dc.orientations[v][k]]
            u = a if a in side else b
            return ProjectionPoint(VERTEX_POINT, ("vertex", u), (), frozenset({u}))

    polys = sorted({t.ref for t in mine if t.kind == CELL_CUBE})
    common_v = set(x.boundary[polys[0]])
    common_e = set(x.boundary_edges[polys[0]])
    for pid in polys[1:]:
        common_v &= set(x.boundary[pid])
        common_e &= set(x.boundary_edges[pid])
    if not common_v:
        raise ConsistencyError(
            f"polygons {polys} around dual vertex {v} have empty "
            "intersection; the complex violates the small-cancellation "
            "hypotheses"
        )
    if len(polys) == 1:
        pid = polys[0]
        return ProjectionPoint(
            POLYGON_CENTER, ("polygon", pid), (), frozenset(x.boundary[pid])
        )
    if common_e:
        paths = _edge_components(x, sorted(common_e))
        path_edges, verts = paths[0]
        if len(paths) != 1 or common_v - set(verts):
            raise ConsistencyError(
                f"polygons {polys} meet in a disconnected set"
            )
        n_edges = len(path_edges)
        if n_edges == 1:
            return ProjectionPoint(
                EDGE_MIDPOINT, ("edge", path_edges[0]), verts, frozenset(verts)
            )
        if n_edges % 2:
            mid = path_edges[n_edges // 2]
            return ProjectionPoint(
                SEGMENT_MIDPOINT, ("edge", mid), verts, frozenset(x.edges[mid])
            )
        mid = verts[n_edges // 2]
        return ProjectionPoint(
            SEGMENT_MIDPOINT, ("vertex", mid), verts, frozenset({mid})
        )
    if len(common_v) > 1:
        raise ConsistencyError(f"polygons {polys} meet in a disconnected set")
    u = min(common_v)
    return ProjectionPoint(
        VERTEX_POINT, ("vertex", u), (), frozenset({u}), SINGLE_VERTEX_NOTE
    )


@dataclass(frozen=True)
class TransferReport:
    """Separation in the dual against separation in the complex.

    ``dual_disjoint`` is the size of the largest pairwise-disjoint family
    of dual hyperplanes separating u from w; ``wall_disjoint`` the largest
    pairwise-disjoint family of walls separating the two projections.
    """

    u: str
    w: str
    point_u: ProjectionPoint
    point_w: ProjectionPoint
    dual_disjoint: int
    wall_disjoint: int
    dual_family: tuple[int, ...]
    wall_family: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return self.wall_disjoint >= self.dual_disjoint - 2


def _transfer_end(dc, v):
    """``v``'s projection with the wall masks a transfer needs, as
    (point, inside, touches, meets), kept on ``dc`` for its lifetime.

    Over the walls of ``dc.system``, ``inside`` holds those with the whole
    carrier in side 0, ``touches`` those with some carrier vertex in side 0
    and ``meets`` those through the point's cell: the walls of a polygon's
    boundary edges or of an edge itself, none for a vertex.  The side masks
    do not imply ``meets``: a wall that passes twice through one polygon can
    have edges with both ends on one side, and so can pass through a cell
    whose whole carrier lies on that side.
    """
    if v in dc._ends:
        return dc._ends[v]
    x = dc.base
    point = dual_projection(x, dc, v)
    columns = dc.system.columns
    inside, touches = -1, 0
    for c in point.carrier:
        col = columns[dc.vertex_index[c]]
        inside &= col
        touches |= col
    kind, ref = point.cell
    cell_edges = {"polygon": x.boundary_edges.get(ref), "edge": (ref,)}.get(kind, ())
    meets = 0
    for e in cell_edges:
        meets |= 1 << dc.wall_of_edge[e]
    dc._ends[v] = point, inside, touches, meets
    return dc._ends[v]


def separation_transfer(x, dc, u, w, report=None) -> TransferReport:
    """Project u and w, then compare disjoint separating families.

    A wall separates the projections when it misses both carrier cells and
    the carriers sit on opposite sides; disjointness of walls means no
    shared polygon, disjointness of dual hyperplanes means not transverse.

    ``x`` must be ``dc.base`` and ``report`` None or the dual's own
    classification; anything else is a ``ValidationError``.  Each dual
    vertex is projected once per dual, and with it are kept its carrier's
    wall-side bits (their AND and OR over the carrier) and the walls meeting
    its cell: a wall splits the carriers when one carrier's AND has it in
    side 0 and the other's OR does not.  The dual separating set is the XOR
    of the two vertices' halfspace columns.  Each chain is found once per
    dual and distinct separating mask; only its order toward u is per pair.

    Both families are ``WallSystem.longest_chain`` of their separating
    mask, ordered toward u for the dual: inside one pair's separating set,
    disjoint walls are exactly the comparable ones.  For the dual this is
    the median graph's empty quadrant.  For the walls it holds because walls
    cross only inside polygons (Wise, "Cubulating small cancellation
    groups", GAFA 14, 2004).  Two walls sharing no polygon are nested: the
    edges and carrier polygons of each lie on one side of the other, so one
    quadrant is empty.  And nested walls s < t < r, where neither s, t nor
    t, r share a polygon, share none either: its boundary would have
    vertices on both sides of t and so an edge of t.
    """
    _own_report(x, dc, report)
    pu, inside_u, touches_u, meets_u = _transfer_end(dc, u)
    pw, inside_w, touches_w, meets_w = _transfer_end(dc, w)
    ws, rep = dc.graph.wall_system, tuple(dc.graph.indices_of([u, w]))
    separating = ws.columns[rep[0]] ^ ws.columns[rep[1]]
    if separating not in dc._dual_chains:
        dc._dual_chains[separating] = ws.longest_chain(separating)[1]
    dual_family = ws.order_chain(dc._dual_chains[separating], rep)

    apart = inside_u & ~touches_w | inside_w & ~touches_u
    mask = apart & ~meets_u & ~meets_w
    if mask not in dc._wall_chains:
        dc._wall_chains[mask] = tuple(sorted(dc.system.longest_chain(mask)[1]))
    wall_family = dc._wall_chains[mask]
    return TransferReport(
        u, w, pu, pw, len(dual_family), len(wall_family), dual_family, wall_family
    )
