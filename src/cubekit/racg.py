"""Right-angled Coxeter groups presented by a finite defining graph.

Vertices are involutive generators and edges are commutation relations.
This module solves the word problem by commutation rewriting, builds Cayley
balls as graphs, computes walls from reflection words, classifies
contracting generators, and iterates the canonical join decomposition that
decides relative hyperbolicity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, GraphInputError, SizeCapError
from .median import MedianGraph, UnionFind, WallSystem

SQUARES = "squares"
LARGE_JOINS = "large_joins"

BALL_VERTEX_CAP = 20000
JOIN_ENUM_CAP = 14
WALL_BUFFER = 2


class DefiningGraph:
    """Finite simple graph whose vertices generate the group.

    The declared vertex order is also the shortlex generator order.
    """

    def __init__(self, vertices, edges):
        self.vertices: list[str] = list(dict.fromkeys(str(v) for v in vertices))
        if not self.vertices:
            raise GraphInputError("a defining graph needs at least one generator")
        self.rank = {v: i for i, v in enumerate(self.vertices)}
        self.adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        seen = set()
        for a, b in edges:
            a, b = str(a), str(b)
            for x in (a, b):
                if x not in self.rank:
                    raise GraphInputError(
                        f"edge endpoint {x!r} is not a declared generator"
                    )
            if a == b:
                raise GraphInputError(f"loop at generator {a!r}")
            key = frozenset((a, b))
            if key in seen:
                raise GraphInputError(f"duplicate edge {a!r} -- {b!r}")
            seen.add(key)
            self.adj[a].add(b)
            self.adj[b].add(a)

    @classmethod
    def from_graph(cls, g: MedianGraph) -> "DefiningGraph":
        return cls(g.ids, [(g.ids[u], g.ids[w]) for u, w in g.edges])

    def __repr__(self) -> str:
        nedges = sum(len(s) for s in self.adj.values()) // 2
        return f"DefiningGraph({len(self.vertices)} generators, {nedges} relations)"

    def _check(self, v: str) -> str:
        if v not in self.rank:
            raise GraphInputError(f"unknown generator {v!r}")
        return v

    def link(self, v: str) -> frozenset[str]:
        return frozenset(self.adj[self._check(v)])

    def star(self, v: str) -> frozenset[str]:
        return self.link(v) | {v}

    def is_complete_set(self, vs) -> bool:
        """Empty sets and singletons count as complete."""
        vs = {self._check(v) for v in vs}
        return all(b in self.adj[a] for a, b in itertools.combinations(vs, 2))

    def induced_squares(self) -> list[tuple[str, ...]]:
        out = []
        for quad in itertools.combinations(self.vertices, 4):
            if all(
                sum(1 for u in quad if u != v and u in self.adj[v]) == 2
                for v in quad
            ):
                out.append(quad)
        return out

    def square_vertices(self) -> frozenset[str]:
        return frozenset(v for quad in self.induced_squares() for v in quad)


# -- word problem ----------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    letters: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(self.letters) if self.letters else "e"


def _reduce(dg: DefiningGraph, letters) -> list[str]:
    """One left-to-right pass of involution cancellation.

    A letter cancels against the rightmost earlier copy of itself that can
    be shuffled next to it; the scan stops at the first letter that fails
    to commute.  The prefix stays reduced throughout, so the result is a
    geodesic word.
    """
    adj = dg.adj
    out: list[str] = []
    for v in letters:
        if v not in dg.rank:
            raise GraphInputError(f"unknown generator {v!r}")
        hit = -1
        for i in range(len(out) - 1, -1, -1):
            if out[i] == v:
                hit = i
                break
            if out[i] not in adj[v]:
                break
        if hit >= 0:
            del out[hit]
        else:
            out.append(v)
    return out


def _shortlex(dg: DefiningGraph, letters) -> list[str]:
    """Lexicographically least word in the commutation class of a reduced word."""
    rank = dg.rank
    adj = dg.adj
    rest = list(letters)
    out: list[str] = []
    while rest:
        pick = -1
        for i, v in enumerate(rest):
            if any(u not in adj[v] for u in rest[:i]):
                continue
            if pick < 0 or rank[v] < rank[rest[pick]]:
                pick = i
        out.append(rest.pop(pick))
    return out


def normal_form(dg: DefiningGraph, word) -> NormalForm:
    return NormalForm(tuple(_shortlex(dg, _reduce(dg, list(word)))))


def words_equal(dg: DefiningGraph, u, w) -> bool:
    return normal_form(dg, u) == normal_form(dg, w)


def _mul(dg: DefiningGraph, form: tuple[str, ...], v: str) -> tuple[str, ...]:
    return tuple(_shortlex(dg, _reduce(dg, list(form) + [v])))


# -- Cayley balls ------------------------------------------------------------------


@dataclass
class RacgBall:
    graph: MedianGraph
    radius: int
    forms: dict[str, tuple[str, ...]]
    identity: str
    separator: str
    edge_letter: dict[tuple[str, str], str]
    note: str


def _ball_forms(dg: DefiningGraph, r: int, cap: int) -> dict[tuple[str, ...], int]:
    forms: dict[tuple[str, ...], int] = {(): 0}
    frontier: list[tuple[str, ...]] = [()]
    for ln in range(r):
        nxt = []
        for f in frontier:
            for v in dg.vertices:
                g = _mul(dg, f, v)
                if len(g) == ln + 1 and g not in forms:
                    forms[g] = ln + 1
                    nxt.append(g)
                    if len(forms) > cap:
                        raise SizeCapError(
                            f"ball exceeds the {cap}-vertex cap at radius {ln + 1}"
                        )
        frontier = nxt
    return forms


def _separator_for(dg: DefiningGraph) -> str:
    for sep in (".", "|", "/", "~", ":"):
        if not any(sep in v for v in dg.vertices):
            return sep
    raise GraphInputError("generator names leave no free separator character")


def ball(dg: DefiningGraph, r: int, cap: int = BALL_VERTEX_CAP) -> RacgBall:
    """The radius-r ball of the Cayley graph, on shortlex normal forms."""
    if r < 0:
        raise GraphInputError("radius must be >= 0")
    forms = _ball_forms(dg, r, cap)
    sep = _separator_for(dg)
    ident = next(
        (c for c in ("e", "1", "id", "eps") if c not in dg.rank), "<identity>"
    )
    rank = dg.rank
    ordered = sorted(forms, key=lambda t: (len(t), [rank[x] for x in t]))

    def fid(t):
        return sep.join(t) if t else ident

    ids = [fid(t) for t in ordered]
    edges = []
    edge_letter: dict[tuple[str, str], str] = {}
    for f in ordered:
        for v in dg.vertices:
            g = _mul(dg, f, v)
            if len(g) == len(f) + 1 and g in forms:
                a, b = fid(f), fid(g)
                edges.append((a, b))
                edge_letter[(min(a, b), max(a, b))] = v
    graph = MedianGraph(ids, edges)
    return RacgBall(
        graph=graph,
        radius=r,
        forms={fid(t): t for t in ordered},
        identity=ident,
        separator=sep,
        edge_letter=edge_letter,
        note=(
            "wall data for this ball is computed from reflection words with a "
            f"radius +{WALL_BUFFER} buffer; transversality is one-sided"
        ),
    )


# -- walls from reflection words -----------------------------------------------------


@dataclass
class BallWalls:
    ball: RacgBall
    system: WallSystem
    reflections: tuple[tuple[str, ...], ...]
    dual_edges: tuple[tuple[tuple[str, str], ...], ...]
    note: str

    def generator_wall(self, v: str) -> int:
        """Index of the wall dual to the identity edge of a generator."""
        try:
            return self.reflections.index((v,))
        except ValueError:
            raise GraphInputError(
                f"the identity edge of {v!r} is not inside the ball"
            ) from None


def ball_walls(
    dg: DefiningGraph, r: int, cap: int = BALL_VERTEX_CAP, buffer: int = WALL_BUFFER
) -> BallWalls:
    """Walls of the Cayley ball via reflection words.

    The wall of an edge (g, gv) is the reflection g v g^-1; a vertex y lies
    on the identity side iff multiplying by the reflection increases its
    length (exact, no truncation).  Transversality is certified by commuting
    squares based in the radius-(r + buffer) ball and is one-sided: crossings
    witnessed only further out are missed.
    """
    b = ball(dg, r, cap)
    wall_index: dict[tuple[str, ...], int] = {}
    dual: list[list[tuple[str, str]]] = []
    for iu, iw in b.graph.edges:
        uid, wid = b.graph.ids[iu], b.graph.ids[iw]
        fu, fw = b.forms[uid], b.forms[wid]
        g, _h = (fu, fw) if len(fu) < len(fw) else (fw, fu)
        v = b.edge_letter[(min(uid, wid), max(uid, wid))]
        refl = tuple(_shortlex(dg, _reduce(dg, list(g) + [v] + list(reversed(g)))))
        j = wall_index.setdefault(refl, len(dual))
        if j == len(dual):
            dual.append([])
        dual[j].append((uid, wid))
    reflections = [None] * len(wall_index)
    for refl, j in wall_index.items():
        reflections[j] = refl
    h = len(reflections)
    sides = np.zeros((h, b.graph.n), dtype=bool)
    for j, t in enumerate(reflections):
        tl = list(t)
        for k, vid in enumerate(b.graph.ids):
            y = b.forms[vid]
            sides[j, k] = len(_reduce(dg, tl + list(y))) > len(y)
    trans = np.zeros((h, h), dtype=bool)
    comm = [
        (u, v)
        for u, v in itertools.combinations(dg.vertices, 2)
        if v in dg.adj[u]
    ]
    if comm:
        for g in _ball_forms(dg, r + buffer, cap * 4):
            gl = list(g)
            rg = list(reversed(g))
            for u, v in comm:
                w1 = tuple(_shortlex(dg, _reduce(dg, gl + [u] + rg)))
                i1 = wall_index.get(w1)
                if i1 is None:
                    continue
                w2 = tuple(_shortlex(dg, _reduce(dg, gl + [v] + rg)))
                i2 = wall_index.get(w2)
                if i2 is None or i1 == i2:
                    continue
                trans[i1, i2] = trans[i2, i1] = True
    return BallWalls(
        ball=b,
        system=WallSystem(sides, trans),
        reflections=tuple(reflections),
        dual_edges=tuple(tuple(d) for d in dual),
        note=b.note,
    )


# -- joins and the canonical decomposition ---------------------------------------------


def maximal_large_joins(
    dg: DefiningGraph, cap: int = JOIN_ENUM_CAP
) -> tuple[frozenset[str], ...]:
    """Vertex sets of the inclusion-maximal large joins.

    A join A * B is large when neither side is complete.  Enumeration closes
    every seed side under common-neighbourhoods, which reaches every maximal
    join pair; exhaustive at small generator counts only.
    """
    n = len(dg.vertices)
    if n > cap:
        raise SizeCapError(
            f"join enumeration is exhaustive only up to {cap} generators (got {n})"
        )
    verts = dg.vertices
    adj = dg.adj

    def common_neighbours(side):
        return frozenset(
            v for v in verts if v not in side and all(x in adj[v] for x in side)
        )

    pairs = set()
    for bits in range(1, 1 << n):
        A = frozenset(verts[i] for i in range(n) if bits >> i & 1)
        B = common_neighbours(A)
        if not B:
            continue
        while True:
            A2 = common_neighbours(B)
            B2 = common_neighbours(A2)
            if A2 == A and B2 == B:
                break
            A, B = A2, B2
        if not A or dg.is_complete_set(A) or dg.is_complete_set(B):
            continue
        pairs.add(frozenset((A, B)))
    sets = {frozenset().union(*pair) for pair in pairs}
    return tuple(
        sorted(
            (s for s in sets if not any(s < t for t in sets)),
            key=sorted,
        )
    )


def cp_closure(dg: DefiningGraph, subset) -> frozenset[str]:
    """One application of the closure rule: add every vertex whose link meets
    the set in a non-complete subgraph."""
    s = frozenset(dg._check(v) for v in subset)
    extra = {
        v
        for v in dg.vertices
        if v not in s and not dg.is_complete_set(dg.adj[v] & s)
    }
    return s | extra


@dataclass(frozen=True)
class DecompositionVerdict:
    ok: bool
    join_cover_ok: bool
    intersections_ok: bool
    closure_ok: bool
    witness: str | None


def validate_decomposition(
    dg: DefiningGraph, members, cap: int = JOIN_ENUM_CAP
) -> DecompositionVerdict:
    """Check the three join-decomposition conditions independently."""
    mem = [frozenset(dg._check(v) for v in m) for m in members]
    witness = None
    cover = True
    for J in maximal_large_joins(dg, cap):
        if not any(J <= m for m in mem):
            cover = False
            witness = f"large join {sorted(J)} lies in no member"
            break
    inter = True
    for a, b in itertools.combinations(mem, 2):
        if not dg.is_complete_set(a & b):
            inter = False
            witness = witness or (
                f"members {sorted(a)} and {sorted(b)} have a non-complete intersection"
            )
            break
    closure = True
    for m in mem:
        for v in dg.vertices:
            if v not in m and not dg.is_complete_set(dg.adj[v] & m):
                closure = False
                witness = witness or (
                    f"vertex {v!r} has a non-complete link inside {sorted(m)} "
                    "but is missing from it"
                )
                break
        if not closure:
            break
    return DecompositionVerdict(
        ok=cover and inter and closure,
        join_cover_ok=cover,
        intersections_ok=inter,
        closure_ok=closure,
        witness=witness,
    )


@dataclass(frozen=True)
class JoinDecompositionReport:
    seed: str
    trace: tuple[tuple[frozenset[str], ...], ...]
    members: tuple[frozenset[str], ...]
    trivial: bool


def j_sequence(
    dg: DefiningGraph, seed: str = SQUARES, cap: int = JOIN_ENUM_CAP
) -> JoinDecompositionReport:
    """Iterate the canonical decomposition to its fixed point.

    Each step groups the current members by non-complete intersections and
    replaces every connected group by the closure of its union.
    """
    if seed == SQUARES:
        current = sorted({frozenset(q) for q in dg.induced_squares()}, key=sorted)
    elif seed == LARGE_JOINS:
        current = sorted(set(maximal_large_joins(dg, cap)), key=sorted)
    else:
        raise GraphInputError(f"unknown seed {seed!r}")
    trace = [tuple(current)]
    while True:
        uf = UnionFind(len(current))
        for i, j in itertools.combinations(range(len(current)), 2):
            if not dg.is_complete_set(current[i] & current[j]):
                uf.union(i, j)
        groups: dict[int, frozenset[str]] = {}
        for i, member in enumerate(current):
            root = uf.find(i)
            groups[root] = groups.get(root, frozenset()) | member
        nxt = sorted({cp_closure(dg, group) for group in groups.values()}, key=sorted)
        if nxt == current:
            break
        current = nxt
        trace.append(tuple(current))
    if current:
        verdict = validate_decomposition(dg, current, cap)
        if not verdict.ok:
            raise ConsistencyError(
                f"fixed point is not a join decomposition: {verdict.witness}"
            )
    members = tuple(current)
    return JoinDecompositionReport(
        seed=seed,
        trace=tuple(trace),
        members=members,
        trivial=members == (frozenset(dg.vertices),),
    )


def j_infinity(
    dg: DefiningGraph, seed: str = SQUARES, cap: int = JOIN_ENUM_CAP
) -> tuple[frozenset[str], ...]:
    return j_sequence(dg, seed, cap).members


# -- generator verdicts and the relative-hyperbolicity report --------------------------


@dataclass(frozen=True)
class GeneratorVerdicts:
    contracting: tuple[tuple[str, bool], ...]
    square_vertices: frozenset[str]
    star_peripherals: tuple[frozenset[str], ...]
    join_peripherals: tuple[frozenset[str], ...]


def contracting_generators(
    dg: DefiningGraph, cap: int = JOIN_ENUM_CAP
) -> GeneratorVerdicts:
    """A generator's wall is contracting exactly when the generator avoids
    every induced square; also reports both weak peripheral collections."""
    sq = dg.square_vertices()
    return GeneratorVerdicts(
        contracting=tuple((v, v not in sq) for v in dg.vertices),
        square_vertices=sq,
        star_peripherals=tuple(sorted({dg.star(u) for u in sq}, key=sorted)),
        join_peripherals=maximal_large_joins(dg, cap),
    )


@dataclass(frozen=True)
class RelHypReport:
    relatively_hyperbolic: bool
    peripherals: tuple[frozenset[str], ...]
    decomposition: JoinDecompositionReport
    meaning: str


def relhyp_report(
    dg: DefiningGraph, seed: str = SQUARES, cap: int = JOIN_ENUM_CAP
) -> RelHypReport:
    rep = j_sequence(dg, seed, cap)
    rh = not rep.trivial
    if rh and rep.members:
        meaning = (
            "the group splits as hyperbolic relative to the special subgroups "
            "generated by the listed vertex sets"
        )
    elif rh:
        meaning = "no flat obstruction survives the iteration; the group is hyperbolic"
    else:
        meaning = (
            "the iteration ends at the whole graph, so no proper peripheral "
            "structure of this kind exists"
        )
    return RelHypReport(
        relatively_hyperbolic=rh,
        peripherals=rep.members,
        decomposition=rep,
        meaning=meaning,
    )
