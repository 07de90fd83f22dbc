"""Right-angled Coxeter groups presented by a finite defining graph.

Vertices are involutive generators and edges are commutation relations.
This module solves the word problem by one rewriting step per letter on a
shortlex normal form, builds Cayley balls as graphs, computes their walls
and crossings exactly from the Tits representation, classifies contracting
generators, and iterates the canonical join decomposition that decides
relative hyperbolicity.  The join layer works on int bitmasks of generator
ranks, one link mask per generator.  The maximal large joins come from the
closed join sides, the intersections of generator links, built one link at
a time.  Only balls and their walls load numpy and the median layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    LARGE_JOINS,
    SQUARES,
    ConsistencyError,
    GraphInputError,
    SizeCapError,
    UnionFind,
)

if TYPE_CHECKING:  # numpy and the median layer load only for balls
    import numpy as np

    from .median import MedianGraph, WallSystem

BALL_VERTEX_CAP = 20000
# closed join sides (intersections of generator links) in maximal_large_joins,
# which only the `large_joins` seed and contracting_generators call: n
# generators have at most 2^n, so every graph on 14 fits, as does K_{2x14}
JOIN_ENUM_CAP = 1 << 14
# Tits matrices and roots whose entries pass this are refused: it keeps
# R @ B @ R.T (at most k^2 * bound^2) and one more layer inside int64 for
# every rank whose matrices fit in memory
TITS_ENTRY_CAP = 1 << 20


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
        for a, b in edges:
            a, b = str(a), str(b)
            for x in (a, b):
                if x not in self.rank:
                    raise GraphInputError(
                        f"edge endpoint {x!r} is not a declared generator"
                    )
            if a == b:
                raise GraphInputError(f"loop at generator {a!r}")
            if b in self.adj[a]:
                raise GraphInputError(f"duplicate edge {a!r} -- {b!r}")
            self.adj[a].add(b)
            self.adj[b].add(a)
        self._links = [self._mask(self.adj[v]) for v in self.vertices]  # link masks

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

    def _mask(self, vs) -> int:
        return sum(1 << self.rank[self._check(v)] for v in set(vs))

    def _names(self, m: int) -> frozenset[str]:
        return frozenset(self.vertices[i] for i in _bits(m))

    def link(self, v: str) -> frozenset[str]:
        return frozenset(self.adj[self._check(v)])

    def star(self, v: str) -> frozenset[str]:
        return self.link(v) | {v}

    def is_complete_set(self, vs) -> bool:
        """Empty sets and singletons count as complete."""
        return _complete(self._links, self._mask(vs))

    def induced_squares(self) -> list[tuple[str, ...]]:
        """Induced 4-cycles in rank order, each as its sorted generators."""
        return [tuple(self.vertices[i] for i in _bits(q)) for q in self._square_masks()]

    def _square_masks(self) -> list[int]:
        """Induced 4-cycles as generator masks, in the order of
        ``induced_squares``.  The square a-b-c-d with lowest generator a is
        found once, from its diagonal a, c: b < d are non-adjacent common
        neighbours of a and c above a."""
        links, full, out = self._links, (1 << len(self.vertices)) - 1, []
        for a, link in enumerate(links):
            for c in _bits(full & ~link & -(2 << a)):
                common = link & links[c] & -(2 << a)
                for b in _bits(common):
                    for d in _bits(common & ~links[b] & -(2 << b)):
                        out.append(tuple(sorted((a, b, c, d))))
        return [sum(1 << i for i in q) for q in sorted(out)]

    def square_vertices(self) -> frozenset[str]:
        return frozenset(v for quad in self.induced_squares() for v in quad)


def _bits(s: int):
    """Indices of the set bits of s, lowest first."""
    while s:
        yield (s & -s).bit_length() - 1
        s &= s - 1


def _complete(links: list[int], s: int) -> bool:
    """Whether mask s spans a complete subgraph; true for the empty set."""
    return all(s & ~links[i] == 1 << i for i in _bits(s))


# -- word problem ----------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    letters: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(self.letters) if self.letters else "e"


def _step(links: list[int], form: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The shortlex normal form of form * v, for a normal form of ranks.

    Scanning back from the end past the letters that commute with v either
    stops on v, a right descent that cancels (Tits' deletion condition), or
    on a letter v must stay after; v then goes before the first later
    letter of higher rank, which keeps the word the lexicographically least
    of its commutation class (Anisimov & Knuth, "Inhomogeneous sorting",
    1979).
    """
    i, link = len(form), links[v]
    while i and form[i - 1] != v and link >> form[i - 1] & 1:
        i -= 1
    if i and form[i - 1] == v:
        return form[: i - 1] + form[i:]
    while i < len(form) and form[i] < v:
        i += 1
    return form[:i] + (v,) + form[i:]


def normal_form(dg: DefiningGraph, word) -> NormalForm:
    form: tuple[int, ...] = ()
    for v in word:
        form = _step(dg._links, form, dg.rank[dg._check(v)])
    return NormalForm(tuple(dg.vertices[i] for i in form))


def words_equal(dg: DefiningGraph, u, w) -> bool:
    return normal_form(dg, u) == normal_form(dg, w)


# -- Cayley balls ------------------------------------------------------------------


@dataclass
class RacgBall:
    graph: MedianGraph
    radius: int
    forms: dict[str, tuple[str, ...]]
    identity: str
    separator: str
    edge_letter: dict[tuple[str, str], str]


def _separator_for(dg: DefiningGraph) -> str:
    for sep in (".", "|", "/", "~", ":"):
        if not any(sep in v for v in dg.vertices):
            return sep
    raise GraphInputError("generator names leave no free separator character")


def ball(dg: DefiningGraph, r: int) -> RacgBall:
    """The radius-r ball of the Cayley graph, on shortlex normal forms listed
    by length and then shortlex, so each edge goes up from its lower index."""
    from .median import MedianGraph

    if r < 0:
        raise GraphInputError("radius must be >= 0")
    sep = _separator_for(dg)
    # the fallback is longer than every generator and has no separator
    free = (c for c in ("e", "1", "id", "eps", "<identity>") if c not in dg.rank)
    ident = next(free, "e" * (1 + max(map(len, dg.vertices))))

    names, links = dg.vertices, dg._links
    ids = {(): ident}  # normal form, as ranks -> vertex id
    frontier, edges, edge_letter = [()], [], {}
    for ln in range(r):
        nxt = []
        for f in frontier:
            a = ids[f]
            for v, name in enumerate(names):
                g = _step(links, f, v)
                if len(g) < len(f):  # v is a descent of f
                    continue
                c = ids.get(g)
                if c is None:
                    c = ids[g] = sep.join(names[i] for i in g)
                    nxt.append(g)
                    if len(ids) > BALL_VERTEX_CAP:
                        raise SizeCapError(
                            f"ball exceeds the {BALL_VERTEX_CAP}-vertex cap "
                            f"at radius {ln + 1}"
                        )
                edges.append((a, c))
                edge_letter[(min(a, c), max(a, c))] = name
        frontier = nxt
    ordered = sorted(ids, key=lambda t: (len(t), t))
    return RacgBall(
        graph=MedianGraph([ids[t] for t in ordered], edges),
        radius=r,
        forms={ids[t]: tuple(names[i] for i in t) for t in ordered},
        identity=ident,
        separator=sep,
        edge_letter=edge_letter,
    )


# -- walls from the Tits representation ----------------------------------------------


@dataclass
class BallWalls:
    ball: RacgBall
    system: WallSystem
    reflections: tuple[tuple[str, ...], ...]
    dual_edges: tuple[tuple[tuple[str, str], ...], ...]
    roots: np.ndarray

    def generator_wall(self, v: str) -> int:
        """Index of the wall dual to the identity edge of a generator."""
        try:
            return self.reflections.index((v,))
        except ValueError:
            raise GraphInputError(
                f"the identity edge of {v!r} is not inside the ball"
            ) from None


def ball_walls(dg: DefiningGraph, r: int) -> BallWalls:
    """Walls of the Cayley ball from the Tits representation.

    With the integral Tits form B (1 on the diagonal, 0 on the edges of the
    defining graph, -1 elsewhere), the generator v acts on Z^k by
    x -> x - 2 B(e_v, x) e_v, and g by the product M_g along any word.  The
    wall of an edge (g, gv) with |gv| > |g| has the positive root M_g e_v,
    so two edges lie on one wall iff their roots agree.  Two walls cross iff
    B(alpha, beta) = 0 for their roots: their reflections then generate a
    finite group, which fixes a point on both.  Every geodesic from the
    identity stays in the ball, so the walls separating it from y are those
    of y's parent plus the wall of the edge between them.  Walls are listed
    by their first edge, each with its reflection word, its edges, its root
    (a row of `roots`, in the basis of the generators) and its sides (True
    on the identity's side).  All of it is exact.
    """
    import numpy as np

    from .median import _BLOCK_CELLS, WallSystem

    b = ball(dg, r)
    g, ids, rank, k = b.graph, b.graph.ids, dg.rank, len(dg.vertices)
    B = np.full((k, k), -1, dtype=np.int64)
    for a, nbrs in dg.adj.items():
        B[rank[a], [rank[x] for x in nbrs]] = 0
    np.fill_diagonal(B, 1)
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    letter = np.array(
        [rank[b.edge_letter[min(u, w), max(u, w)]]
         for u, w in ((ids[i], ids[j]) for i, j in g.edges)],
        dtype=np.intp,
    )
    # vertex indices grow with length, so the short end of an edge is its
    # first one; tree[y] is one edge into y, from its parent
    tree = np.zeros(g.n, dtype=np.intp)
    tree[ends[:, 1]] = np.arange(len(ends))
    layer = np.searchsorted([len(b.forms[i]) for i in ids], np.arange(r + 2))
    first_out = np.searchsorted(ends[:, 0], layer)
    roots = np.empty((len(ends), k), dtype=np.int64)
    M = np.eye(k, dtype=np.int64)[None]  # M_g for the vertices of one layer
    for ln in range(r):
        lo, out = layer[ln], slice(first_out[ln], first_out[ln + 1])
        roots[out] = M[ends[out, 0] - lo, :, letter[out]]
        ys = np.arange(layer[ln + 1], layer[ln + 2])
        if ln + 1 == r or not len(ys):  # no edge leaves the last layer
            break
        P, v = M[ends[tree[ys], 0] - lo], letter[tree[ys]]
        M = P - 2 * P[np.arange(len(ys)), :, v][:, :, None] * B[v][:, None, :]
        if (top := int(np.abs(M).max())) > TITS_ENTRY_CAP:
            raise SizeCapError(
                f"Tits matrix entry {top} at radius {ln + 1} passes the "
                f"int64-safe bound {TITS_ENTRY_CAP}"
            )
    if (roots < 0).any():
        raise ConsistencyError("an edge root of the Cayley ball is not positive")
    index: dict[bytes, int] = {}  # root -> wall, numbered by first edge
    wall = np.array(
        [index.setdefault(x.tobytes(), len(index)) for x in roots], dtype=np.intp
    )
    first = np.unique(wall, return_index=True)[1]
    h = len(first)
    dual: list[list[tuple[str, str]]] = [[] for _ in range(h)]
    for (i, j), w in zip(g.edges, wall.tolist()):
        dual[w].append((ids[i], ids[j]))
    reflections = []
    for e in first:  # the reflection word g v g^-1, from g's normal form
        refl = word = tuple(rank[x] for x in b.forms[ids[ends[e, 0]]])
        for v in (int(letter[e]), *word[::-1]):
            refl = _step(dg._links, refl, v)
        reflections.append(tuple(dg.vertices[i] for i in refl))
    crossed = np.zeros((g.n, h), dtype=bool)
    for ln in range(1, r + 1):
        ys = np.arange(layer[ln], layer[ln + 1])
        crossed[ys] = crossed[ends[tree[ys], 0]]
        crossed[ys, wall[tree[ys]]] = True
    wroots = roots[first]
    RB = wroots @ B
    trans = np.empty((h, h), dtype=bool)
    step = max(1, _BLOCK_CELLS // max(h, 1))
    for i in range(0, h, step):
        trans[i : i + step] = RB[i : i + step] @ wroots.T == 0
    return BallWalls(
        ball=b,
        system=WallSystem(~crossed.T, trans),
        reflections=tuple(reflections),
        dual_edges=tuple(tuple(d) for d in dual),
        roots=wroots,
    )


# -- joins and the canonical decomposition ---------------------------------------------


def maximal_large_joins(dg: DefiningGraph) -> tuple[frozenset[str], ...]:
    """Vertex sets of the inclusion-maximal large joins.

    A join A * B is large when neither side is complete.  With N(S) the
    common neighbours of S (N of the empty set is every generator), every
    join lies in the join of a closed pair a = N(b), b = N(a), and the closed
    sides are exactly the intersections of vertex links (the closed sets of
    a Galois connection; Ganter & Wille, Formal Concept Analysis, 1999).
    They are built one link at a time, at most JOIN_ENUM_CAP of them.
    """
    links, n = dg._links, len(dg.vertices)
    sides = {(1 << n) - 1}
    for v, link in zip(dg.vertices, links):
        sides |= {s & link for s in sides}
        if len(sides) > JOIN_ENUM_CAP:
            raise SizeCapError(
                f"join enumeration passes JOIN_ENUM_CAP = {JOIN_ENUM_CAP} closed "
                f"sides (intersections of generator links) at generator {v!r}"
            )
    joins = set()
    for a in sides:
        b = sum(1 << i for i in range(n) if a & links[i] == a)
        if not _complete(links, a) and not _complete(links, b):
            joins.add(a | b)
    maximal = []
    for s in sorted(joins, key=int.bit_count, reverse=True):
        if all(s & t != s for t in maximal):
            maximal.append(s)
    return tuple(sorted(map(dg._names, maximal), key=sorted))


def _closure(links: list[int], s: int) -> int:
    """Mask s with every generator whose link meets s non-completely."""
    return s | sum(1 << v for v, ln in enumerate(links) if not _complete(links, ln & s))


def cp_closure(dg: DefiningGraph, subset) -> frozenset[str]:
    """One application of the closure rule: add every vertex whose link meets
    the set in a non-complete subgraph."""
    return dg._names(_closure(dg._links, dg._mask(subset)))


@dataclass(frozen=True)
class DecompositionVerdict:
    ok: bool
    join_cover_ok: bool
    intersections_ok: bool
    closure_ok: bool
    witness: str | None


def validate_decomposition(dg: DefiningGraph, members) -> DecompositionVerdict:
    """Check the three join-decomposition conditions independently.

    Cover (every large join lies in a member) is checked on the induced
    squares, which are large joins; for closed members that is the same.
    Take a large join A * B, non-adjacent a1, a2 in A and b1, b2 in B, and a
    member m holding the square a1 b1 a2 b2.  Every a in A has b1, b2 in its
    link and every b in B has a1, a2, so closure puts A * B in m.  So `ok`
    is as if checked on all large joins; `join_cover_ok` may differ only
    where `closure_ok` fails.
    """
    return _decomposition_verdict(dg, members, dg._square_masks())


def _decomposition_verdict(dg: DefiningGraph, members, squares) -> DecompositionVerdict:
    """`validate_decomposition` with the induced squares already listed, as
    masks."""
    verts, links = dg.vertices, dg._links
    mem = [dg._mask(m) for m in members]
    miss = [q for q in squares if all(q & ~m for m in mem)]
    meet = [
        (a, b) for a, b in itertools.combinations(mem, 2) if not _complete(links, a & b)
    ]
    out = [(m, x) for m in mem if (x := _closure(links, m) & ~m)]
    witness = None
    if miss:
        witness = f"large join {sorted(dg._names(miss[0]))} (a square) is in no member"
    elif meet:
        a, b = (sorted(dg._names(m)) for m in meet[0])
        witness = f"members {a} and {b} have a non-complete intersection"
    elif out:
        v, m = verts[next(_bits(out[0][1]))], sorted(dg._names(out[0][0]))
        witness = f"vertex {v!r}, missing from {m}, has a non-complete link in it"
    return DecompositionVerdict(
        not (miss or meet or out), not miss, not meet, not out, witness
    )


@dataclass(frozen=True)
class JoinDecompositionReport:
    seed: str
    trace: tuple[tuple[frozenset[str], ...], ...]
    members: tuple[frozenset[str], ...]
    trivial: bool


def j_sequence(dg: DefiningGraph, seed: str = SQUARES) -> JoinDecompositionReport:
    """Iterate the canonical decomposition to its fixed point.

    Each step groups the current members by non-complete intersections and
    replaces every connected group by the closure of its union.  Two members
    meet in a non-complete set iff both hold some non-adjacent pair, so a
    union-find joins each member to the first one that holds the same pair.
    """
    links, squares = dg._links, None
    if seed == SQUARES:
        squares = dg._square_masks()
        named = sorted(((dg._names(q), q) for q in squares), key=lambda t: sorted(t[0]))
        current, masks = [t[0] for t in named], [t[1] for t in named]
    elif seed == LARGE_JOINS:
        current = list(maximal_large_joins(dg))  # sorted by sorted names
        masks = list(map(dg._mask, current))
    else:
        raise GraphInputError(f"unknown seed {seed!r}")
    trace = [current]
    while True:
        uf, owner = UnionFind(len(masks)), {}  # owner: a member holding a non-edge
        for i, m in enumerate(masks):
            for u in _bits(m):
                for v in _bits(m & ~links[u] & -(2 << u)):
                    uf.union(owner.setdefault((u, v), i), i)
        groups: dict[int, int] = {}
        for i, m in enumerate(masks):
            groups[uf.find(i)] = groups.get(uf.find(i), 0) | m
        closed = {_closure(links, g) for g in groups.values()}
        if closed == set(masks):
            break
        # each member is named once, for the trace and the report
        named = sorted(((dg._names(m), m) for m in closed), key=lambda t: sorted(t[0]))
        current, masks = [t[0] for t in named], [t[1] for t in named]
        trace.append(current)
    if current:
        if squares is None:
            squares = dg._square_masks()
        verdict = _decomposition_verdict(dg, current, squares)
        if not verdict.ok:
            raise ConsistencyError(
                f"fixed point is not a join decomposition: {verdict.witness}"
            )
    return JoinDecompositionReport(
        seed=seed,
        trace=tuple(map(tuple, trace)),
        members=tuple(current),
        trivial=current == [frozenset(dg.vertices)],
    )


def j_infinity(dg: DefiningGraph, seed: str = SQUARES) -> tuple[frozenset[str], ...]:
    return j_sequence(dg, seed).members


# -- generator verdicts and the relative-hyperbolicity report --------------------------


@dataclass(frozen=True)
class GeneratorVerdicts:
    contracting: tuple[tuple[str, bool], ...]
    square_vertices: frozenset[str]
    star_peripherals: tuple[frozenset[str], ...]
    join_peripherals: tuple[frozenset[str], ...]


def contracting_generators(dg: DefiningGraph) -> GeneratorVerdicts:
    """A generator's wall is contracting exactly when the generator avoids
    every induced square; also reports both weak peripheral collections."""
    sq = dg.square_vertices()
    return GeneratorVerdicts(
        contracting=tuple((v, v not in sq) for v in dg.vertices),
        square_vertices=sq,
        star_peripherals=tuple(sorted({dg.star(u) for u in sq}, key=sorted)),
        join_peripherals=maximal_large_joins(dg),
    )


@dataclass(frozen=True)
class RelHypReport:
    relatively_hyperbolic: bool
    peripherals: tuple[frozenset[str], ...]
    decomposition: JoinDecompositionReport
    meaning: str


def relhyp_report(dg: DefiningGraph, seed: str = SQUARES) -> RelHypReport:
    rep = j_sequence(dg, seed)
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
