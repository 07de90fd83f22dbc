"""Hyperbolicity diagnostics for median graphs and their cone-offs.

Grids of hyperplanes, flat rectangles, the four-point constant, bigon
thinness, cone-off constructions, contracting hyperplanes and fineness
certificates.  Everything here is exact unless a search cap is hit, in
which case the result is flagged as a lower bound.

One chain search grows chains of hyperplanes for both grid questions.
`grid_search` reads Pareto sizes off it; `walls_in_grids` marks, in one
pass, every hyperplane of an (n,n)-grid, using that a hyperplane lies in
one iff it lies in an n-chain crossed by some n-chain, and `contracting`
decides every hyperplane from that one pass.  Chains come from the
halfspace inclusion order (see `WallSystem`): walls that do not cross nest,
side c of k lying in side a of j iff it misses side 1 - a of j, by the
empty quadrant of median hyperplanes, the exact Tits crossing table of
Coxeter ball walls and Wise's rule for polygonal walls.

The four-point constant scans only far-apart pairs (Cohen, Coudert &
Lancin, ACM JEA 20, 2015), by decreasing distance, and stops once the
distance is no more than the best defect or 1.  Bigon thinness visits
pairs by decreasing distance and stops once floor(d / 2) is no more than
the best gap; trees return 0 without a scan.  Both bigon rules need the
measure to be at most the graph distance; other measures get the full
scan.  Any bigon scan stops once the best gap reaches the largest measure.
Both are exact only: past `DELTA_SIZE_LIMIT` vertices they refuse, and δ
has no sampled mode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    APEX,
    CLIQUE,
    EXACT,
    GRID_NODE_CAP,
    L1,
    LOWER_BOUND,
    RECT_STATE_CAP,
    ConsistencyError,
    GraphInputError,
    SizeCapError,
    ValidationError,
)
from .median import MedianGraph, WallSystem

# exact delta and bigon scans: pruned, grids and Q8 in l1 take under 0.1 s
# at this size, but Q8 bigons in linf, which pruning cannot cut, take 4 s at
# 256 vertices (measured table in CHANGES.md)
DELTA_SIZE_LIMIT = 400
CYCLE_COUNT_CAP = 10**6


# -- grids ----------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    verticals: tuple[int, ...]
    horizontals: tuple[int, ...]


@dataclass(frozen=True)
class GridReport:
    pareto: tuple[tuple[int, int], ...]  # (p, q) with p >= q
    witnesses: tuple[Grid, ...]
    thinness: int
    method: str
    nodes: int


def verify_grid(ws: WallSystem, grid: Grid) -> None:
    """Re-check every grid invariant from scratch; raises on any failure."""
    vs, hs = grid.verticals, grid.horizontals
    if not vs or not hs:
        raise ConsistencyError("a grid needs two nonempty families")
    for a in vs:
        for b in hs:
            if not ws.transverse[a, b]:
                raise ConsistencyError(
                    f"grid walls {a} and {b} are not transverse"
                )
    for fam in (vs, hs):
        for i, t in itertools.combinations(range(len(fam)), 2):
            if ws.transverse[fam[i], fam[t]]:
                raise ConsistencyError("chain members must be pairwise disjoint")
        for i in range(1, len(fam) - 1):
            before = ws.wall_side(fam[i - 1], fam[i])
            after = ws.wall_side(fam[i + 1], fam[i])
            if before is None or after is None or before == after:
                raise ConsistencyError(
                    f"wall {fam[i]} does not separate its chain neighbours"
                )


def _chain_search(ws: WallSystem, visit, cap: int, need: int = 1) -> tuple[int, bool]:
    """Depth-first search over the chains of ws: (nodes, exact).

    Chains grow from the empty chain by walls of increasing index, so each
    is met once.  The first wall picks its side 0 and each later one its
    halfspace comparable with all picks.  Walls that do not cross nest
    (side c of k lies in side a of j iff it misses side 1 - a of j), by the
    empty quadrant of median hyperplanes, the Tits crossing table of ball
    walls and Wise's rule for polygonal walls (see `WallSystem`).  The
    search carries the AND of the picks' comparable rows: a wall may extend
    the chain iff it has a halfspace there and lies above the last index.
    A chain whose crossing walls (those transverse to all its members) hold
    no chain of `need` walls is cut, since its extensions are crossed by
    fewer.  At every other nonempty chain ``visit(chain, rep, cross, ext)``
    gets the chain, the pair it separates, the longest chain crossing it
    and the mask of walls that may extend it, and returns whether to
    descend.  The search stops at `cap` nodes and is then not exact.
    """
    nodes = 0
    h, full = ws.h, (1 << ws.h) - 1
    comparable = ws._nesting()[1]
    crossing: dict[int, tuple] = {}

    def dfs(picks, common, tmask, last):
        nonlocal nodes
        if nodes >= cap:
            return False
        nodes += 1
        if picks:
            if tmask not in crossing:
                crossing[tmask] = ws.longest_chain(tmask)
            qlen, cross, _ = crossing[tmask]
            if qlen < need:
                return True
        ext = (common | common >> h) & full & -(1 << (last + 1))
        if picks and not visit(tuple(H % h for H in picks), ws._pair_of(picks), cross, ext):
            return True
        rest = ext
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            pick = j if common >> j & 1 else j + h
            if not dfs(picks + (pick,), common & comparable[pick], tmask & ws._trans_int[j], j):
                return False
        return True

    try:
        exact = dfs((), (1 << 2 * h) - 1, full, -1) if h else True
    finally:
        # dfs refers to itself, a cycle that would keep ws alive until the
        # cycle collector runs
        del dfs
    return nodes, exact


def grid_search(ws: WallSystem, cap: int = GRID_NODE_CAP) -> GridReport:
    """Pareto-maximal grid sizes with witnesses, by chain search.

    For each chain the best crossing chain is found among the walls
    transverse to all of its members.
    """
    table: dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]] = {}

    def maxq_from(p: int) -> int:
        return max((val[0] for pp, val in table.items() if pp >= p), default=0)

    def visit(chain, rep, cross, ext):
        p, qlen = len(chain), len(cross)
        cur = table.get(p)
        if cur is None or qlen > cur[0]:
            table[p] = (qlen, ws.order_chain(chain, rep), cross)
        return not all(maxq_from(p + k) >= qlen for k in range(1, ext.bit_count() + 1))

    nodes, exact = _chain_search(ws, visit, cap)
    norm: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for p, (q, chain, cross) in table.items():
        if p < q:
            p, q, chain, cross = q, p, cross, chain
        norm.setdefault((p, q), (chain, cross))
    keys = [
        k
        for k in norm
        if not any(k2 != k and k2[0] >= k[0] and k2[1] >= k[1] for k2 in norm)
    ]
    keys.sort(reverse=True)
    witnesses = []
    for p, q in keys:
        chain, cross = norm[(p, q)]
        grid = Grid(verticals=chain, horizontals=cross)
        verify_grid(ws, grid)
        witnesses.append(grid)
    thinness = max((q for _, q in keys), default=0)
    return GridReport(
        pareto=tuple(keys),
        witnesses=tuple(witnesses),
        thinness=thinness,
        method=EXACT if exact else LOWER_BOUND,
        nodes=nodes,
    )


def max_grid(g: MedianGraph, cap: int = GRID_NODE_CAP) -> GridReport:
    return grid_search(g.wall_system, cap)


def walls_in_grids(ws: WallSystem, n: int) -> tuple[frozenset[int], bool]:
    """The walls that lie in some (n,n)-grid, and whether the search was exact.

    Grids are symmetric and any n walls of a chain are a chain, so a wall
    lies in an (n,n)-grid iff it lies in an n-chain crossed by some n-chain.
    One chain search over chains of at most n walls finds such chains and
    marks each with its longest crossing chain, once `verify_grid` accepts
    them.  A branch is cut when the walls crossing its chain hold no
    n-chain, when it cannot reach n walls, or when its chain and extension
    mask hold no unmarked wall.  Past `GRID_NODE_CAP` nodes the walls left
    unmarked are only not known to lie in a grid.
    """
    if n < 1:
        raise GraphInputError("grid size must be >= 1")
    marked = 0

    def visit(chain, rep, cross, ext):
        nonlocal marked
        if len(chain) == n:
            verify_grid(ws, Grid(verticals=ws.order_chain(chain, rep), horizontals=cross))
            for j in chain + cross:
                marked |= 1 << j
            return False
        for j in chain:
            ext |= 1 << j
        return ext.bit_count() >= n and bool(ext & ~marked)

    _, exact = _chain_search(ws, visit, GRID_NODE_CAP, n)
    return frozenset(j for j in range(ws.h) if (marked >> j) & 1), exact


# -- flat rectangles -------------------------------------------------------------


@dataclass(frozen=True)
class FlatRectangle:
    a: int
    b: int
    embedding: tuple[tuple[str, ...], ...]  # embedding[i][j] = vertex at (i, j)

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(v for col in self.embedding for v in col)


@dataclass(frozen=True)
class RectangleReport:
    """Pareto-maximal flat rectangle sizes; ``best`` is the thickest one.

    ``states`` is the number of distinct separation masks examined, at most
    the cap; the result is exact when every mask was seen.
    """

    thickness: int
    best: FlatRectangle | None
    pareto: tuple[tuple[int, int], ...]  # (a, b) with a <= b
    method: str
    states: int


def verify_flat_rectangle(g: MedianGraph, rect: FlatRectangle) -> None:
    """Full isometric-embedding re-check of a rectangle witness: every pair
    of cells must be as far apart in g as in the a-by-b grid."""
    d = g.dist
    idx = np.array(
        [[g.index[v] for v in col] for col in rect.embedding], dtype=np.intp
    ).reshape(rect.a + 1, rect.b + 1)
    jj = np.arange(rect.b + 1)
    ii = np.arange(rect.a + 1)
    for i in range(rect.a + 1):
        # cells of column i against every cell, one block per column
        want = np.abs(i - ii)[None, :, None] + np.abs(jj[:, None] - jj)[:, None, :]
        bad = np.argwhere(d[np.ix_(idx[i], idx.ravel())].reshape(want.shape) != want)
        if len(bad):
            j1, i2, j2 = (int(t) for t in bad[0])
            raise ConsistencyError(
                f"embedding is not isometric at cells {(i, j1)} and {(i2, j2)}"
            )


def _split_components(ws: WallSystem, mask: int, memo: dict[int, int]) -> list[int]:
    """Components of the non-transverse graph on the walls of `mask`.

    Each component grows by whole BFS levels; the walls disjoint from some
    wall of a level are an OR over the level, memoised in `memo` because
    products repeat the same levels across many masks.
    """
    dis = ws._disjoint_int
    comps = []
    rest = mask
    while rest:
        comp = level = rest & -rest
        rest ^= comp
        while level and rest:
            if level & (level - 1):
                reach = memo.get(level)
                if reach is None:
                    reach = 0
                    bits = level
                    while bits:
                        low = bits & -bits
                        reach |= dis[low.bit_length() - 1]
                        bits ^= low
                    memo[level] = reach
            else:
                reach = dis[level.bit_length() - 1]
            level = reach & rest
            rest ^= level
            comp |= level
        comps.append(comp)
    return comps


def _rectangle_witness(
    g: MedianGraph, mask: int, rep: tuple[int, int], a: int
) -> FlatRectangle:
    """The a-by-b rectangle with corner rep[0] spanned by a split of `mask`.

    A union of components of size a is one side A; each side is walked in
    order of halfspace size toward the corner, so cell (i, j) is the vertex
    whose halfspace column is the corner's with the first i walls of A and
    the first j walls of B flipped.
    """
    ws = g.wall_system
    reach = {0: 0}
    for comp in _split_components(ws, mask, {}):
        size = comp.bit_count()
        for t, side in list(reach.items()):
            reach.setdefault(t + size, side | comp)
    walls_a, walls_b = (
        [j for j in range(ws.h) if (m >> j) & 1]
        for m in (reach[a], mask & ~reach[a])
    )
    walls_a = ws.order_chain(walls_a, rep)
    walls_b = ws.order_chain(walls_b, rep)
    vertex = {col.tobytes(): v for v, col in enumerate(np.packbits(ws.sides, axis=0).T)}
    emb = []
    for i in range(len(walls_a) + 1):
        col = ws.sides[:, rep[0]].copy()
        col[list(walls_a[:i])] ^= True
        cells = []
        for j in range(len(walls_b) + 1):
            if j:
                col[walls_b[j - 1]] ^= True
            v = vertex.get(np.packbits(col).tobytes())
            if v is None:
                raise ConsistencyError(f"no vertex at rectangle cell {(i, j)}")
            cells.append(g.ids[v])
        emb.append(tuple(cells))
    return FlatRectangle(a=len(walls_a), b=len(walls_b), embedding=tuple(emb))


def max_thick_rectangle(g: MedianGraph, cap: int = RECT_STATE_CAP) -> RectangleReport:
    """Pareto-maximal flat rectangle sizes (a <= b) and a thickest witness.

    In a median graph an a-by-b flat rectangle with corners v, w exists iff
    the hyperplanes S(v, w) separating them split into sides of sizes a and
    b with every hyperplane of one side crossing every one of the other.
    Such sides are unions of components of the non-transverse graph on
    S(v, w), so one subset sum over component sizes per distinct
    separation mask gives every size, with no search.  ``states`` counts
    the masks examined; past `cap` masks the result is a lower bound from
    the masks seen.
    """
    g.require_median()
    ws = g.wall_system
    sizes: dict[tuple[int, int], tuple[int, tuple[int, int]]] = {}
    memo: dict[int, int] = {}
    states = 0
    exact = True
    # without two crossing hyperplanes no mask splits, so none need be read
    for mask, rep in ws.iter_pairs() if ws.transverse.any() else ():
        if states >= cap:
            exact = False
            break
        states += 1
        comps = _split_components(ws, mask, memo)
        if len(comps) < 2:
            continue
        reach = 1
        for comp in comps:
            reach |= reach << comp.bit_count()
        k = mask.bit_count()
        # achievable smaller sides: the subset sums 1 .. k // 2
        reach &= (2 << (k // 2)) - 2
        while reach:
            low = reach & -reach
            a = low.bit_length() - 1
            sizes.setdefault((a, k - a), (mask, rep))
            reach ^= low
    pareto = []
    for a, b in sorted(sizes, reverse=True):
        if not pareto or b > pareto[-1][1]:
            pareto.append((a, b))
    pareto.reverse()
    best = None
    if pareto:
        best = _rectangle_witness(g, *sizes[pareto[-1]], pareto[-1][0])
        verify_flat_rectangle(g, best)
    return RectangleReport(
        thickness=best.a if best is not None else 0,
        best=best,
        pareto=tuple(pareto),
        method=EXACT if exact else LOWER_BOUND,
        states=states,
    )


# -- four-point constant ----------------------------------------------------------


@dataclass(frozen=True)
class DeltaReport:
    value: Fraction
    witness: tuple[str, str, str, str] | None
    method: str


def _far_apart(d: np.ndarray) -> np.ndarray:
    """Far-apart mask of the metric d: (x, y) is far apart when no
    neighbour of x is farther from y and no neighbour of y is farther from x.

    Row x of ``reach`` is the max of d over the closed unit ball of x; d is
    1 exactly between neighbours, in g for l1 and in the cube cone-off for
    linf.
    """
    reach = np.array([d[ball].max(axis=0) for ball in d <= 1])
    near = reach <= d
    return near & near.T


def delta(g: MedianGraph, metric: str = L1) -> DeltaReport:
    """Four-point hyperbolicity constant: max over 4-tuples of the defect
    between the two largest pair sums, halved.  The size cap is checked
    before the metric table is built.

    The exact scan keeps to far-apart pairs (Cohen, Coudert & Lancin, On
    computing the Gromov hyperbolicity, ACM JEA 20, 2015): moving an end of
    a largest-sum pair to a farther neighbour never lowers the defect, so
    some optimal quadruple has both pairs of its largest sum far apart.
    Neighbours are taken in g for l1 and in the cube cone-off for linf.
    Far-apart pairs (x, y) are visited by decreasing distance, each against
    every far-apart (u, v) at once, and the scan stops once
    d(x, y) <= max(best, 1).  The second largest sum is at least
    max(d(x, y), d(u, v)) by the triangle inequality, so the defect is at
    most min(d(x, y), d(u, v)); a positive defect needs four distinct
    points, so every sum is at least 2 and pairs at distance 1 add nothing.
    """
    if g.n > DELTA_SIZE_LIMIT:
        raise SizeCapError(
            f"exact four-point scan is capped at {DELTA_SIZE_LIMIT} vertices "
            f"(got {g.n})"
        )
    d = g.dist_matrix(metric).astype(np.int64)
    us, vs = np.nonzero(np.triu(_far_apart(d), 1))
    duv = d[us, vs]
    best = 0
    arg = None
    for k in np.argsort(-duv, kind="stable").tolist():
        if duv[k] <= max(best, 1):
            break
        x, y = int(us[k]), int(vs[k])
        p1 = duv[k] + duv
        p2 = d[x, us] + d[y, vs]
        p3 = d[x, vs] + d[y, us]
        top = np.maximum(np.maximum(p1, p2), p3)
        bot = np.minimum(np.minimum(p1, p2), p3)
        gap = 2 * top - (p1 + p2 + p3 - bot)
        j = int(gap.argmax())
        if gap[j] > best:
            best = int(gap[j])
            arg = (x, y, int(us[j]), int(vs[j]))
    wit = tuple(g.ids[i] for i in arg) if arg is not None else None
    return DeltaReport(Fraction(best, 2), wit, EXACT)


# -- bigons -----------------------------------------------------------------------


@dataclass(frozen=True)
class BigonReport:
    value: int
    witness: tuple[str, str] | None
    method: str


def bigon_thinness(g: MedianGraph, metric: str = L1) -> BigonReport:
    """Thinness of geodesic bigons of g, measured in the chosen metric.

    Geodesics are always taken in g itself; LINF measures their divergence
    in the cube cone-off metric (g must be median for that).  The size cap
    is checked before the metric table is built.
    """
    _check_bigon_size(g)
    return bigon_thinness_in(g, g.dist_matrix(metric))


def _check_bigon_size(g: MedianGraph) -> None:
    if g.n > DELTA_SIZE_LIMIT:
        raise SizeCapError(
            f"bigon scan is capped at {DELTA_SIZE_LIMIT} vertices (got {g.n})"
        )


def bigon_thinness_in(g: MedianGraph, measure: np.ndarray) -> BigonReport:
    """Thinness of g's geodesic bigons measured in an external metric table
    (rows/columns aligned with g's vertex order).

    This is the max over endpoint pairs and geodesic bigons of the Hausdorff
    gap.  For fixed endpoints (x, y), F(v) = max over geodesics gamma from v
    to y of min over q in gamma of measure(p, q); a backwards DP over the
    geodesic DAG computes F for every interval basepoint p at once.

    When the measure is at most the graph distance, a point of a geodesic
    from x to y lies within floor(d(x, y) / 2) of x or y, which every bigon
    on (x, y) contains; pairs are then visited by decreasing distance and
    the scan stops once that bound is no more than the best gap.  A tree
    then has unique geodesics and thinness 0.  Other measures get the full
    scan of every pair.  Any scan stops once the best gap reaches the
    largest entry of the measure.
    """
    _check_bigon_size(g)
    if measure.shape != (g.n, g.n):
        raise GraphInputError("measure matrix shape does not match the graph")
    d = g.dist
    bounded = bool((measure <= d).all())
    if bounded and len(g.edges) == g.n - 1:
        return BigonReport(0, None, EXACT)
    xs, ys = np.triu_indices(g.n, 1)
    if bounded:
        order = np.argsort(-d[xs, ys], kind="stable")
        xs, ys = xs[order], ys[order]
    top = int(measure.max())
    best = 0
    wit = None
    for x, y in zip(xs.tolist(), ys.tolist()):
        if best >= top or bounded and d[x, y] // 2 <= best:
            break
        if d[x, y] <= 1:
            continue
        val = _bigon_gap(g, measure, x, y)
        if val > best:
            best = val
            wit = (g.ids[x], g.ids[y])
    return BigonReport(best, wit, EXACT)


def _bigon_gap(g: MedianGraph, measure: np.ndarray, x: int, y: int) -> int:
    """Largest gap of a geodesic bigon on (x, y), by the DP over the
    geodesic DAG of the interval from x to y."""
    d = g.dist
    adj = g.adj
    dx = d[x]
    ival = np.flatnonzero(dx + d[y] == dx[y])
    pos = {int(v): t for t, v in enumerate(ival)}
    M = measure[np.ix_(ival, ival)]
    order = sorted((int(v) for v in ival), key=lambda v: -int(dx[v]))
    F = {y: M[:, pos[y]]}
    for v in order[1:]:
        succ = [w for w in adj[v] if w in pos and dx[w] == dx[v] + 1]
        acc = F[succ[0]]
        for w in succ[1:]:
            acc = np.maximum(acc, F[w])
        F[v] = np.minimum(M[:, pos[v]], acc)
    return int(F[x].max())


# -- cone-offs ---------------------------------------------------------------------


class ConeOff:
    """Cone-off of a base graph over named convex subcomplexes."""

    def __init__(self, base, kind, members, graph):
        self.base = base
        self.kind = kind
        self.members = members
        self.graph = graph

    def __repr__(self):
        return (
            f"ConeOff({self.kind}, {len(self.members)} members, "
            f"{self.graph.n} vertices)"
        )

    def distance(self, x: str, y: str) -> int:
        ix, iy = self.graph.indices_of([x, y])
        return int(self.graph.dist[ix, iy])

    def diameter_of(self, vertex_ids) -> int:
        idx = self.graph.indices_of(list(vertex_ids))
        return int(self.graph.dist[np.ix_(idx, idx)].max())

    def base_distance_matrix(self) -> np.ndarray:
        idx = [self.graph.index[v] for v in self.base.ids]
        return self.graph.dist[np.ix_(idx, idx)]


def _named_members(base: MedianGraph, family) -> dict[str, frozenset[str]]:
    if isinstance(family, dict):
        items = list(family.items())
    else:
        items = [(f"member_{i}", verts) for i, verts in enumerate(family)]
    out: dict[str, frozenset[str]] = {}
    for name, verts in items:
        vs = frozenset(str(v) for v in verts)
        if not vs:
            raise ValidationError(f"cone-off member {name!r} is empty")
        try:
            base.indices_of(vs)
        except GraphInputError as exc:
            raise ValidationError(f"member {name!r}: {exc}") from exc
        out[str(name)] = vs
    return out


def _validated_members(base: MedianGraph, family) -> dict[str, frozenset[str]]:
    members = _named_members(base, family)
    for name, verts in members.items():
        try:
            verdict = base.is_convex(verts)
        except GraphInputError as exc:
            raise ValidationError(f"member {name!r}: {exc}") from exc
        if not verdict.ok:
            a, b, v = verdict.violation
            raise ValidationError(
                f"member {name!r} is not convex: vertex {v!r} lies on a "
                f"geodesic from {a!r} to {b!r} but outside the member"
            )
    return members


def _clique_graph(base: MedianGraph, members) -> MedianGraph:
    edges = {tuple(sorted((base.ids[u], base.ids[v]))) for u, v in base.edges}
    for verts in members.values():
        edges.update(itertools.combinations(sorted(verts), 2))
    return MedianGraph(base.ids, sorted(edges))


def _apex_graph(base: MedianGraph, members) -> MedianGraph:
    vertices = list(base.ids)
    edges = [(base.ids[u], base.ids[v]) for u, v in base.edges]
    for name in sorted(members):
        apex = f"apex:{name}"
        if apex in base.index:
            raise ValidationError(f"vertex id {apex!r} collides with an apex name")
        vertices.append(apex)
        edges.extend((apex, v) for v in sorted(members[name]))
    return MedianGraph(vertices, edges)


def _assert_sandwich(base, clique_graph, apex_graph):
    """dist_CLIQUE <= dist_APEX <= 2 dist_CLIQUE on every base pair; the
    base vertices come first in both graphs."""
    n = base.n
    dc = clique_graph.dist
    da = apex_graph.dist[:n, :n]
    bad = np.argwhere((da < dc) | (da > 2 * dc))
    if len(bad):
        i, j = bad[0].tolist()
        raise ConsistencyError(
            f"cone-off sandwich fails at ({base.ids[i]!r}, {base.ids[j]!r}): "
            f"clique {int(dc[i, j])}, apex {int(da[i, j])}"
        )


def cone_off(base: MedianGraph, family, kind: str = CLIQUE) -> ConeOff:
    """Cone-off over a family of convex subcomplexes.

    CLIQUE joins every vertex pair sharing a member; APEX adds one apex
    vertex per member.  Both graphs are built and the distance sandwich
    dist_CLIQUE <= dist_APEX <= 2 dist_CLIQUE is asserted on every pair of
    base vertices.
    """
    members = _validated_members(base, family)
    clique_graph = _clique_graph(base, members)
    apex_graph = _apex_graph(base, members)
    _assert_sandwich(base, clique_graph, apex_graph)
    if kind == CLIQUE:
        return ConeOff(base, CLIQUE, members, clique_graph)
    if kind == APEX:
        return ConeOff(base, APEX, members, apex_graph)
    raise GraphInputError(f"unknown cone-off kind {kind!r}")


# -- contracting hyperplanes --------------------------------------------------------


@dataclass(frozen=True)
class HyperplaneVerdict:
    index: int
    dimension: int
    grid_found: bool | None
    contracting: bool
    method: str


@dataclass(frozen=True)
class ContractingReport:
    n: int
    verdicts: tuple[HyperplaneVerdict, ...]
    coneoff: ConeOff


def hyperplane_carrier(g: MedianGraph, index: int) -> frozenset[str]:
    """Endpoints of the dual edges of a hyperplane."""
    h = g.hyperplanes()[index]
    return frozenset(v for e in h.dual_edges for v in e)


def contracting(g: MedianGraph, n: int) -> ContractingReport:
    """Classify each hyperplane as n-contracting or not, and build the
    cone-off over the carriers of the non-contracting ones.

    A hyperplane is n-contracting when its dimension is below n and no
    (n,n)-grid contains it; one `walls_in_grids` search decides every
    hyperplane.
    """
    if n < 1:
        raise GraphInputError("contracting level must be >= 1")
    in_grid, exact = walls_in_grids(g.wall_system, n)
    verdicts = []
    for h in g.hyperplanes():
        if h.dimension >= n:
            verdicts.append(
                HyperplaneVerdict(h.index, h.dimension, None, False, EXACT)
            )
            continue
        found = h.index in in_grid
        verdicts.append(
            HyperplaneVerdict(
                h.index,
                h.dimension,
                found,
                not found,
                EXACT if found or exact else LOWER_BOUND,
            )
        )
    members = {
        f"carrier_{v.index}": hyperplane_carrier(g, v.index)
        for v in verdicts
        if not v.contracting
    }
    return ContractingReport(
        n=n, verdicts=tuple(verdicts), coneoff=cone_off(g, members, CLIQUE)
    )


# -- fineness ------------------------------------------------------------------------


@dataclass(frozen=True)
class FinenessCertificate:
    multiplicity: int
    multiplicity_edge: tuple[str, str] | None
    common_crossings: int
    crossing_pair: tuple[str, str] | None


def fineness_certificate(base: MedianGraph, family) -> FinenessCertificate:
    """Per-edge member multiplicity and the max number of hyperplanes
    crossing two distinct members, with witnesses."""
    members = _validated_members(base, family)
    mult, medge = 0, None
    for u, v in base.edges:
        uid, vid = base.ids[u], base.ids[v]
        c = sum(1 for verts in members.values() if uid in verts and vid in verts)
        if c > mult:
            mult, medge = c, (uid, vid)
    crossings = {
        name: frozenset(base.crossing_hyperplanes(verts))
        for name, verts in members.items()
    }
    cbest, cpair = 0, None
    for n1, n2 in itertools.combinations(sorted(members), 2):
        k = len(crossings[n1] & crossings[n2])
        if cpair is None or k > cbest:
            cbest, cpair = k, (n1, n2)
    return FinenessCertificate(
        multiplicity=mult,
        multiplicity_edge=medge,
        common_crossings=cbest,
        crossing_pair=cpair,
    )


def cycle_probe(cone: ConeOff, edge: tuple[str, str], length: int) -> tuple[int, str]:
    """Count simple cycles of exactly `length` edges through a given edge.

    Each cycle is traced once (the traversal direction is fixed by the
    edge).  Hitting the count cap flags the result as a lower bound.
    """
    if not 3 <= length <= 8:
        raise GraphInputError("probe length must be between 3 and 8")
    gph = cone.graph
    ia, ib = gph.indices_of(list(edge))
    if ib not in gph.adj[ia]:
        raise GraphInputError(f"{edge!r} is not an edge of the cone-off")
    adj = gph.adj
    count = 0
    stack: list[tuple[int, tuple[int, ...]]] = [(ib, (ia, ib))]
    while stack:
        u, path = stack.pop()
        if len(path) == length:
            if ia in adj[u]:
                count += 1
                if count >= CYCLE_COUNT_CAP:
                    return count, LOWER_BOUND
            continue
        for w in adj[u]:
            if w not in path:
                stack.append((w, path + (w,)))
    return count, EXACT
