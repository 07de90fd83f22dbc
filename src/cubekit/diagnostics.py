"""Hyperbolicity diagnostics for median graphs and their cone-offs.

Grids of hyperplanes, flat rectangles, the four-point constant, bigon
thinness, cone-off constructions, contracting hyperplanes and fineness
certificates.  Everything here is exact unless a search cap is hit, in
which case the result is flagged as a lower bound; grids have no cap.

Both grid questions are read off one table over nested halfspace pairs.
A wall that crosses two nested walls crosses every wall between them
(Sageev's pocsets, Proc. LMS 71, 1995), so every grid's verticals run
between an innermost halfspace a and an outermost c, and its horizontals
are a chain among the walls crossing the walls of a and c.  The table
holds, for each pair a inside c, the longest chain from a up to c (a
longest path over the covers of the halfspace inclusion order) and the
longest chain crossing both.  `grid_search` reads Pareto sizes off it;
`walls_in_grids` marks every hyperplane of an (n,n)-grid, using that a
hyperplane lies in one iff it lies in an n-chain crossed by some n-chain,
and `contracting` decides every hyperplane from that one table.  The
inclusion order comes from `WallSystem`: walls that do not cross nest,
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

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    APEX,
    CLIQUE,
    EXACT,
    L1,
    LOWER_BOUND,
    RECT_STATE_CAP,
    ConsistencyError,
    GraphInputError,
    SizeCapError,
    ValidationError,
)
from .median import MedianGraph, WallSystem, _row_bits

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
    nodes: int  # nested wall pairs the grid table scored


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


class _NestedPairs:
    """The grid table of a wall system, by Sageev's pocset rule.

    Only walls whose crossing row holds an n-chain are kept.  That drops no
    vertical of a grid with n horizontals, nor any wall between two of its
    verticals, which crosses those horizontals too; so chains between two
    kept walls with n common crossing walls are as long as in ``ws``.
    Halfspace i < k is side 0 of kept wall
    ``walls[i]`` and i + k its side 1.  ``up[c, a]`` is the longest chain of
    halfspaces from a up to c (0 when a is not inside c).  ``q[x, y]`` is
    the longest chain crossing kept walls x and y, exact on the ``nodes``
    pairs with n walls from one up to the other and n walls crossing both,
    and below n elsewhere.
    """

    def __init__(self, ws: WallSystem, n: int):
        self.ws, self.crossing = ws, functools.cache(ws.longest_chain)
        h, trans = ws.h, ws._trans_int
        own = [self.crossing(row)[0] for row in trans]
        self.walls = walls = [j for j in range(h) if own[j] >= n]
        self.k = k = len(walls)
        halves = np.array(walls + [j + h for j in walls], dtype=np.intp)
        order = np.argsort(np.array(ws._size)[halves], kind="stable")
        # inclusion rows with bit t the t-th smallest kept halfspace, so the
        # top bit of a set is maximal in it
        cols, nbytes, below = halves[order], -(-2 * h // 8), ws._nesting()
        raw = b"".join(below[H].to_bytes(nbytes, "little") for H in cols.tolist())
        bits = np.frombuffer(raw, np.uint8).reshape(2 * k, nbytes)
        rows = _row_bits(np.unpackbits(bits, axis=1, count=2 * h, bitorder="little")[:, cols])
        # longest paths over the covers by rising size; the covers of c are
        # found by taking the largest halfspace left inside c and dropping
        # all inside it
        nat = order.tolist()
        self.covers = covers = [[] for _ in nat]
        self.up = up = np.zeros((2 * k, 2 * k), dtype=np.int16 if k < 1 << 15 else np.int32)
        for t, rest in enumerate(rows):
            c = nat[t]
            while rest:
                b = rest.bit_length() - 1
                covers[c].append(nat[b])
                rest &= ~(rows[b] | 1 << b)
            if covers[c]:
                col = up[covers[c]].max(axis=0)
                up[c] = col + (col > 0)
            up[c, c] = 1
        # from a side of x up to a side of y; symmetric by complements
        self.span = np.maximum(
            np.maximum(up[:k, :k], up[k:, :k]), np.maximum(up[:k, k:], up[k:, k:])
        ).T
        tk = ws.transverse[np.ix_(walls, walls)].astype(np.float32)
        common = tk @ tk
        scored = (self.span >= n) & (common >= n)
        self.nodes = int(np.count_nonzero(np.triu(scored)))
        self.q = q = scored.astype(up.dtype)
        q[np.diag_indices(k)] = [own[j] for j in walls]
        xs, ys = np.nonzero(np.triu(scored & (common >= 2), 1))
        for x, y in zip(xs.tolist(), ys.tolist()):
            q[x, y] = q[y, x] = self.crossing(trans[walls[x]] & trans[walls[y]])[0]

    def chain(self, a: int, c: int) -> list[int]:
        """The walls of a longest chain from halfspace a up to c, innermost
        first, traced back over the covers."""
        up, out = self.up, [c]
        while out[-1] != a:
            out.append(next(b for b in self.covers[out[-1]] if up[b, a] == up[out[-1], a] - 1))
        return [self.walls[i % self.k] for i in reversed(out)]

    def grid(self, a: int, c: int, verticals) -> Grid:
        """`verticals` crossed by the longest chain crossing the walls of
        halfspaces a and c, once `verify_grid` accepts it."""
        x, y = (self.ws._trans_int[self.walls[i % self.k]] for i in (a, c))
        grid = Grid(tuple(verticals), self.crossing(x & y)[1])
        verify_grid(self.ws, grid)
        return grid


def grid_search(ws: WallSystem) -> GridReport:
    """Pareto-maximal grid sizes with witnesses, from nested halfspace pairs.

    Every grid's verticals run from an innermost halfspace a up to an
    outermost c, and every wall crossing the walls of a and c crosses each
    wall between them (Sageev 1995).  So each Pareto size is a pair a inside
    c: p the longest chain from a up to c and q the longest chain crossing
    both, one `longest_chain` per distinct pair of crossing rows.  Each
    witness is re-checked by `verify_grid`.
    """
    t = _NestedPairs(ws, 1)
    norm: dict[tuple[int, int], Grid] = {}
    for q in np.unique(t.q[t.q > 0]).tolist():
        x, y = map(int, np.unravel_index(np.where(t.q == q, t.span, 0).argmax(), t.span.shape))
        p = int(t.span[x, y])
        a, c = next((a, c) for a in (x, x + t.k) for c in (y, y + t.k) if t.up[c, a] == p)
        grid = t.grid(a, c, t.chain(a, c))
        norm.setdefault((max(p, q), min(p, q)), grid if p >= q else Grid(grid.horizontals, grid.verticals))
    keys = sorted(
        (k for k in norm if not any(k2 != k and k2[0] >= k[0] and k2[1] >= k[1] for k2 in norm)),
        reverse=True,
    )
    return GridReport(
        pareto=tuple(keys),
        witnesses=tuple(norm[k] for k in keys),
        thinness=max((q for _, q in keys), default=0),
        method=EXACT,
        nodes=t.nodes,
    )


def max_grid(g: MedianGraph) -> GridReport:
    return grid_search(g.wall_system)


def walls_in_grids(ws: WallSystem, n: int) -> frozenset[int]:
    """The walls that lie in some (n,n)-grid, from nested halfspace pairs.

    Grids are symmetric, so a wall lies in an (n,n)-grid iff one of its
    halfspaces j lies between halfspaces a inside c with n walls crossing
    both (which then cross every wall between them, Sageev 1995) and a
    chain of n walls from a through j up to c.  For each a, one max over its
    qualifying c gives the longest chain from every j up to one of them.
    Each marked wall is then shown in a grid of n verticals and at least n
    horizontals that `verify_grid` accepts.
    """
    if n < 1:
        raise GraphInputError("grid size must be >= 1")
    t = _NestedPairs(ws, n)
    up, k = t.up, t.k
    qual = (up >= n) & np.tile(t.q >= n, (2, 2))
    via: dict[int, tuple[int, int]] = {}
    found = np.zeros(2 * k, dtype=bool)
    for a in np.flatnonzero(qual.any(axis=0)).tolist():
        cs = np.flatnonzero(qual[:, a])
        block = up[cs]
        top, low = block.max(axis=0), up[:, a].astype(np.intp)
        js = np.flatnonzero((low > 0) & (top > 0) & (low + top > n) & ~found)
        found[js] = True
        for j, c in zip(js.tolist(), cs[block[:, js].argmax(axis=0)].tolist()):
            via[j] = (a, c)
    marked, shown = {t.walls[j % k] for j in via}, set()
    for j, (a, c) in sorted(via.items()):
        if t.walls[j % k] not in shown:
            lower, upper = t.chain(a, j), t.chain(j, c)
            full = lower + upper[1:]
            s = min(len(lower) - 1, len(full) - n)
            grid = t.grid(a, c, full[s : s + n])
            shown.update(grid.verticals + grid.horizontals)
    if shown != marked:
        raise ConsistencyError("the grids shown do not cover the walls marked")
    return frozenset(marked)


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
    (n,n)-grid contains it; one `walls_in_grids` table over nested
    halfspace pairs decides every hyperplane exactly (Sageev 1995).
    """
    if n < 1:
        raise GraphInputError("contracting level must be >= 1")
    in_grid = walls_in_grids(g.wall_system, n)
    verdicts = []
    for h in g.hyperplanes():
        found = None if h.dimension >= n else h.index in in_grid
        verdicts.append(HyperplaneVerdict(h.index, h.dimension, found, found is False, EXACT))
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
