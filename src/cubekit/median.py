"""Finite median graphs and their hyperplane combinatorics.

A graph is median when every vertex triple x, y, z has exactly one vertex m
with d(x,y) = d(x,m) + d(m,y) and the two symmetric identities.  Median graphs
are exactly the 1-skeletons of CAT(0) cube complexes, so the whole cube-complex
dictionary is available combinatorially:

- hyperplanes are classes of edges under the "opposite sides of a square"
  relation, and each one cuts the graph into two convex halfspaces;
- the cubes with gate v toward a base vertex are the sets of pairwise crossing
  hyperplanes among the edges leaving v away from the base (links are flag
  and hyperplanes do not inter-osculate), so each cube is listed once;
- the piecewise-ell_infinity distance between vertices is the graph distance in
  the cone-off where any two vertices of a common cube are joined by an edge,
  and it equals the longest chain of pairwise disjoint separating hyperplanes;
- every convex set admits a nearest-point projection (the gate map).

Everything here is exact.  Median recognition checks local conditions over
the distance table; dense numpy tables (n x n and smaller) are used throughout,
so the intended scale is a few thousand vertices at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConsistencyError,
    GraphInputError,
    NotMedianError,
    SizeCapError,
)

L1 = "l1"
LINF = "linf"

# median recognition above this many vertices is refused
IS_MEDIAN_CAP = 4000

# blocks of roots or sources keep their scratch tables near this many cells
_BLOCK_CELLS = 1 << 20


def ram_bound(d: int) -> int:
    """Binomial upper bound C(2d, d) for the diagonal Ramsey number R(d+1, d+1).

    Used wherever a Ramsey number would appear in a bound; every such check is
    one-sided (the bound is only ever an upper estimate).
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    return math.comb(2 * d, d)


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def _pairs_within(groups: np.ndarray, dtype=np.intp) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j with groups[i] == groups[j] for a sorted array,
    ordered by i and then j, as `dtype` (which must hold the pair count)."""
    starts = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
    size = np.diff(np.r_[starts, len(groups)])
    later = np.repeat(starts + size, size) - np.arange(len(groups)) - 1
    first = np.repeat(np.arange(len(groups), dtype=dtype), later)
    second = np.arange(1, len(first) + 1, dtype=dtype)
    second -= np.repeat((np.cumsum(later) - later).astype(dtype), later)
    second += first
    return first, second


def _bfs_table(n: int, arcs: np.ndarray) -> np.ndarray:
    """All-pairs BFS distances (int32) of a connected graph on n vertices,
    given as a (k, 2) array holding each edge in both directions.

    scipy is imported here, on first use, so importing cubekit does not load
    it.  Above one block of sources the float64 scratch is a slice of n x n.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    ones = np.ones(len(arcs), dtype=np.int8)
    mat = csr_matrix((ones, (arcs[:, 0], arcs[:, 1])), shape=(n, n))
    out = np.empty((n, n), dtype=np.int32)
    block = max(1, _BLOCK_CELLS // n)
    for s0 in range(0, n, block):
        src = np.arange(s0, min(n, s0 + block)) if block < n else None
        out[s0 : s0 + block] = shortest_path(mat, method="D", unweighted=True, indices=src)
    return out


@dataclass(frozen=True)
class MedianVerdict:
    ok: bool
    witness: tuple[str, str, str] | None = None
    medians: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Hyperplane:
    """One hyperplane: an edge class together with its two halfspaces.

    ``dimension`` is the maximal dimension of an inventory cube containing one
    of the dual edges (reported as dimension_source = cube_inventory).
    """

    index: int
    dual_edges: tuple[tuple[str, str], ...]
    side_a: frozenset[str]
    side_b: frozenset[str]
    dimension: int


@dataclass(frozen=True)
class Cube:
    """A cube subgraph with the (sorted) indices of its hyperplanes.

    ``corners`` is the cube's lowest-index vertex and its antipode in the
    cube.  ``maximal`` is true when no larger cube contains this one, that is
    when at any one vertex of the cube no other edge has a hyperplane crossing
    all of the cube's hyperplanes.
    """

    dimension: int
    vertices: frozenset[str]
    hyperplanes: tuple[int, ...]
    corners: tuple[str, str]
    maximal: bool


@dataclass(frozen=True)
class ConvexityVerdict:
    ok: bool
    # (a, b, v): v lies on a geodesic from a to b but outside the set
    violation: tuple[str, str, str] | None = None

    def __bool__(self) -> bool:
        return self.ok


# -- wall systems --------------------------------------------------------------


def _row_bits(rows: np.ndarray) -> list[int]:
    """Each row of a boolean table as an int whose bit i is column i."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def side_meets(rows: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Boolean (2, 2, R, H) table: [a, b, j, k] says side a of row j meets
    side b of wall k.  ``rows`` and ``sides`` are walls x vertices tables on
    one vertex set (``rows`` may be a block of ``sides``); side 0 of a wall
    is the True entries of its row and side 1 the rest."""
    # one float32 product (exact: every count is at most n < 2**24);
    # the other three quadrant counts follow from side sizes
    r = np.asarray(rows, dtype=np.float32)
    s = np.asarray(sides, dtype=np.float32)
    rsize, size, both = r.sum(axis=1), s.sum(axis=1), r @ s.T
    meets = np.empty((2, 2, *both.shape), dtype=bool)
    np.greater(both, 0, out=meets[0, 0])
    np.less(both, rsize[:, None], out=meets[0, 1])
    np.less(both, size[None, :], out=meets[1, 0])
    np.greater(both - rsize[:, None], size[None, :] - s.shape[1], out=meets[1, 1])
    return meets


class WallSystem:
    """Halfspace data (walls x vertices) with the transversality relation.

    This is the combinatorial core shared by hyperplanes of median graphs,
    walls of Coxeter balls and walls of polygonal complexes.  A *chain* is a
    family of pairwise disjoint walls all separating one vertex pair.

    Chains are read off the halfspace inclusion order (Sageev's pocset,
    Proc. LMS 71, 1995).  Halfspace H < h is side 0 of wall H and H + h its
    side 1; every side is nonempty and distinct walls have distinct sides.
    Walls that do not cross nest: side c of k lies in side a of j iff it
    misses side 1 - a of j (one entry of ``side_meets``).  That is the empty
    quadrant of two median hyperplanes, the exact Tits crossing table of
    Coxeter ball walls (the ball holds a geodesic from the identity to each
    vertex), and Wise's nesting of polygonal walls that share no polygon
    ("Cubulating small cancellation groups", GAFA 14, 2004).  So a family
    is a chain iff one halfspace of each can be picked with the picks
    pairwise comparable; it separates the lowest vertex of its innermost
    pick from the lowest vertex outside its outermost one.
    """

    def __init__(self, sides: np.ndarray, transverse: np.ndarray):
        self.sides = np.ascontiguousarray(np.asarray(sides, dtype=bool))
        self.transverse = np.asarray(transverse, dtype=bool)
        if self.sides.ndim != 2:
            raise GraphInputError("wall sides must be a walls x vertices table")
        self.h = int(self.sides.shape[0])
        self.nv = int(self.sides.shape[1])
        if self.transverse.shape != (self.h, self.h):
            raise GraphInputError("transversality table has the wrong shape")
        self._side_count: list[int] = self.sides.sum(axis=1).tolist()
        self._columns: list[int] | None = None
        self._trans_int = _row_bits(self.transverse)
        self._disjoint_int = _row_bits(~self.transverse & ~np.eye(self.h, dtype=bool))
        # halfspace sizes and lowest vertices, and their order once asked for
        self._size = self._side_count + [self.nv - c for c in self._side_count]
        self._lowest = np.r_[self.sides.argmax(axis=1), (~self.sides).argmax(axis=1)].tolist()
        self._order: tuple[list[int], list[int]] | None = None

    def iter_pairs(self) -> Iterator[tuple[int, tuple[int, int]]]:
        """The distinct separation masks, each with the first pair (x, y),
        x < y, in row order that has it; zero masks are skipped.

        Pairs are deduplicated with numpy in blocks of rows, so a caller that
        stops early pays only for the blocks it read.
        """
        nv = self.nv
        # each vertex's halfspace column packed into 64-bit words, bit j of
        # the little-endian integer being wall j; a pair's key is the XOR
        width = max(1, -(-self.h // 64))
        step = 8 * width
        packed = np.zeros((nv, step), dtype=np.uint8)
        packed[:, : -(-self.h // 8)] = np.packbits(self.sides, axis=0, bitorder="little").T
        words = packed.view(np.uint64)
        void = np.dtype((np.void, step))
        block = max(1, _BLOCK_CELLS // (nv * width))
        seen = set()
        for x0 in range(0, nv - 1, block):
            rows = np.arange(x0, min(nv, x0 + block))
            xs, ys = np.nonzero(rows[:, None] < np.arange(nv))
            xs += x0
            keys = words[xs] ^ words[ys]
            _, first = np.unique(keys.view(void).ravel(), return_index=True)
            first.sort()
            raw = keys[first].tobytes()
            for t, x, y in zip(range(0, len(raw), step), xs[first].tolist(), ys[first].tolist()):
                m = int.from_bytes(raw[t : t + step], "little")
                if m and m not in seen:
                    seen.add(m)
                    yield m, (x, y)

    @property
    def columns(self) -> list[int]:
        """Each vertex's halfspace column as an int: bit j is set when the
        vertex lies in side 0 of wall j, so x ^ y masks the walls separating
        x from y."""
        if self._columns is None:
            self._columns = _row_bits(self.sides.T)
        return self._columns

    def _nesting(self) -> tuple[list[int], list[int]]:
        """Int rows over the 2h halfspaces: ``below[H]`` holds those strictly
        inside H and ``comparable[H]`` those strictly inside or around it,
        never of H's wall or a wall crossing it.  Built in blocks of walls
        against all walls, so scratch tables stay near ``_BLOCK_CELLS``."""
        if self._order is None:
            h, s, size = self.h, self.sides.astype(np.float32), np.array(self._size)
            below = [0] * (2 * h)
            block = max(1, _BLOCK_CELLS // max(h, 1))
            for j0 in range(0, h, block):
                js = np.arange(j0, min(h, j0 + block))
                # [a, c, j, k]: side c of k misses side 1 - a of j, so lies
                # inside side a of j; as rows (a, j) over halfspaces c h + k
                inside = ~side_meets(s[js], s)[::-1] & ~self.transverse[js]
                inside = inside.transpose(0, 2, 1, 3).reshape(2, len(js), 2 * h)
                # strictly: a halfspace as large as H is H itself
                inside &= size < size[np.r_[js, js + h]].reshape(2, -1, 1)
                below[j0 : j0 + len(js)] = _row_bits(inside[0])
                below[h + j0 : h + j0 + len(js)] = _row_bits(inside[1])
            # K is strictly around H iff K's complement is strictly inside
            # H's complement; complementing swaps the two halves of a row
            low = (1 << h) - 1
            flip = below[h:] + below[:h]
            comparable = [b | c >> h | (c & low) << h for b, c in zip(below, flip)]
            self._order = below, comparable
        return self._order

    def _pair_of(self, halfspaces) -> tuple[int, int]:
        """The vertex pair a chain of halfspaces separates (see the class)."""
        size = self._size.__getitem__
        inner, outer = min(halfspaces, key=size), max(halfspaces, key=size)
        # H - h (from the end of the list when negative) is H's complement
        return self._lowest[inner], self._lowest[outer - self.h]

    def order_chain(self, members, rep: tuple[int, int]) -> tuple[int, ...]:
        """Order a chain by halfspace nesting toward the first pair vertex:
        by the size of the side holding rep[0], ties kept in given order."""
        col, count, nv = self.columns[rep[0]], self._side_count, self.nv
        return tuple(sorted(
            (int(j) for j in members),
            key=lambda j: count[j] if col >> j & 1 else nv - count[j],
        ))

    def longest_chain(self, mask: int) -> tuple[int, tuple[int, ...], tuple | None]:
        """Longest chain inside the wall set `mask` (a bitmask), as (length,
        members innermost first, the pair they separate).

        A longest path in the inclusion order of the mask's halfspaces, by
        levels: level 0 is all of them, level t + 1 those of level t with one
        of level t strictly inside.  The members are rebuilt from the top
        level down, each the lowest halfspace of its level inside the last.
        Inside one pair's separating walls, disjoint means comparable, so
        there this is the largest disjoint family.
        """
        if not mask:
            return 0, (), None
        below, h = self._nesting()[0], self.h
        levels = [mask | mask << h]
        while levels[-1]:
            last, up, rest = levels[-1], 0, levels[-1]
            while rest:
                low = rest & -rest
                rest ^= low
                if below[low.bit_length() - 1] & last:
                    up |= low
            levels.append(up)
        levels.pop()
        chain = [(levels[-1] & -levels[-1]).bit_length() - 1]
        for level in reversed(levels[:-1]):
            level &= below[chain[-1]]
            chain.append((level & -level).bit_length() - 1)
        return len(chain), tuple(H % h for H in reversed(chain)), self._pair_of(chain)

    def wall_side(self, a: int, c: int):
        """The side of wall c on which wall a lies entirely (True for side a
        of c, False for side b), or None when they are transverse."""
        if self.transverse[a, c]:
            return None
        A, C = self.sides[a], self.sides[c]
        for val, mask in ((True, C), (False, ~C)):
            if (A & mask).any() and (~A & mask).any():
                return val
        return None


class MedianGraph:
    """A finite simple graph with opaque string vertex ids.

    The constructor accepts any simple graph; operations that only make sense
    on connected or median input check and refuse as they go.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.ids: list[str] = list(dict.fromkeys(str(v) for v in vertices))
        if not self.ids:
            raise GraphInputError("graph needs at least one vertex")
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.ids)}
        self.n = len(self.ids)
        self.adj: list[set[int]] = [set() for _ in range(self.n)]
        edge_set: set[tuple[int, int]] = set()
        for a, b in edges:
            a, b = str(a), str(b)
            if a not in self.index or b not in self.index:
                missing = a if a not in self.index else b
                raise GraphInputError(f"edge endpoint {missing!r} is not a declared vertex")
            ia, ib = self.index[a], self.index[b]
            if ia == ib:
                raise GraphInputError(f"loop at vertex {a!r}")
            key = (min(ia, ib), max(ia, ib))
            if key in edge_set:
                raise GraphInputError(f"duplicate edge {a!r} -- {b!r}")
            edge_set.add(key)
            self.adj[ia].add(ib)
            self.adj[ib].add(ia)
        self.edges: list[tuple[int, int]] = sorted(edge_set)
        self.edge_index: dict[tuple[int, int], int] = {e: i for i, e in enumerate(self.edges)}
        self._cache: dict[str, object] = {}

    # -- basic structure ----------------------------------------------------

    def __repr__(self) -> str:
        return f"MedianGraph({self.n} vertices, {len(self.edges)} edges)"

    def indices_of(self, vs: Iterable[str]) -> list[int]:
        out = []
        for v in vs:
            if v not in self.index:
                raise GraphInputError(f"unknown vertex {v!r}")
            out.append(self.index[v])
        return out

    @property
    def is_connected(self) -> bool:
        if "connected" not in self._cache:
            seen = {0}
            stack = [0]
            while stack:
                for v in self.adj[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            self._cache["connected"] = len(seen) == self.n
        return bool(self._cache["connected"])

    @property
    def dist(self) -> np.ndarray:
        """All-pairs graph distance table (int32); requires connectivity."""
        if "dist" not in self._cache:
            self._require_connected()
            e = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
            self._cache["dist"] = _bfs_table(self.n, np.r_[e, e[:, ::-1]])
        return self._cache["dist"]

    def _require_connected(self) -> None:
        if not self.is_connected:
            raise GraphInputError("graph is disconnected")

    def degree(self, i: int) -> int:
        return len(self.adj[i])

    # -- median recognition --------------------------------------------------

    def is_median(self) -> MedianVerdict:
        """Median recognition from local conditions on the distance table.

        A connected graph is median iff it is bipartite, satisfies the
        quadrangle condition and contains no K_{2,3} (Bandelt & Chepoi,
        *Metric graph theory and geometry: a survey*, 2008).  A failed
        condition is reported as a vertex triple with zero or several
        medians.  Refuses disconnected input.

        The quadrangle condition is counted, not scanned.  Relative to a
        root u, let k_ux be the number of neighbours of x one step nearer u;
        a *down pair* at x is two of them.  The condition asks every down
        pair (v, w) at x for a common neighbour of v and w nearer u still.
        In a connected, bipartite, K_{2,3}-free graph a down pair lies on at
        most one 4-cycle, and each 4-cycle has, relative to u, one of two
        shapes: one corner has both of its cycle neighbours nearer u and the
        opposite corner is nearer still (one down pair, which passes), or
        two opposite corners have both cycle neighbours nearer u (two down
        pairs, and both fail).  A down pair on no 4-cycle fails too.  So

            sum_x C(k_ux, 2) = #squares + #flat squares + #twinless pairs,

        and u passes iff the sum equals the number of 4-cycles.  With d(u, .)
        known, k_ux = ((d(u, x) + 1) deg x - sum_{y ~ x} d(u, y)) / 2, since
        every neighbour of x is one step nearer or farther.  Only the first
        failing root is scanned pair by pair, for its witness.

        Cost: the distance table, one sort of the sum deg^2 / 2 paths
        v - x - w (the 4-cycle count and the K_{2,3} test), and O(n m) for
        the counts; O(n^2) memory.
        """
        if "median_verdict" in self._cache:
            return self._cache["median_verdict"]
        self._require_connected()
        if self.n > IS_MEDIAN_CAP:
            raise SizeCapError(f"is_median cap is {IS_MEDIAN_CAP} vertices, got {self.n}")
        triple = self._median_failure()
        if triple is None:
            verdict = MedianVerdict(ok=True)
        else:
            verdict = MedianVerdict(
                ok=False,
                witness=tuple(self.ids[t] for t in triple),
                medians=tuple(self.ids[m] for m in self._median_set(*triple)),
            )
        self._cache["median_verdict"] = verdict
        return verdict

    def _median_failure(self) -> tuple[int, int, int] | None:
        """A triple without a unique median, or None when the graph is median."""
        n, d = self.n, self.dist
        e = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        # bipartite: an edge (a, b) level with vertex 0 leaves (0, a, b) with
        # no median, since a median lies in I(a, b) = {a, b}
        level = np.flatnonzero(d[0, e[:, 0]] == d[0, e[:, 1]])
        if level.size:
            a, b = e[level[0]]
            return 0, int(a), int(b)
        # directed edges ("slots") sorted by tail, then head; int32 indices
        # and keys suffice, since n <= IS_MEDIAN_CAP gives n * n < 2**31
        tail = np.r_[e[:, 0], e[:, 1]].astype(np.int32)
        head = np.r_[e[:, 1], e[:, 0]].astype(np.int32)
        order = np.lexsort((head, tail))
        tail, head = tail[order], head[order]
        # paths v - x - w as pairs i < j of slots of x; without a K_{2,3} a
        # pair v, w has at most two common neighbours, so more than n (n - 1)
        # paths hold a K_{2,3} and the tails past that count are not needed
        deg = np.bincount(tail, minlength=n)
        stop = np.searchsorted(np.cumsum(deg * (deg - 1) // 2), n * (n - 1), "right")
        i, j = _pairs_within(tail[tail <= stop], np.int32)
        if not i.size:
            return None
        key = head[i]
        del i
        key *= n
        key += head[j]
        del j
        key.sort()
        # same[p]: sorted paths p and p + 1 join the same pair
        same = key[1:] == key[:-1]
        # K_{2,3}: a pair with common neighbours z, x1, x2 leaves (z, x1, x2)
        # with both members of the pair as medians: the first pair with three
        # paths, and its three least common neighbours (its paths' order)
        wide = np.flatnonzero(same[1:] & same[:-1])
        if wide.size:
            v, w = divmod(int(key[wide[0]]), n)
            return tuple(sorted(self.adj[v] & self.adj[w])[:3])
        del key
        # quadrangle condition, counted: a pair now has at most two paths, so
        # each square is two pairs with two paths each; at every root the
        # down pairs must number exactly the squares (see is_median)
        squares = np.count_nonzero(same) // 2
        # the slots, sorted by tail, are the adjacency matrix in CSR form
        from scipy.sparse import csr_matrix

        deg = deg.astype(np.int32)
        ones = np.ones(len(head), dtype=np.int32)
        adj = csr_matrix((ones, head, np.r_[0, np.cumsum(deg)]), shape=(n, n))
        block = max(1, _BLOCK_CELLS // n)
        for r0 in range(0, n, block):
            rows = d[r0 : r0 + block]
            # k[r, x]: neighbours of x one step nearer root r0 + r; the
            # others are one step farther, since the graph is bipartite
            k = (rows + 1) * deg
            k -= rows @ adj
            k //= 2
            down = (k * (k - 1) // 2).sum(axis=1, dtype=np.int64)
            bad = np.flatnonzero(down != squares)
            if bad.size:
                u = r0 + int(bad[0])
                break
        else:
            return None
        # witness: the first down pair (v, w) at u, by x and then by slots,
        # with no common neighbour nearer u, so the up pair of no vertex
        row = d[u]

        def pair_keys(keep):
            slot = np.flatnonzero(keep)
            p, q = _pairs_within(tail[slot])
            return head[slot[p]] * n + head[slot[q]]

        downs = pair_keys(row[head] < row[tail])
        bad = np.flatnonzero(~np.isin(downs, pair_keys(row[head] > row[tail])))
        if not bad.size:
            raise ConsistencyError("a root fails the square count but has no bad pair")
        v, w = divmod(int(downs[bad[0]]), n)
        return u, v, w

    def _median_set(self, x: int, y: int, z: int) -> list[int]:
        d = self.dist
        mask = (
            ((d[x] + d[y]) == d[x, y])
            & ((d[y] + d[z]) == d[y, z])
            & ((d[x] + d[z]) == d[x, z])
        )
        return [int(i) for i in np.flatnonzero(mask)]

    def require_median(self) -> None:
        verdict = self.is_median()
        if not verdict.ok:
            raise NotMedianError(
                f"not a median graph: triple {verdict.witness} has "
                f"{len(verdict.medians)} medians"
            )

    def median(self, x: str, y: str, z: str) -> str:
        """The unique median vertex of a triple (median input required)."""
        self.require_median()
        ix, iy, iz = self.indices_of([x, y, z])
        meds = self._median_set(ix, iy, iz)
        if len(meds) != 1:
            raise ConsistencyError("median recognition passed but a triple is ambiguous")
        return self.ids[meds[0]]

    def interval(self, x: str, y: str) -> frozenset[str]:
        ix, iy = self.indices_of([x, y])
        d = self.dist
        mask = (d[ix] + d[iy]) == d[ix, iy]
        return frozenset(self.ids[int(i)] for i in np.flatnonzero(mask))

    # -- hyperplanes ----------------------------------------------------------

    def _hyperplane_data(self):
        """Edge classes, halfspace matrix, per-edge class labels."""
        if "hyp" in self._cache:
            return self._cache["hyp"]
        self.require_median()
        m = len(self.edges)
        uf = UnionFind(m)
        for ei, (u, v) in enumerate(self.edges):
            for w in self.adj[u]:
                if w == v:
                    continue
                for x in self.adj[v]:
                    # square u - v - x - w: (u, v) is opposite (w, x)
                    if x == u or x == w:
                        continue
                    if x in self.adj[w]:
                        ej = self.edge_index[(min(w, x), max(w, x))]
                        uf.union(ei, ej)
        roots: dict[int, int] = {}
        edge_class = np.empty(m, dtype=np.int32)
        class_edges: list[list[int]] = []
        for ei in range(m):
            r = uf.find(ei)
            if r not in roots:
                roots[r] = len(class_edges)
                class_edges.append([])
            edge_class[ei] = roots[r]
            class_edges[roots[r]].append(ei)
        # halfspace of a class: W(u, v) = {x : d(x, u) < d(x, v)} for its
        # first dual edge uv (Djokovic); its cut edges must be the class
        first = [self.edges[dual[0]] for dual in class_edges]
        u, v = np.array(first, dtype=np.intp).reshape(-1, 2).T
        sides = self.dist[u] < self.dist[v]
        a, b = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        cut = sides[:, a] != sides[:, b]
        if not (cut == (edge_class == np.arange(len(class_edges))[:, None])).all():
            raise ConsistencyError("a halfspace cut differs from its edge class")
        data = {"class_edges": class_edges, "edge_class": edge_class, "sides": sides}
        self._cache["hyp"] = data
        return data

    @property
    def hyperplane_count(self) -> int:
        return len(self._hyperplane_data()["class_edges"])

    @property
    def sides(self) -> np.ndarray:
        """Boolean (H, V) table: sides[j, v] iff v is in side A of hyperplane j."""
        return self._hyperplane_data()["sides"]

    @property
    def transverse(self) -> np.ndarray:
        """Boolean (H, H) table: all four quarter-space intersections nonempty."""
        if "transverse" not in self._cache:
            trans = side_meets(self.sides, self.sides).all(axis=(0, 1))
            np.fill_diagonal(trans, False)
            self._cache["transverse"] = trans
        return self._cache["transverse"]

    @property
    def wall_system(self) -> WallSystem:
        """The hyperplanes as a WallSystem over ``sides`` and ``transverse``."""
        if "wall_system" not in self._cache:
            self._cache["wall_system"] = WallSystem(self.sides, self.transverse)
        return self._cache["wall_system"]

    def separating(self, x: str, y: str) -> list[int]:
        """Indices of hyperplanes separating two vertices."""
        ix, iy = self.indices_of([x, y])
        s = self.sides
        return [int(j) for j in np.flatnonzero(s[:, ix] != s[:, iy])]

    def hyperplanes(self) -> list[Hyperplane]:
        """The hyperplane inventory with halfspaces and cube dimensions."""
        if "hyperplanes" not in self._cache:
            data = self._hyperplane_data()
            dims = self._hyperplane_dimensions()
            out = []
            for ci, dual in enumerate(data["class_edges"]):
                side_a = frozenset(
                    self.ids[int(i)] for i in np.flatnonzero(data["sides"][ci])
                )
                side_b = frozenset(
                    self.ids[int(i)] for i in np.flatnonzero(~data["sides"][ci])
                )
                out.append(
                    Hyperplane(
                        index=ci,
                        dual_edges=tuple(
                            (self.ids[self.edges[e][0]], self.ids[self.edges[e][1]])
                            for e in dual
                        ),
                        side_a=side_a,
                        side_b=side_b,
                        dimension=dims[ci],
                    )
                )
            self._cache["hyperplanes"] = out
        return self._cache["hyperplanes"]

    def halfspace(self, j: int, side: str = "a") -> frozenset[str]:
        data = self._hyperplane_data()
        mask = data["sides"][j] if side == "a" else ~data["sides"][j]
        return frozenset(self.ids[int(i)] for i in np.flatnonzero(mask))

    # -- cubes ----------------------------------------------------------------

    def cubes(self) -> list[Cube]:
        """Inventory of all cube subgraphs (dimension >= 1; a K1 graph reports
        its vertex as the single 0-cube), by falling dimension and then by
        sorted vertex ids.

        Each cube is found once, at its gate v toward vertex 0: the cubes gated
        at v are exactly the sets of pairwise crossing hyperplanes among the
        edges from v away from vertex 0, since links are flag and hyperplanes
        do not inter-osculate.  The cube's vertices are reached from v by
        crossing each subset of those hyperplanes.
        """
        if "cubes" not in self._cache:
            self._cache["cubes"] = self._build_cubes(maximal_only=False)
        return self._cache["cubes"]

    def maximal_cubes(self) -> list[Cube]:
        """The maximal cubes, in the order of ``cubes()``; without the full
        inventory cached, only the maximal ones are built."""
        if "cubes" in self._cache:
            return [c for c in self._cache["cubes"] if c.maximal]
        return self._build_cubes(maximal_only=True)

    def cube_counts(self) -> dict[int, int]:
        """The number of cubes of each dimension, by rising dimension."""
        return {k: len(rows[0]) for k, rows in sorted(self._cube_rows().items())}

    def _build_cubes(self, maximal_only: bool) -> list[Cube]:
        """``Cube`` objects for the rows of ``_cube_rows``, by falling
        dimension and then by sorted vertex ids."""
        rank = np.empty(self.n, dtype=np.intp)
        rank[sorted(range(self.n), key=self.ids.__getitem__)] = np.arange(self.n)
        names = np.array(self.ids, dtype=object)
        cubes: list[Cube] = []
        for k, (verts, hs, maximal) in self._cube_rows().items():
            if maximal_only:
                verts, hs, maximal = verts[maximal], hs[maximal], maximal[maximal]
            order = np.lexsort(np.sort(rank[verts], axis=1).T[::-1])
            verts, hs, maximal = verts[order], hs[order], maximal[order]
            col = verts.argmin(axis=1)
            rows = np.arange(len(verts))
            first, far = verts[rows, col], verts[rows, col ^ ((1 << k) - 1)]
            for vs, hp, a, z, mx in zip(
                names[verts].tolist(), hs.tolist(), names[first].tolist(),
                names[far].tolist(), maximal.tolist(),
            ):
                cubes.append(Cube(k, frozenset(vs), tuple(hp), (a, z), mx))
        return cubes

    def _cube_rows(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The cube inventory as index arrays, by falling dimension k: the
        vertex rows (count, 2**k), the hyperplane rows (count, k) and the
        maximal flags (count,), with the cubes in gate order (see cubes).

        Column ``bits`` of a vertex row is the corner reached from the gate
        by crossing the hyperplanes hs[bits]; every corner is checked to
        exist and every cube to have 2**k distinct vertices.
        """
        if "cube_rows" in self._cache:
            return self._cache["cube_rows"]
        self.require_median()
        if not self.edges:
            point = np.zeros((1, 1), dtype=np.intp)
            self._cache["cube_rows"] = {0: (point, point[:, :0], np.ones(1, dtype=bool))}
            return self._cache["cube_rows"]
        n, h = self.n, self.hyperplane_count
        level = self.dist[0]
        trans = self.wall_system._trans_int
        e = np.array(self.edges, dtype=np.intp)
        tail, head = np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]]
        cls = np.tile(self._hyperplane_data()["edge_class"].astype(np.intp), 2)
        # (vertex, hyperplane) -> neighbour across it, as a sorted key table
        key = tail * h + cls
        order = np.argsort(key)
        key, across = key[order], head[order]
        # hyperplanes of all edges at each vertex, and of its up-edges
        at, up = [0] * n, [0] * n
        rising = level[head] > level[tail]
        for t, c, r in zip(tail.tolist(), cls.tolist(), rising.tolist()):
            at[t] |= 1 << c
            if r:
                up[t] |= 1 << c
        # cliques of up-hyperplanes, grown in increasing index order so each is
        # met once; `common` holds the hyperplanes at v crossing all members,
        # so the cube is maximal iff it is empty
        found: dict[int, tuple[list[int], list[int], list[bool]]] = {}
        for v in range(n):
            stack = [((), at[v], up[v])]
            while stack:
                members, common, ext = stack.pop()
                while ext:
                    low = ext & -ext
                    ext ^= low
                    j = low.bit_length() - 1
                    grown, narrowed, rest = members + (j,), common & trans[j], ext & trans[j]
                    gates, flat, maximal = found.setdefault(len(grown), ([], [], []))
                    gates.append(v)
                    flat.extend(grown)
                    maximal.append(not narrowed)
                    if rest:
                        stack.append((grown, narrowed, rest))
        out = {}
        for k in sorted(found, reverse=True):
            gates, flat, maximal = found[k]
            hs = np.array(flat, dtype=np.intp).reshape(-1, k)
            # the corner `bits` is one step on from the corner without the
            # lowest of its hyperplanes
            verts = np.empty((len(gates), 1 << k), dtype=np.intp)
            verts[:, 0] = gates
            for bits in range(1, 1 << k):
                b = (bits & -bits).bit_length() - 1
                want = verts[:, bits ^ (1 << b)] * h + hs[:, b]
                pos = np.minimum(np.searchsorted(key, want), len(key) - 1)
                if (key[pos] != want).any():
                    raise ConsistencyError("a cube corner is missing")
                verts[:, bits] = across[pos]
            srt = np.sort(verts, axis=1)
            if (srt[:, 1:] == srt[:, :-1]).any():
                raise ConsistencyError("a cube has the wrong vertex count")
            out[k] = (verts, hs, np.array(maximal))
        self._cache["cube_rows"] = out
        return out

    def _hyperplane_dimensions(self) -> list[int]:
        dims = np.ones(self.hyperplane_count, dtype=np.intp)
        for k, (_, hs, _) in self._cube_rows().items():
            np.maximum.at(dims, hs.ravel(), k)
        return dims.tolist()

    # -- distances ------------------------------------------------------------

    def linf_adjacency(self) -> np.ndarray:
        """Boolean adjacency of the cube cone-off: u ~ v iff a common cube."""
        if "linf_adj" not in self._cache:
            adj = np.zeros((self.n, self.n), dtype=bool)
            # every maximal cube of a dimension at once: row r sets the block
            # of its vertices, as adj[np.ix_(row, row)] would
            for verts, _, maximal in self._cube_rows().values():
                rows = verts[maximal]
                adj[rows[:, :, None], rows[:, None, :]] = True
            np.fill_diagonal(adj, False)
            self._cache["linf_adj"] = adj
        return self._cache["linf_adj"]

    def dist_matrix(self, metric: str = L1) -> np.ndarray:
        if metric == L1:
            return self.dist
        if metric == LINF:
            if "linf_dist" not in self._cache:
                self._cache["linf_dist"] = _bfs_table(self.n, np.argwhere(self.linf_adjacency()))
            return self._cache["linf_dist"]
        raise ValueError(f"unknown metric {metric!r}")

    def distance(self, x: str, y: str, metric: str = L1) -> int:
        """Graph distance (l1) or cube cone-off distance (linf).

        The linf value is computed as the longest chain of pairwise disjoint
        separating hyperplanes and cross-checked against BFS in the cube
        cone-off on every call.
        """
        ix, iy = self.indices_of([x, y])
        if metric == L1:
            return int(self.dist_matrix(L1)[ix, iy])
        if metric == LINF:
            ws = self.wall_system
            chain = ws.longest_chain(ws.columns[ix] ^ ws.columns[iy])[0]
            bfs = int(self.dist_matrix(LINF)[ix, iy])
            if chain != bfs:
                raise ConsistencyError(
                    f"linf disagreement at ({x!r}, {y!r}): chain {chain} vs cone-off BFS {bfs}"
                )
            return bfs
        raise ValueError(f"unknown metric {metric!r}")

    # -- convexity and projection ---------------------------------------------

    def is_convex(self, subset: Iterable[str]) -> ConvexityVerdict:
        """Interval test: the set must contain every vertex lying on a geodesic
        between two of its members.  Empty sets are rejected; the set must
        induce a connected subgraph."""
        idx = self.indices_of(subset)
        if not idx:
            raise GraphInputError("convexity test needs a nonempty vertex set")
        iset = set(idx)
        # induced connectivity
        seen = {idx[0]}
        stack = [idx[0]]
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if v in iset and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != iset:
            raise GraphInputError("subset does not induce a connected subgraph")
        d = self.dist
        in_set = np.zeros(self.n, dtype=bool)
        in_set[list(iset)] = True
        arr = sorted(iset)
        for a in arr:
            between = (d[a][None, :] + d[arr, :]) == d[a, arr][:, None]
            bad = between & ~in_set[None, :]
            hits = np.argwhere(bad)
            if hits.size:
                b, v = arr[int(hits[0][0])], int(hits[0][1])
                return ConvexityVerdict(
                    ok=False, violation=(self.ids[a], self.ids[b], self.ids[v])
                )
        return ConvexityVerdict(ok=True)

    def require_convex(self, subset: Iterable[str]) -> list[int]:
        verdict = self.is_convex(subset)
        if not verdict.ok:
            a, b, v = verdict.violation
            raise GraphInputError(
                f"set is not convex: {v!r} lies on a geodesic from {a!r} to {b!r}"
            )
        return self.indices_of(subset)

    def project(self, convex_set: Iterable[str], x: str) -> str:
        """Nearest-point (gate) projection of x to a convex set.

        Checks on every call that the nearest point is unique and that every
        hyperplane separating x from its gate separates x from the whole set.
        """
        target = self.require_convex(convex_set)
        ix = self.index[x] if x in self.index else self.indices_of([x])[0]
        d = self.dist
        dists = d[ix, target]
        best = int(dists.min())
        winners = [target[t] for t in np.flatnonzero(dists == best)]
        if len(winners) != 1:
            raise ConsistencyError("gate is not unique on a convex set")
        p = winners[0]
        s = self.sides
        sep = np.flatnonzero(s[:, ix] != s[:, p])
        tmask = np.zeros(self.n, dtype=bool)
        tmask[target] = True
        for j in sep:
            row = s[j] if s[j, p] else ~s[j]
            if not row[tmask].all():
                raise ConsistencyError(
                    "a hyperplane separating x from its gate fails to separate x from the set"
                )
        return self.ids[p]

    def gate_image(
        self, convex_set: Iterable[str], source_set: Iterable[str]
    ) -> tuple[frozenset[str], tuple[int, ...]]:
        """Project a convex set onto another; returns (image, crossing hyperplanes).

        The crossing set is checked to equal the hyperplanes crossing both
        inputs, the image is checked convex, and the projection is checked
        1-Lipschitz on the source.
        """
        target = self.require_convex(convex_set)
        source = self.require_convex(source_set)
        gates = {v: self.project(convex_set, self.ids[v]) for v in source}
        image = sorted({self.index[g] for g in gates.values()})
        d = self.dist
        for a_pos, a in enumerate(source):
            for b in source[a_pos + 1 :]:
                ga, gb = self.index[gates[a]], self.index[gates[b]]
                if d[ga, gb] > d[a, b]:
                    raise ConsistencyError("projection is not 1-Lipschitz")
        image_ids = frozenset(self.ids[i] for i in image)
        if len(image) > 0:
            verdict = self.is_convex(image_ids)
            if not verdict.ok:
                raise ConsistencyError("gate image is not convex")
        crossing = self._crossing_set(image)
        expected = set(self._crossing_set(target)) & set(self._crossing_set(source))
        if set(crossing) != expected:
            raise ConsistencyError(
                "hyperplanes crossing the image differ from those crossing both sets"
            )
        return image_ids, tuple(sorted(crossing))

    def _crossing_set(self, idx: Sequence[int]) -> list[int]:
        """Hyperplanes separating at least one pair inside the given set."""
        if len(idx) < 2:
            return []
        s = self.sides[:, list(idx)]
        both = s.any(axis=1) & (~s).any(axis=1)
        return [int(j) for j in np.flatnonzero(both)]

    def crossing_hyperplanes(self, subset: Iterable[str]) -> list[int]:
        return self._crossing_set(self.indices_of(subset))
