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

Everything here is exact.  The distance table is read off the hyperplanes,
since the distance between two vertices is the number of hyperplanes
separating them: one pass over the 4-cycles gives the edge classes, their
sides and the table, and a certificate proves the table is the graph metric.
Graphs that fail the certificate (every graph that is not bipartite or holds
a K_{2,3}, and most other non-median graphs) get a BFS table instead.
Median recognition checks local conditions over the table.  Dense numpy
tables (n x n and smaller) are used throughout, so the intended scale is a
few thousand vertices at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    L1,
    LINF,
    ConsistencyError,
    GraphInputError,
    NotMedianError,
    SizeCapError,
)

# median recognition above this many vertices is refused
IS_MEDIAN_CAP = 4000

# blocks of rows, sources or neighbour gathers keep their scratch tables
# near this many cells
_BLOCK_CELLS = 1 << 20


def ram_bound(d: int) -> int:
    """Binomial upper bound C(2d, d) for the diagonal Ramsey number R(d+1, d+1).

    Used wherever a Ramsey number would appear in a bound; every such check is
    one-sided (the bound is only ever an upper estimate).
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    return math.comb(2 * d, d)


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


def _word_bit(i: np.ndarray) -> np.ndarray:
    """Bit i of a row of 64-bit words, as a mask of word i // 64."""
    return np.uint64(1) << (i & 63).astype(np.uint64)


def _lowest_labels(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each of `count` nodes labelled by the least node of its component, for
    the links a[i] - b[i].  Each round hooks the higher root of every link
    still joining two trees onto the lower one, then lets labels jump to
    their roots; a label never exceeds its node, so the least member of a
    component is its root."""
    label = np.arange(count)
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            return label
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


def _degree_blocks(
    deg: np.ndarray, head: np.ndarray, width: int
) -> Iterator[tuple[int, np.ndarray, list[np.ndarray]]]:
    """The vertices grouped by degree, for gathering a row of ``width``
    cells from each neighbour: blocks (delta, xs, parts), where the vertices
    xs all have degree delta and each part is a (len(xs), k) table of their
    neighbours at k consecutive slots, the parts covering each slot once.
    ``head`` lists the neighbours of vertex 0, then of vertex 1, and so on.
    A gather of one part, len(xs) k width cells, stays within
    ``_BLOCK_CELLS`` unless it is a single row; a vertex whose delta rows
    alone exceed that has its slots split over several parts."""
    start = np.r_[0, np.cumsum(deg)]
    for delta in np.unique(deg[deg > 0]).tolist():
        every = np.flatnonzero(deg == delta)
        k = min(delta, max(1, _BLOCK_CELLS // width))
        per = max(1, _BLOCK_CELLS // (k * width))
        for i in range(0, len(every), per):
            xs = every[i : i + per]
            slot = start[xs][:, None] + np.arange(delta)
            yield delta, xs, [head[slot[:, j : j + k]] for j in range(0, delta, k)]


def _bfs_table(n: int, arcs: np.ndarray) -> np.ndarray:
    """All-pairs BFS distances (int32) of a connected graph on n vertices,
    given as a (k, 2) array holding each edge in both directions.

    Every source's ball grows at once, 64 vertices to a machine word
    (bit-parallel BFS, as in Akiba, Iwata & Yoshida, SIGMOD 2013).  Row v
    of ``ball`` is the ball of radius t about v, packed into words whose
    padding bits are set, and the ball of radius t + 1 is its OR with the
    balls of v's neighbours, gathered by degree.  d(u, v) is the number of
    radii t whose ball about u misses v, so each radius adds the complement
    of ``ball`` to a bit-sliced counter (plane p holds bit p of every
    count); the planes are unpacked once, at the end, and the loop stops
    when every ball is full.

    Cost: (diameter + 1) (n + 2m) n / 64 word operations, and packed n x n
    bit tables, two for the balls and one per counter bit, besides the
    result.
    """
    if n == 1:
        return np.zeros((1, 1), dtype=np.int32)
    nw = -(-n // 64)
    head = arcs[np.argsort(arcs[:, 0], kind="stable"), 1]
    blocks = list(_degree_blocks(np.bincount(arcs[:, 0], minlength=n), head, nw))
    ball = np.zeros((n, nw), dtype=np.uint64)
    ball[:, -1] = ~np.uint64(0) << np.uint64(n % 64) if n % 64 else 0
    v = np.arange(n)
    ball[v, v >> 6] |= _word_bit(v)
    grown = np.empty_like(ball)
    planes: list[np.ndarray] = []
    # a connected graph's balls are full by radius n - 1
    for _ in range(n):
        # count the vertices each ball misses: add the complement, carrying
        # from plane to plane, and open a new plane for a carry out of the top
        carry = ~ball
        if not carry.any():
            break
        for plane in planes:
            plane ^= carry
            carry &= ~plane
            if not carry.any():
                break
        else:
            planes.append(carry)
        np.copyto(grown, ball)
        for _, xs, parts in blocks:
            for nbrs in parts:
                grown[xs] |= np.bitwise_or.reduce(ball[nbrs], axis=1)
        ball, grown = grown, ball
    out = np.zeros((n, n), dtype=np.int32)
    rows = max(1, _BLOCK_CELLS // n)
    for r0 in range(0, n, rows):
        for p, plane in enumerate(planes):
            bits = np.unpackbits(
                plane[r0 : r0 + rows].view(np.uint8), axis=1, count=n, bitorder="little"
            )
            out[r0 : r0 + rows] |= np.left_shift(bits, p, dtype=np.int32)
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
        self._order: list[int] | None = None

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

    def _nesting(self) -> list[int]:
        """Int rows over the 2h halfspaces: ``below[H]`` holds those strictly
        inside H, never of H's wall or a wall crossing it.  Built in blocks
        of walls against all walls, so scratch tables stay near
        ``_BLOCK_CELLS``."""
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
            self._order = below
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
        below, h = self._nesting(), self.h
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
        # the same edges as an (m, 2) index array, for the numpy passes
        self._ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
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
        """All-pairs graph distance table (int32); requires connectivity.

        In a median graph the distance between two vertices is the number
        of hyperplanes separating them (Sageev, Proc. LMS 71, 1995), so the
        table is read off the hyperplanes (``_certified_table``).  The
        opposite edges of the 4-cycles are joined into classes, and each
        vertex gets a code, one bit per class, along a BFS tree from vertex
        0.  The table is the Hamming distance of codes, and a certificate
        proves it is the graph metric: (a) the ends of every edge differ in
        exactly that edge's class, and (b) at each vertex the halfspaces on
        its side of the classes of its edges meet only in it.  Every median
        graph passes.  Graphs that fail (every non-bipartite graph, every
        K_{2,3}, and more) get the table from ``_bfs_table``, a BFS from
        every source at once on bit-packed balls.
        """
        if "dist" not in self._cache:
            table = self._certified_table()
            if table is None:
                e = self._ends
                table = _bfs_table(self.n, np.r_[e, e[:, ::-1]])
            self._cache["dist"] = table
        return self._cache["dist"]

    def _slots(self) -> dict:
        """Directed edges ("slots") sorted by tail, then head, and the 4-cycles
        read off the paths v - x - w, v < w, as sorted keys v n + w.

        ``edge`` maps slots to edge indices.  ``wide`` is the least key with
        three or more paths (a K_{2,3}), or None; without one, every key with
        two paths is a diagonal of exactly one 4-cycle, and ``diagonals``
        lists those keys, so each 4-cycle appears twice.  A pair without a
        K_{2,3} has at most two common neighbours, so more than n (n - 1)
        paths hold a K_{2,3} and the paths of the tails past that count are
        not listed.  A tree has no 4-cycle, so none of its paths are listed.
        """
        if "slots" in self._cache:
            return self._cache["slots"]
        n, e = self.n, self._ends
        # int32 indices and keys suffice while the path count and n * n fit
        idx = np.int32 if 2 * n * n < 2**31 else np.intp
        tail = np.r_[e[:, 0], e[:, 1]].astype(idx)
        head = np.r_[e[:, 1], e[:, 0]].astype(idx)
        order = np.lexsort((head, tail))
        tail, head = tail[order], head[order]
        deg = np.bincount(tail, minlength=n)
        stop = np.searchsorted(np.cumsum(deg * (deg - 1) // 2), n * (n - 1), "right")
        if len(e) == n - 1:
            # a connected graph with n - 1 edges is a tree: no 4-cycles
            stop = -1
        i, j = _pairs_within(tail[tail <= stop], idx)
        key = head[i]
        del i
        key *= n
        key += head[j]
        del j
        key.sort()
        # same[p]: sorted paths p and p + 1 join the same pair
        same = key[1:] == key[:-1]
        wide = np.flatnonzero(same[1:] & same[:-1])
        slots = {
            "tail": tail, "head": head, "deg": deg, "edge": order % max(len(e), 1),
            "paths": len(key), "wide": int(key[wide[0]]) if wide.size else None,
            "diagonals": key[:-1][same],
        }
        self._cache["slots"] = slots
        return slots

    def _certified_table(self) -> np.ndarray | None:
        """The distance table read off the hyperplanes, or None when the
        certificate fails; also caches the connectivity and, on success, the
        edge classes and sides.

        1. A BFS tree from vertex 0 gives levels; an edge within a level
           means the graph is not bipartite.
        2. The two pairs of opposite edges of each 4-cycle are joined into
           classes, numbered by their lowest edge index.  A K_{2,3} refuses.
        3. A vertex's code is its parent's with the tree edge's class
           flipped; side A of a class holds the lower end of its first
           edge (Djokovic's W(u, v)).
        4. Certificate: (a) the ends of every edge differ in exactly that
           edge's class, and (b) at each vertex x the halfspaces on x's side
           of the classes of x's edges meet only in x.  With D the Hamming
           distance of codes, (a) gives D <= d, since each edge changes one
           coordinate; given (a), (b) gives every x != u a neighbour one
           step nearer u in D, so d <= D.  A median graph always passes,
           since its square-closure classes are its hyperplanes.
        5. Row 0 is the BFS levels; a vertex's row is its parent's, one less
           on its own side of the tree edge's class and one more elsewhere.
        """
        n, adj = self.n, self.adj
        level, parent, order = [-1] * n, [0] * n, [0]
        level[0] = 0
        for v in order:
            for w in adj[v]:
                if level[w] < 0:
                    level[w], parent[w] = level[v] + 1, v
                    order.append(w)
        self._cache["connected"] = len(order) == n
        self._require_connected()
        if n == 1:
            self._cache["walls"] = {
                "edge_class": np.zeros(0, dtype=np.int32), "halfspaces": np.zeros((0, 1), "<u8"),
            }
            return np.zeros((1, 1), dtype=np.int32)
        e = self._ends
        level = np.array(level, dtype=np.int32)
        if (level[e[:, 0]] == level[e[:, 1]]).any():
            return None
        slots = self._slots()
        if slots["wide"] is not None:
            return None
        tail, head, edge, deg = slots["tail"], slots["head"], slots["edge"], slots["deg"]
        # 2. the 4-cycle a - x1 - b - x2 of a diagonal (a, b), found by the
        # neighbours x of a with an edge x - b: (a, x1) ~ (b, x2), (x1, b) ~ (x2, a);
        # the other diagonal gives the same pairs, and of the two only one
        # lies on even levels
        a, b = np.divmod(slots["diagonals"].astype(np.intp), n)
        even = level[a] % 2 == 0
        a, b = a[even], b[even]
        swap = deg[a] > deg[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        start = np.r_[0, np.cumsum(deg)]
        count = deg[a]
        ax = np.arange(count.sum()) + np.repeat(start[a] - np.cumsum(count) + count, count)
        skey = tail.astype(np.intp) * n + head
        want = head[ax] * n + np.repeat(b, count)
        xb = np.minimum(np.searchsorted(skey, want), len(skey) - 1)
        hit = skey[xb] == want
        ax, xb = edge[ax[hit]].reshape(-1, 2), edge[xb[hit]].reshape(-1, 2)
        first, cls = np.unique(
            _lowest_labels(len(e), np.r_[ax[:, 0], xb[:, 0]], np.r_[xb[:, 1], ax[:, 1]]),
            return_inverse=True,
        )
        h = len(first)
        # 3. codes along the tree: bit c of vertex v's code is the parity of
        # the class-c edges on its tree path, so the vertices with bit c set
        # are the XOR of the subtrees below the tree edges of class c
        kids = np.array(order[1:], dtype=np.intp)
        dads = np.array(parent, dtype=np.intp)[kids]
        ekey = e[:, 0] * n + e[:, 1]
        tree = cls[np.searchsorted(ekey, np.minimum(kids, dads) * n + np.maximum(kids, dads))]
        code, below, far = [0] * n, [1 << v for v in range(n)], [0] * h
        bit, classes = [1 << c for c in range(h)], tree.tolist()
        for v, c in zip(order[1:], classes):
            code[v] = code[parent[v]] ^ bit[c]
        for v, c in zip(reversed(order), reversed(classes)):
            below[parent[v]] |= below[v]
            far[c] ^= below[v]
        width = 8 * -(-h // 64)
        words = np.frombuffer(b"".join(c.to_bytes(width, "little") for c in code), dtype="<u8")
        words = words.reshape(n, -1)
        # 4a. every edge flips its own class and no other
        flips = words[e[:, 0]] ^ words[e[:, 1]]
        flips[np.arange(len(e)), cls >> 6] ^= _word_bit(cls)
        if flips.any():
            return None
        # the halfspaces as rows of 64-bit words over the vertices: row c is
        # side A of class c, which holds the lower end of its first edge,
        # and row h + c is side B
        nw = -(-n // 64)
        every = np.full(nw, ~np.uint64(0))
        every[-1] >>= np.uint64(64 * nw - n)
        side_a = np.frombuffer(b"".join(r.to_bytes(8 * nw, "little") for r in far), dtype="<u8")
        side_a = side_a.reshape(h, nw).copy()
        low = e[first, 0]
        side_a[(words[low, np.arange(h) >> 6] & _word_bit(np.arange(h))) == 0] ^= every
        half = np.r_[side_a, side_a ^ every]
        del code, below, far, words, flips, side_a

        def own_side(c, v):
            """Row of the halfspace of class c holding vertex v."""
            return c + h * ((half[c, v >> 6] & _word_bit(v)) == 0)

        # 4b. at each vertex the AND of the rows of its own sides of the
        # classes at its slots is that vertex alone; in blocks of vertices
        at_slot = own_side(cls[edge], tail)
        block = max(1, _BLOCK_CELLS // nw)
        v0 = 0
        while v0 < n:
            v1 = min(n, max(v0 + 1, int(np.searchsorted(start, start[v0] + block, "right")) - 1))
            meet = np.bitwise_and.reduceat(
                half[at_slot[start[v0] : start[v1]]], start[v0:v1] - start[v0], axis=0
            )
            own = np.arange(v0, v1)
            meet[own - v0, own >> 6] ^= _word_bit(own)
            if meet.any():
                return None
            v0 = v1
        del at_slot
        # 5. rows by levels, from the BFS levels of vertex 0: in blocks of
        # vertices in BFS order, each row's steps (-1 on the vertex's own
        # side of its tree edge's class, +1 elsewhere), then one level at a
        # time, since a level's parents lie above it
        table = np.empty((n, n), dtype=np.int32)
        table[0] = level
        at_kid = own_side(tree, kids)
        starts = np.cumsum(np.bincount(level))[:-1] - 1  # of levels, in kids
        rows = max(1, _BLOCK_CELLS // n)
        for r0 in range(0, n - 1, rows):
            r1 = min(n - 1, r0 + rows)
            step = np.unpackbits(
                half[at_kid[r0:r1]].view(np.uint8), axis=1, count=n, bitorder="little"
            ).view(np.int8)
            step *= -2
            step += 1
            cuts = [r0, *starts[(starts > r0) & (starts < r1)].tolist(), r1]
            for lo, hi in zip(cuts, cuts[1:]):
                table[kids[lo:hi]] = table[dads[lo:hi]] + step[lo - r0 : hi - r0]
        self._cache["walls"] = {"edge_class": cls.astype(np.int32), "halfspaces": half}
        return table

    def _require_connected(self) -> None:
        if not self.is_connected:
            raise GraphInputError("graph is disconnected")

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
        every neighbour of x is one step nearer or farther.  The table is
        symmetric, so the sums for every root at once are the sum of the
        rows of x's neighbours, gathered for vertices of one degree at a
        time (``_degree_blocks``).  Only the first failing root is scanned
        pair by pair, for its witness.

        Cost: the distance table, whose pass also sorts the sum deg^2 / 2
        paths v - x - w (the 4-cycle count and the K_{2,3} test; a tree
        has neither and sorts none), and O(n m) for the counts; O(n^2)
        memory, with the gathers' scratch within ``_BLOCK_CELLS`` cells.
        """
        if "median_verdict" in self._cache:
            return self._cache["median_verdict"]
        if self.n > IS_MEDIAN_CAP:
            # below the cap the distance pass refuses a disconnected graph
            self._require_connected()
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
        n, d, e = self.n, self.dist, self._ends
        # bipartite: an edge (a, b) level with vertex 0 leaves (0, a, b) with
        # no median, since a median lies in I(a, b) = {a, b}
        level = np.flatnonzero(d[0, e[:, 0]] == d[0, e[:, 1]])
        if level.size:
            a, b = e[level[0]]
            return 0, int(a), int(b)
        # the slots and the paths v - x - w, shared with the distance pass
        slots = self._slots()
        if not slots["paths"]:
            return None
        tail, head = slots["tail"], slots["head"]
        # K_{2,3}: a pair with common neighbours z, x1, x2 leaves (z, x1, x2)
        # with both members of the pair as medians: the first pair with three
        # paths, and its three least common neighbours (its paths' order)
        if slots["wide"] is not None:
            v, w = divmod(slots["wide"], n)
            return tuple(sorted(self.adj[v] & self.adj[w])[:3])
        # quadrangle condition, counted: a pair now has at most two paths, so
        # each square is two pairs with two paths each; at every root the
        # down pairs must number exactly the squares (see is_median)
        squares = len(slots["diagonals"]) // 2
        down = np.zeros(n, dtype=np.int64)
        for delta, xs, parts in _degree_blocks(slots["deg"], head, n):
            # k[x, r]: neighbours of x one step nearer root r; the others
            # are one step farther, since the graph is bipartite, and the
            # table is symmetric, so row y of d holds d(r, y) for every r
            k = (d[xs] + 1) * delta
            for nbrs in parts:
                k -= d[nbrs].sum(axis=1, dtype=np.int32)
            k //= 2
            down += (k * (k - 1) // 2).sum(axis=0, dtype=np.int64)
        bad = np.flatnonzero(down != squares)
        if not bad.size:
            return None
        u = int(bad[0])
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
        """Edge classes, halfspace matrix, per-edge class labels, as the
        certified distance pass found them (see ``_certified_table``)."""
        if "hyp" in self._cache:
            return self._cache["hyp"]
        self.require_median()
        walls = self._cache.get("walls")
        if walls is None:
            raise ConsistencyError("a median graph failed the distance certificate")
        edge_class, half = walls["edge_class"], walls["halfspaces"]
        sides = np.unpackbits(
            half[: len(half) // 2].view(np.uint8), axis=1, count=self.n, bitorder="little"
        ).view(bool)
        order = np.argsort(edge_class, kind="stable")
        bounds = np.cumsum(np.bincount(edge_class, minlength=len(sides)))[:-1]
        class_edges = [part.tolist() for part in np.split(order, bounds)] if len(sides) else []
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
            names = np.array(self.ids, dtype=object)
            ends = names[self._ends].tolist()
            out = []
            for ci, (dual, row) in enumerate(zip(data["class_edges"], data["sides"])):
                out.append(
                    Hyperplane(
                        index=ci,
                        dual_edges=tuple(tuple(ends[e]) for e in dual),
                        side_a=frozenset(names[row].tolist()),
                        side_b=frozenset(names[~row].tolist()),
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
        """The maximal cubes, in the order of ``cubes()``, as a new list each
        call; without the full inventory cached, corners and ``Cube`` objects
        are built for the maximal ones alone, once."""
        if "maximal_cubes" not in self._cache:
            if "cubes" in self._cache:
                self._cache["maximal_cubes"] = [c for c in self._cache["cubes"] if c.maximal]
            else:
                self._cache["maximal_cubes"] = self._build_cubes(maximal_only=True)
        return list(self._cache["maximal_cubes"])

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
        for k, (gates, hs, maximal) in self._cube_rows().items():
            if maximal_only:
                gates, hs, maximal = gates[maximal], hs[maximal], maximal[maximal]
            verts = self._cube_corners(gates, hs)
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
        gates (count,), the hyperplane rows (count, k) and the maximal flags
        (count,), with the cubes in gate order (see cubes).  No corner is
        built here: ``_cube_corners`` builds them for the cubes a caller
        reads.
        """
        if "cube_rows" in self._cache:
            return self._cache["cube_rows"]
        self.require_median()
        if not self.edges:
            point = np.zeros(1, dtype=np.intp)
            self._cache["cube_rows"] = {0: (point, np.zeros((1, 0), np.intp), np.ones(1, bool))}
            return self._cache["cube_rows"]
        n = self.n
        level = self.dist[0]
        trans = self.wall_system._trans_int
        e = self._ends
        tail, head = np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]]
        cls = np.tile(self._hyperplane_data()["edge_class"].astype(np.intp), 2)
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
            out[k] = (
                np.array(gates, dtype=np.intp),
                np.array(flat, dtype=np.intp).reshape(-1, k),
                np.array(maximal),
            )
        self._cache["cube_rows"] = out
        return out

    def _cube_corners(self, gates: np.ndarray, hs: np.ndarray) -> np.ndarray:
        """The vertex rows (count, 2**k) of the cubes with these gates and
        hyperplane rows (count, k).  Column ``bits`` of a row is the corner
        reached from the gate by crossing the hyperplanes hs[bits]; every
        corner is checked to exist and every cube to have 2**k distinct
        vertices."""
        h, k = self.hyperplane_count, hs.shape[1]
        if "across" not in self._cache:
            # (vertex, hyperplane) -> neighbour across it, as a sorted key table
            e = self._ends
            tail, head = np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]]
            key = tail * h + np.tile(self._hyperplane_data()["edge_class"].astype(np.intp), 2)
            order = np.argsort(key)
            self._cache["across"] = key[order], head[order]
        key, across = self._cache["across"]
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
        return verts

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
            for gates, hs, maximal in self._cube_rows().values():
                rows = self._cube_corners(gates[maximal], hs[maximal])
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
        """Convexity by the local rule: a connected set of a median graph is
        convex iff no vertex outside it has two neighbours in it.  Median
        graphs are weakly modular, where connected locally convex sets are
        convex (local-to-global convexity; Bandelt & Chepoi, *Metric graph
        theory and geometry: a survey*, 2008).  The witness (a, b, x) has x
        outside the set and adjacent to both a and b, so x lies on a
        geodesic from a to b.  Empty and disconnected sets and non-median
        graphs are refused."""
        idx = self.indices_of(subset)
        if not idx:
            raise GraphInputError("convexity test needs a nonempty vertex set")
        self.require_median()
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
        in_set = np.zeros(self.n, dtype=bool)
        in_set[idx] = True
        inner = in_set[self._ends]
        leaving = self._ends[inner[:, 0] != inner[:, 1]]
        # the outside end of every edge leaving the set, counted per vertex
        hits = np.flatnonzero(np.bincount(leaving[~in_set[leaving]], minlength=self.n) > 1)
        if hits.size:
            x = int(hits[0])
            a, b = sorted(self.adj[x] & iset)[:2]
            return ConvexityVerdict(
                ok=False, violation=(self.ids[a], self.ids[b], self.ids[x])
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
