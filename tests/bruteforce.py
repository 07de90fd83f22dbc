"""Independent brute-force oracles used to validate the library's answers.

Everything here is deliberately written the dumb way (pure python, exhaustive
enumeration) and shares no code with the package internals.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from fractions import Fraction

import numpy as np

from cubekit.diagnostics import EXACT, LOWER_BOUND, BigonReport, FlatRectangle
from cubekit.errors import ConsistencyError, GraphInputError, SizeCapError
from cubekit.median import ConvexityVerdict, Cube, MedianGraph
from cubekit.racg import DecompositionVerdict, RacgBall, maximal_large_joins
from cubekit.smallcancel import FREE_GROUP, LETTER_BOUNDARY_NOTE, SymmetrizedFamily


def adj_dict(g) -> dict[str, set[str]]:
    out = {v: set() for v in g.ids}
    for u, v in g.edges:
        out[g.ids[u]].add(g.ids[v])
        out[g.ids[v]].add(g.ids[u])
    return out


def bfs_dist(adj: dict[str, set[str]], src: str) -> dict[str, int]:
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def all_pairs(adj: dict[str, set[str]]) -> dict[str, dict[str, int]]:
    return {v: bfs_dist(adj, v) for v in adj}


def median_candidates(g, x: str, y: str, z: str) -> set[str]:
    adj = adj_dict(g)
    d = all_pairs(adj)
    out = set()
    for m in adj:
        if (
            d[x][m] + d[m][y] == d[x][y]
            and d[y][m] + d[m][z] == d[y][z]
            and d[x][m] + d[m][z] == d[x][z]
        ):
            out.add(m)
    return out


def is_median_brute(g) -> tuple[bool, tuple | None]:
    adj = adj_dict(g)
    d = all_pairs(adj)
    names = list(adj)
    for x, y, z in itertools.combinations(names, 3):
        count = 0
        for m in names:
            if (
                d[x][m] + d[m][y] == d[x][y]
                and d[y][m] + d[m][z] == d[y][z]
                and d[x][m] + d[m][z] == d[x][z]
            ):
                count += 1
        if count != 1:
            return False, (x, y, z)
    return True, None


def median_failure_pairs_brute(g) -> tuple[int, int, int] | None:
    """The local median test of Bandelt & Chepoi, scanned pair by pair: the
    first vertex triple (as indices) that a failed condition leaves with zero
    or several medians, or None.  The order matches MedianGraph.is_median.

    An edge (a, b) level with vertex 0 gives (0, a, b).  A pair v < w with
    three common neighbours gives its first three (z, x1, x2), the pair
    chosen by smallest v * n + w among paths v - x - w whose middle vertex x
    is at most the first where more than n (n - 1) paths have been counted
    (a pair has at most two common neighbours otherwise).  Then, for each
    root u, vertex x and neighbours v < w of x one step nearer u, the pair
    needs a common neighbour other than x nearer u still, else (u, v, w).
    """
    n, d = g.n, g.dist
    for a, b in g.edges:
        if d[0, a] == d[0, b]:
            return 0, a, b
    nbrs = [sorted(g.adj[x]) for x in range(n)]
    common: dict[tuple[int, int], list[int]] = {}
    paths = 0
    for x in range(n):
        for v, w in itertools.combinations(nbrs[x], 2):
            common.setdefault((v, w), []).append(x)
            paths += 1
        if paths > n * (n - 1):
            break
    for pair in sorted(common):
        if len(common[pair]) >= 3:
            z, x1, x2 = common[pair][:3]
            return z, x1, x2
    for u in range(n):
        for x in range(n):
            down = [v for v in nbrs[x] if d[u, v] < d[u, x]]
            for v, w in itertools.combinations(down, 2):
                twins = [t for t in common[(v, w)] if t != x]
                if not twins or d[u, twins[0]] > d[u, v]:
                    return u, v, w
    return None


def four_point_delta(dist: dict[str, dict[str, int]]):
    """Exact four-point hyperbolicity constant, as a multiple of 1/2."""
    names = list(dist)
    best = 0
    for x, y, u, v in itertools.combinations(names, 4):
        s = sorted(
            [
                dist[x][y] + dist[u][v],
                dist[x][u] + dist[y][v],
                dist[x][v] + dist[y][u],
            ]
        )
        best = max(best, s[2] - s[1])
    return best / 2


def all_geodesics(adj, d, x: str, y: str) -> list[tuple[str, ...]]:
    """Every combinatorial geodesic from x to y, as vertex tuples."""
    out = []
    stack = [(x, (x,))]
    while stack:
        u, path = stack.pop()
        if u == y:
            out.append(path)
            continue
        for w in adj[u]:
            if d[x][w] == d[x][u] + 1 and d[w][y] == d[u][y] - 1:
                stack.append((w, path + (w,)))
    return out


def bigon_thinness_brute(adj, dgeo, dmeasure) -> int:
    """Max over all bigons of the one-sided Hausdorff gap, by raw enumeration.

    dgeo drives which paths are geodesics; dmeasure is the metric used to
    compare them (pass dgeo for the plain notion).
    """
    names = list(adj)
    best = 0
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            geos = all_geodesics(adj, dgeo, x, y)
            for g1 in geos:
                for g2 in geos:
                    for p in g1:
                        best = max(best, min(dmeasure[p][q] for q in g2))
    return best


def pairwise_disjoint_family(transverse, candidates: list[int], size: int):
    """Find `size` pairwise non-transverse hyperplanes among candidates."""
    for combo in itertools.combinations(candidates, size):
        if all(not transverse[a, b] for a, b in itertools.combinations(combo, 2)):
            return combo
    return None


def order_chain_numpy(sides, members, rep: tuple[int, int]) -> tuple[int, ...]:
    """Halfspace order of `members` toward vertex rep[0]: each wall keyed by
    the size of its side holding rep[0], by numpy's stable argsort."""
    s = np.asarray(sides, dtype=bool)
    count = s.sum(axis=1)
    members = np.array(members, dtype=np.intp)
    toward = np.where(s[members, rep[0]], count[members], s.shape[1] - count[members])
    return tuple(int(j) for j in members[np.argsort(toward, kind="stable")])


def wall_pairs_brute(sides) -> list[tuple[int, tuple[int, int]]]:
    """Distinct separation masks of a halfspace table, pair by pair: each
    mask with its first pair (x, y), x < y, in row order; zero masks skipped."""
    found: dict[bytes, tuple[int, tuple[int, int]]] = {}
    s = np.asarray(sides, dtype=bool)
    for x in range(s.shape[1]):
        diff = s != s[:, x : x + 1]
        packed = np.packbits(diff, axis=0)
        for y in range(x + 1, s.shape[1]):
            key = packed[:, y].tobytes()
            if key in found or not any(key):
                continue
            m = 0
            for j in np.flatnonzero(diff[:, y]):
                m |= 1 << int(j)
            found[key] = (m, (x, y))
    return list(found.values())


def connected_subsets(g):
    """Every vertex set of g that induces a connected subgraph, as id lists."""
    nbrs = [sum(1 << j for j in g.adj[i]) for i in range(g.n)]
    for m in range(1, 1 << g.n):
        seen = front = m & -m
        while front:
            grow = 0
            for i in range(g.n):
                if front >> i & 1:
                    grow |= nbrs[i]
            front = grow & m & ~seen
            seen |= front
        if seen == m:
            yield [g.ids[i] for i in range(g.n) if m >> i & 1]


def convex_scan_brute(g, subset) -> ConvexityVerdict:
    """Interval test: the set must contain every vertex lying on a geodesic
    between two of its members."""
    d = g.dist
    arr = sorted(set(g.indices_of(subset)))
    in_set = np.zeros(g.n, dtype=bool)
    in_set[arr] = True
    for a in arr:
        between = (d[a][None, :] + d[arr, :]) == d[a, arr][:, None]
        hits = np.argwhere(between & ~in_set[None, :])
        if hits.size:
            b, v = arr[int(hits[0][0])], int(hits[0][1])
            return ConvexityVerdict(ok=False, violation=(g.ids[a], g.ids[b], g.ids[v]))
    return ConvexityVerdict(ok=True)


def hyperplane_classes_brute(g) -> tuple[list[int], np.ndarray]:
    """Edge classes and halfspaces of a connected graph, edge by edge.

    Every 4-cycle u - v - x - w joins the edge (u, v) to its opposite edge
    (w, x), found by scanning the neighbours of both ends of each edge with
    a union-find; classes are numbered by their lowest edge index.  Side A
    of a class is W(u, v) = {x : d(x, u) < d(x, v)} for its first edge
    (u, v), u < v (Djokovic), with d from a BFS per vertex.  Returns the
    per-edge class list and the (classes x vertices) boolean side-A table.
    """
    parent = list(range(len(g.edges)))
    index = {e: i for i, e in enumerate(g.edges)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ei, (u, v) in enumerate(g.edges):
        for w in g.adj[u]:
            if w == v:
                continue
            for x in g.adj[v]:
                # square u - v - x - w: (u, v) is opposite (w, x)
                if x == u or x == w or x not in g.adj[w]:
                    continue
                a, b = find(ei), find(index[(min(w, x), max(w, x))])
                parent[max(a, b)] = min(a, b)
    number: dict[int, int] = {}
    edge_class = [number.setdefault(find(ei), len(number)) for ei in range(len(g.edges))]
    adj = adj_dict(g)
    d = {v: bfs_dist(adj, v) for v in g.ids}
    sides = np.zeros((len(number), g.n), dtype=bool)
    for ei, c in enumerate(edge_class):
        if not sides[c].any():
            u, v = (g.ids[t] for t in g.edges[ei])
            sides[c] = [d[x][u] < d[x][v] for x in g.ids]
    return edge_class, sides


def cubes_interval_brute(g):
    """The cube inventory of a median graph by the interval scan: every pair
    u < v within max-degree distance whose separating hyperplanes pairwise
    cross spans the cube I(u, v); corners are the first such pair found.
    Fields and sort order match ``MedianGraph.cubes``."""
    g.require_median()
    if not g.edges:
        return [Cube(0, frozenset({g.ids[0]}), (), (g.ids[0], g.ids[0]), True)]
    d = g.dist
    s = g.sides
    trans = g.transverse
    edge_class = g._hyperplane_data()["edge_class"]
    max_deg = max(len(a) for a in g.adj)
    seen: dict[frozenset[int], tuple[int, tuple[int, ...], tuple[int, int]]] = {}
    for u in range(g.n):
        near = np.flatnonzero((d[u] >= 1) & (d[u] <= max_deg))
        for v in near:
            v = int(v)
            if v <= u:
                continue
            sep = np.flatnonzero(s[:, u] != s[:, v])
            k = len(sep)
            if k != d[u, v]:
                raise ConsistencyError("separating count disagrees with distance")
            sub = trans[np.ix_(sep, sep)]
            if k > 1 and not (sub | np.eye(k, dtype=bool)).all():
                continue
            verts = frozenset(
                int(i) for i in np.flatnonzero((d[u] + d[v]) == d[u, v])
            )
            if len(verts) != 2**k:
                raise ConsistencyError("cube interval has the wrong vertex count")
            if verts not in seen:
                seen[verts] = (k, tuple(int(j) for j in sep), (u, v))
    cubes = []
    for verts, (k, hs, (u, v)) in seen.items():
        hs_set = set(hs)
        maximal = True
        for w in g.adj[v]:
            if w in verts:
                continue
            ek = int(edge_class[g.edges.index((min(v, w), max(v, w)))])
            if ek in hs_set:
                continue
            if all(trans[ek, j] for j in hs):
                maximal = False
                break
        cubes.append(
            Cube(
                dimension=k,
                vertices=frozenset(g.ids[i] for i in verts),
                hyperplanes=hs,
                corners=(g.ids[u], g.ids[v]),
                maximal=maximal,
            )
        )
    cubes.sort(key=lambda c: (-c.dimension, sorted(c.vertices)))
    return cubes


def _chains_brute(sides, transverse) -> tuple[list[int], list[int]]:
    """Every chain as a wall bitmask, by raw subset enumeration (H <= 14),
    and each wall's transverse mask.

    A family is a chain iff some vertex pair is separated by every member
    and no two members cross, which is tested directly against the tables.
    """
    h, n = sides.shape
    if h > 14:
        raise ValueError("brute-force grid oracle is capped at 14 hyperplanes")
    pair_masks = set()
    for x in range(n):
        for y in range(x + 1, n):
            mask = 0
            for j in range(h):
                if sides[j, x] != sides[j, y]:
                    mask |= 1 << j
            if mask:
                pair_masks.add(mask)
    trans_masks = []
    for j in range(h):
        m = 0
        for k in range(h):
            if transverse[j, k]:
                m |= 1 << k
        trans_masks.append(m)

    def pairwise_disjoint(s: int) -> bool:
        j, ss = 0, s
        while ss:
            if ss & 1 and trans_masks[j] & s:
                return False
            ss >>= 1
            j += 1
        return True

    chains = [
        s
        for s in range(1, 1 << h)
        if any(s & m == s for m in pair_masks) and pairwise_disjoint(s)
    ]
    return chains, trans_masks


def _crossing(trans_masks, chain: int) -> int:
    """Mask of the walls transverse to every member of `chain`."""
    tmask = (1 << len(trans_masks)) - 1
    for j, m in enumerate(trans_masks):
        if (chain >> j) & 1:
            tmask &= m
    return tmask


def grid_pareto_bruteforce(sides, transverse) -> set[tuple[int, int]]:
    """Pareto-maximal grid sizes (p >= q) by raw subset enumeration (H <= 14)."""
    chains, trans_masks = _chains_brute(sides, transverse)
    results = []
    for c in chains:
        tmask = _crossing(trans_masks, c)
        q = max((c2.bit_count() for c2 in chains if c2 & tmask == c2), default=0)
        if q:
            p2, q2 = c.bit_count(), q
            results.append((max(p2, q2), min(p2, q2)))
    return {
        (p, q)
        for p, q in results
        if not any(p2 >= p and q2 >= q and (p2, q2) != (p, q) for p2, q2 in results)
    }


def grid_walls_brute(sides, transverse, n: int) -> frozenset[int]:
    """Walls lying in some (n, n)-grid, by raw subset enumeration (H <= 14):
    the members of every n-chain that some n-chain crosses."""
    chains, trans_masks = _chains_brute(sides, transverse)
    square = [c for c in chains if c.bit_count() == n]
    walls = 0
    for c in square:
        tmask = _crossing(trans_masks, c)
        if any(c2 & tmask == c2 for c2 in square):
            walls |= c
    return frozenset(j for j in range(len(trans_masks)) if (walls >> j) & 1)


def _chain_in_pair_by_dp(sides, transverse, mm: int, rep: tuple[int, int]):
    """Largest pairwise disjoint family among the walls of `mm`, all
    separating the pair rep: (length, members in halfspace order toward
    rep[0]).  Two disjoint walls separating one pair are strictly nested, so
    in that order it is a longest-increasing-chain DP."""
    members = order_chain_numpy(sides, [j for j in range(len(transverse)) if mm >> j & 1], rep)
    f, parent = [1] * len(members), [-1] * len(members)
    for i, b in enumerate(members):
        for t in range(i):
            if f[t] >= f[i] and not transverse[members[t], b]:
                f[i], parent[i] = f[t] + 1, t
    if not members:
        return 0, ()
    cur = max(range(len(members)), key=lambda i: f[i])
    top, chain = f[cur], []
    while cur != -1:
        chain.append(members[cur])
        cur = parent[cur]
    return top, tuple(reversed(chain))


def longest_chain_by_masks(ws, mask: int, pairs=None):
    """Longest chain inside the wall set `mask` by scanning separation masks:
    (length, members, pair), the members ordered toward the pair's first
    vertex.  Every distinct separation mask of ws (`pairs`, by default from
    ``iter_pairs``) is cut down to `mask` and its largest disjoint family
    found by the per-pair DP; the first longest one wins."""
    best = (0, (), None)
    for m, rep in (ws.iter_pairs() if pairs is None else pairs) if mask else ():
        mm = m & mask
        if mm.bit_count() > best[0]:
            ln, members = _chain_in_pair_by_dp(ws.sides, ws.transverse, mm, rep)
            if ln > best[0]:
                best = (ln, members, rep)
    return best


def grid_through_wall_brute(ws, wall: int, n: int, cap: int = 200_000) -> tuple[bool, bool]:
    """Whether some (n,n)-grid has `wall` in one of its chains: (found, exact).

    One depth-first search per wall: chains through `wall` are grown as
    nested subsets of separation masks until n walls cross n others, and
    crossing chains are measured by `longest_chain_by_masks`.
    """
    if n == 1:
        return bool(ws.transverse[wall].any()), True
    all_pairs = list(ws.iter_pairs())
    pairs0 = [(m, r) for m, r in all_pairs if (m >> wall) & 1]
    state = {"nodes": 0, "exact": True, "found": False}
    crossing: dict[int, int] = {}

    def dfs(chain_mask, p, pairs, tmask, dmask, last):
        if state["found"]:
            return
        if state["nodes"] >= cap:
            state["exact"] = False
            return
        state["nodes"] += 1
        if tmask not in crossing:
            crossing[tmask] = longest_chain_by_masks(ws, tmask, all_pairs)[0]
        if crossing[tmask] < n:
            return
        if p >= n:
            state["found"] = True
            return
        ext = 0
        for m, _ in pairs:
            ext |= m
        ext &= dmask & ~chain_mask & ~(1 << wall)
        if last >= 0:
            ext = (ext >> (last + 1)) << (last + 1)
        if p + ext.bit_count() < n:
            return
        rest = ext
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            sub_pairs = [(m, r) for m, r in pairs if (m >> j) & 1]
            dfs(
                chain_mask | low,
                p + 1,
                sub_pairs,
                tmask & ws._trans_int[j],
                dmask & ws._disjoint_int[j],
                j,
            )

    if pairs0:
        dfs(1 << wall, 1, pairs0, ws._trans_int[wall], ws._disjoint_int[wall], -1)
    return state["found"], state["exact"]


# the capped chain search that grid_search and walls_in_grids ran before
# their pair table; an oracle only where it finishes under the cap
CHAIN_NODE_CAP = 1_000_000


def chain_search(ws, visit, cap: int, need: int = 1) -> tuple[int, bool]:
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
    # K is strictly around H iff K's complement is strictly inside H's
    # complement; complementing swaps the two halves of a row
    below, low = ws._nesting(), (1 << h) - 1
    comparable = [b | c >> h | (c & low) << h for b, c in zip(below, below[h:] + below[:h])]
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


def grid_pareto_by_chains(ws, cap: int = CHAIN_NODE_CAP) -> tuple[set[tuple[int, int]], bool]:
    """Pareto-maximal grid sizes (p >= q) by the chain search: for each
    chain length the longest chain crossing some chain of it, with a branch
    cut once longer chains already have crossings as long; (sizes, exact)."""
    table: dict[int, int] = {}

    def visit(chain, rep, cross, ext):
        p, qlen = len(chain), len(cross)
        table[p] = max(table.get(p, 0), qlen)
        return not all(
            max((q for pp, q in table.items() if pp >= p + t), default=0) >= qlen
            for t in range(1, ext.bit_count() + 1)
        )

    _, exact = chain_search(ws, visit, cap)
    sizes = {(max(p, q), min(p, q)) for p, q in table.items()}
    pareto = {k for k in sizes if not any(k2 != k and k2[0] >= k[0] and k2[1] >= k[1] for k2 in sizes)}
    return pareto, exact


def grid_walls_by_chains(ws, n: int, cap: int = CHAIN_NODE_CAP) -> tuple[frozenset[int], bool]:
    """The walls of some (n,n)-grid by the chain search over chains of at
    most n walls, each n-chain marked with its longest crossing chain; a
    branch is cut when it cannot reach n walls or holds no unmarked wall;
    (walls, exact)."""
    marked = 0

    def visit(chain, rep, cross, ext):
        nonlocal marked
        if len(chain) == n:
            for j in chain + cross:
                marked |= 1 << j
            return False
        for j in chain:
            ext |= 1 << j
        return ext.bit_count() >= n and bool(ext & ~marked)

    _, exact = chain_search(ws, visit, cap, n)
    return frozenset(j for j in range(ws.h) if (marked >> j) & 1), exact


def grid_answers_by_chains(ws, ns=(1, 2, 3, 4, 5)):
    """The chain search's Pareto grid sizes and, for each n in `ns`, the
    walls of its (n,n)-grids; an oracle only when no search hits its cap,
    so a capped one raises."""
    pareto, exact = grid_pareto_by_chains(ws)
    walls = {}
    for n in ns:
        walls[n], done = grid_walls_by_chains(ws, n)
        exact &= done
    if not exact:
        raise SizeCapError("the chain search stopped at its cap")
    return pareto, walls


def rectangle_sizes_bruteforce(g, max_cells: int = 64) -> set[tuple[int, int]]:
    """All (a, b) with an isometric [0,a]x[0,b] grid embedding, a <= b."""
    d = {v: bfs_dist(adj_dict(g), v) for v in g.ids}
    names = list(g.ids)
    found = set()
    n = len(names)

    def extend(assign: dict, cells: list, a: int, b: int) -> bool:
        if not cells:
            return True
        (i, j) = cells[0]
        used = set(assign.values())
        for v in names:
            if v in used:
                continue
            ok = True
            for (pi, pj), pv in assign.items():
                if d[pv][v] != abs(pi - i) + abs(pj - j):
                    ok = False
                    break
            if ok:
                assign[(i, j)] = v
                if extend(assign, cells[1:], a, b):
                    return True
                del assign[(i, j)]
        return False

    for a in range(1, n):
        for b in range(a, n):
            if (a + 1) * (b + 1) > min(n, max_cells):
                continue
            cells = [(i, j) for i in range(a + 1) for j in range(b + 1)]
            if extend({}, cells, a, b):
                found.add((a, b))
    return found


# embeddings grown by the exhaustive flat_rectangles enumeration
FLAT_STATE_CAP = 50_000


def _transpose(emb):
    return tuple(zip(*emb))


def _extend_right(g, emb):
    """All one-column extensions of an anchored rectangle embedding.

    The first cell of the new column branches over suitable neighbours; the
    rest of the column is forced by unique square completion (median graphs
    have no K_{2,3}).  Accepted extensions pass a full metric check of the
    new column against every existing cell.
    """
    d = g.dist
    adj = g.adj
    a = len(emb) - 1
    b = len(emb[0]) - 1
    used = {v for col in emb for v in col}
    base = emb[0][0]
    jj = np.arange(b + 1)
    col_gap = np.abs(jj[:, None] - jj[None, :])
    out = []
    for u in adj[emb[a][0]]:
        if u in used or d[u, base] != a + 1:
            continue
        col = [u]
        ok = True
        for j in range(1, b + 1):
            prev = col[j - 1]
            side = emb[a][j]
            cands = [
                w
                for w in adj[prev]
                if w in adj[side] and w != emb[a][j - 1] and w not in used and w not in col
            ]
            if len(cands) != 1:
                ok = False
                break
            col.append(cands[0])
        if not ok:
            continue
        new = np.array(col)
        if not (d[np.ix_(new, new)] == col_gap).all():
            continue
        good = True
        for i in range(a + 1):
            old = np.array(emb[i])
            if not (d[np.ix_(new, old)] == (a + 1 - i) + col_gap).all():
                good = False
                break
        if good:
            out.append(emb + (tuple(col),))
    return out


def flat_rectangles(g, cap: int = FLAT_STATE_CAP) -> tuple[list[FlatRectangle], str, int]:
    """Every flat rectangle of g (dedup by vertex set), grown from squares.

    This exhaustive enumeration serves the checks that need every rectangle's
    vertex set; sizes alone come from `diagnostics.max_thick_rectangle`.
    """
    g.require_median()
    adj = g.adj
    start = []
    for c in g.cubes():
        if c.dimension != 2:
            continue
        vs = [g.index[v] for v in sorted(c.vertices)]
        for p in vs:
            nb = [v for v in vs if v in adj[p]]
            opp = [v for v in vs if v != p and v not in nb][0]
            u1, u2 = nb
            for q, r in ((u1, u2), (u2, u1)):
                start.append(((p, r), (q, opp)))
    seen = set()
    queue = deque()
    for emb in start:
        key = (len(emb), len(emb[0]), emb[0][0], emb[-1][0], emb[0][-1], emb[-1][-1])
        if key not in seen:
            seen.add(key)
            queue.append(emb)
    states = 0
    exact = True
    by_set: dict[frozenset, FlatRectangle] = {}
    while queue:
        emb = queue.popleft()
        states += 1
        if states > cap:
            exact = False
            break
        a = len(emb) - 1
        b = len(emb[0]) - 1
        vset = frozenset(v for col in emb for v in col)
        if vset not in by_set:
            ids = tuple(tuple(g.ids[v] for v in col) for col in emb)
            by_set[vset] = FlatRectangle(a=a, b=b, embedding=ids)
        nxt = _extend_right(g, emb)
        nxt += [_transpose(e) for e in _extend_right(g, _transpose(emb))]
        for e in nxt:
            key = (len(e), len(e[0]), e[0][0], e[-1][0], e[0][-1], e[-1][-1])
            if key not in seen:
                seen.add(key)
                queue.append(e)
    return list(by_set.values()), EXACT if exact else LOWER_BOUND, states


def far_apart_brute(g, metric: str) -> np.ndarray:
    """Far-apart mask from neighbour lists: (x, y) is far apart when no
    neighbour of x is farther from y and no neighbour of y is farther from
    x.  Neighbours are those of g for l1 and of the cube cone-off for linf."""
    d = g.dist_matrix(metric)
    if metric == "l1":
        nbrs = g.adj
    else:
        nbrs = [np.flatnonzero(row) for row in g.linf_adjacency()]
    n = len(d)
    mask = np.zeros((n, n), dtype=bool)
    for x in range(n):
        for y in range(n):
            mask[x, y] = all(d[z, y] <= d[x, y] for z in nbrs[x]) and all(
                d[x, z] <= d[x, y] for z in nbrs[y]
            )
    return mask


def delta_scan_brute(d: np.ndarray):
    """Four-point constant of an integer distance table by the full scan of
    every pair (x, y) against every (u, v), one vectorised block per pair.

    Returns (value, (x, y, u, v) index witness or None); the witness is the
    first pair in row-major order reaching the best defect.
    """
    d = d.astype(np.int64)
    n = len(d)
    best = 0
    arg = None
    for x in range(n):
        dx = d[x]
        for y in range(x + 1, n):
            p1 = d[x, y] + d
            p2 = dx[:, None] + d[y][None, :]
            p3 = p2.T
            top = np.maximum(np.maximum(p1, p2), p3)
            bot = np.minimum(np.minimum(p1, p2), p3)
            gap = 2 * top - (p1 + p2 + p3 - bot)
            m = int(gap.max())
            if m > best:
                best = m
                u, v = np.unravel_index(int(gap.argmax()), gap.shape)
                arg = (x, y, int(u), int(v))
    return Fraction(best, 2), arg


def bigon_scan_brute(g, measure: np.ndarray, pairs=None) -> BigonReport:
    """Bigon thinness by the geodesic-DAG DP on every pair (x < y, in
    row-major order), or only on the index pairs given."""
    n = g.n
    d = g.dist
    adj = g.adj
    if pairs is None:
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    best = 0
    wit = None
    for x, y in pairs:
        dx = d[x]
        if dx[y] <= 1:
            continue
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
        val = int(F[x].max())
        if val > best:
            best = val
            wit = (g.ids[x], g.ids[y])
    return BigonReport(best, wit, EXACT)


def reduce_brute(dg, letters) -> list[str]:
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
        i = len(out) - 1
        while i >= 0 and out[i] != v and out[i] in adj[v]:
            i -= 1
        if i >= 0 and out[i] == v:
            del out[i]
        else:
            out.append(v)
    return out


def shortlex_brute(dg, letters) -> list[str]:
    """Lexicographically least word in the commutation class of a reduced word.

    Kahn's topological sort of the positions, where each letter stays after
    every earlier letter it does not commute with (an equal letter included);
    of the free positions the least (rank, position) goes next.
    """
    rank = dg.rank
    adj = dg.adj
    word = list(letters)
    later: list[list[int]] = [[] for _ in word]
    blockers = [0] * len(word)
    for j, v in enumerate(word):
        for i in range(j):
            if word[i] not in adj[v]:
                later[i].append(j)
                blockers[j] += 1
    free = [(rank[v], j) for j, v in enumerate(word) if not blockers[j]]
    heapq.heapify(free)
    out: list[str] = []
    while free:
        i = heapq.heappop(free)[1]
        out.append(word[i])
        for j in later[i]:
            blockers[j] -= 1
            if not blockers[j]:
                heapq.heappush(free, (rank[word[j]], j))
    return out


def normal_form_brute(dg, word) -> tuple[str, ...]:
    """Shortlex normal form: cancel, then sort the commutation class."""
    return tuple(shortlex_brute(dg, reduce_brute(dg, list(word))))


def ball_brute(dg, r: int, cap: int = 20000) -> RacgBall:
    """The Cayley ball by multiplying every form by every generator and
    renormalising the whole word, named and ordered as ``racg.ball`` names
    and orders it."""
    sep = next(c for c in ".|/~:" if not any(c in v for v in dg.vertices))
    ident = next(
        (c for c in ("e", "1", "id", "eps", "<identity>") if c not in dg.rank),
        "e" * (1 + max(map(len, dg.vertices))),
    )

    def fid(t):
        return sep.join(t) if t else ident

    forms, frontier = {()}, [()]
    edges, edge_letter = [], {}
    for ln in range(r):
        nxt = []
        for f in frontier:
            for v in dg.vertices:
                g = normal_form_brute(dg, f + (v,))
                if len(g) <= ln:
                    continue
                a, c = fid(f), fid(g)
                edges.append((a, c))
                edge_letter[(min(a, c), max(a, c))] = v
                if g not in forms:
                    forms.add(g)
                    nxt.append(g)
                    if len(forms) > cap:
                        raise SizeCapError(
                            f"ball exceeds the {cap}-vertex cap at radius {ln + 1}"
                        )
        frontier = nxt
    ordered = sorted(forms, key=lambda t: (len(t), [dg.rank[x] for x in t]))
    return RacgBall(
        graph=MedianGraph([fid(t) for t in ordered], edges),
        radius=r,
        forms={fid(t): t for t in ordered},
        identity=ident,
        separator=sep,
        edge_letter=edge_letter,
    )


def maximal_large_joins_brute(dg) -> tuple[frozenset[str], ...]:
    """Maximal large joins by closing every nonempty vertex subset A to the
    pair (N(N(A)), N(A)): 2^n subsets."""
    n = len(dg.vertices)
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


def induced_squares_brute(dg) -> list[tuple[str, ...]]:
    """Induced 4-cycles by testing all C(n, 4) vertex quadruples: each vertex
    of an induced square has exactly two neighbours among the other three."""
    out = []
    for quad in itertools.combinations(dg.vertices, 4):
        if all(
            sum(1 for u in quad if u != v and u in dg.adj[v]) == 2
            for v in quad
        ):
            out.append(quad)
    return out


def _complete_brute(adj, vs) -> bool:
    return all(b in adj[a] for a, b in itertools.combinations(vs, 2))


def validate_decomposition_brute(dg, members) -> DecompositionVerdict:
    """The three join-decomposition conditions, pair by pair and vertex by
    vertex, with the cover checked on every maximal large join.  The joins
    come from `maximal_large_joins`, which `maximal_large_joins_brute`
    checks; the subset scan itself would cost 2^n per call."""
    adj = dg.adj
    mem = [frozenset(m) for m in members]
    witness = None
    cover = True
    for J in maximal_large_joins(dg):
        if not any(J <= m for m in mem):
            cover = False
            witness = f"large join {sorted(J)} lies in no member"
            break
    inter = True
    for a, b in itertools.combinations(mem, 2):
        if not _complete_brute(adj, a & b):
            inter = False
            witness = witness or (
                f"members {sorted(a)} and {sorted(b)} have a non-complete intersection"
            )
            break
    closure = True
    for m in mem:
        for v in dg.vertices:
            if v not in m and not _complete_brute(adj, adj[v] & m):
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


def cp_closure_brute(dg, subset) -> frozenset[str]:
    s = frozenset(subset)
    adj = dg.adj
    return s | {v for v in dg.vertices if not _complete_brute(adj, adj[v] & s)}


def j_trace_brute(dg, seed_members) -> list[list[frozenset[str]]]:
    """The join-decomposition steps from a seed: members with a non-complete
    intersection, tested pair by pair, are linked, and each connected group
    is replaced by the closure of its union."""
    current = sorted(set(map(frozenset, seed_members)), key=sorted)
    trace = [current]
    while True:
        k = len(current)
        linked = [
            [j for j in range(k) if not _complete_brute(dg.adj, a & current[j])]
            for a in current
        ]
        seen, nxt = set(), set()
        for i in range(k):
            if i in seen:
                continue
            stack, union = [i], frozenset()
            seen.add(i)
            while stack:
                x = stack.pop()
                union |= current[x]
                for y in linked[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            nxt.add(cp_closure_brute(dg, union))
        nxt = sorted(nxt, key=sorted)
        if nxt == current:
            return trace
        current = nxt
        trace.append(current)


def count_cycles_through_edge(adj: dict[str, set[str]], edge, length: int, cap: int) -> int:
    """Simple cycles of exactly `length` edges through `edge`, counted once
    per cyclic class (each undirected cycle is found exactly once)."""
    a, b = edge
    count = 0
    # Each undirected cycle through {a, b} is traced exactly once as a path
    # a -> b -> ... -> u with u adjacent to a, so no double counting.
    stack = [(b, [a, b])]
    while stack:
        u, path = stack.pop()
        if len(path) - 1 == length - 1:
            if a in adj[u]:
                count += 1
                if count >= cap:
                    return count
            continue
        for w in adj[u]:
            if w not in path:
                stack.append((w, path + [w]))
    return count


def coxeter_generator_matrix(order: list[str], adj: dict[str, set[str]], v: str):
    """Integer reflection matrix of one generator.

    Acting on the span of the generators: the v-row sends the v-coordinate
    to its negative, ignores commuting generators and adds twice every
    non-commuting one.  Exact integer arithmetic, faithful for the group.
    """
    n = len(order)
    i = order.index(v)
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for c, u in enumerate(order):
        if u == v:
            rows[i][c] = -1
        elif u in adj[v]:
            rows[i][c] = 0
        else:
            rows[i][c] = 2
    return tuple(tuple(r) for r in rows)


def coxeter_mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[r][k] * B[k][c] for k in range(n)) for c in range(n))
        for r in range(n)
    )


def coxeter_word_matrix(order, adj, word):
    n = len(order)
    M = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    for v in word:
        M = coxeter_mat_mul(M, coxeter_generator_matrix(order, adj, v))
    return M


def coxeter_ball_oracle(order, adj, r: int):
    """BFS over matrix images: element count per word length up to r."""
    gens = {v: coxeter_generator_matrix(order, adj, v) for v in order}
    ident = tuple(tuple(1 if a == b else 0 for b in range(len(order))) for a in range(len(order)))
    dist = {ident: 0}
    frontier = [ident]
    for ln in range(r):
        nxt = []
        for M in frontier:
            for v in order:
                N = coxeter_mat_mul(M, gens[v])
                if N not in dist:
                    dist[N] = ln + 1
                    nxt.append(N)
        frontier = nxt
    return dist


def ball_walls_words_brute(dg, r: int, buffer: int, cap: int = 20000):
    """Walls of the Cayley ball from reflection words, by word rewriting.

    Returns (reflections, dual_edges, sides, transverse).  The wall of an
    edge (g, gv) is the reflection g v g^-1; a vertex y lies on the identity
    side iff multiplying by the reflection increases its length.  Crossings
    are certified by commuting squares based in the radius-(r + buffer) ball
    only, so the transversality table is a subset of the true one.
    """
    b = ball_brute(dg, r)
    wall_index: dict[tuple[str, ...], int] = {}
    dual: list[list[tuple[str, str]]] = []
    for iu, iw in b.graph.edges:
        uid, wid = b.graph.ids[iu], b.graph.ids[iw]
        fu, fw = b.forms[uid], b.forms[wid]
        g, _h = (fu, fw) if len(fu) < len(fw) else (fw, fu)
        v = b.edge_letter[(min(uid, wid), max(uid, wid))]
        refl = normal_form_brute(dg, g + (v,) + g[::-1])
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
        for k, vid in enumerate(b.graph.ids):
            y = b.forms[vid]
            sides[j, k] = len(reduce_brute(dg, t + y)) > len(y)
    trans = np.zeros((h, h), dtype=bool)
    comm = [
        (u, v)
        for u, v in itertools.combinations(dg.vertices, 2)
        if v in dg.adj[u]
    ]
    if comm:
        for g in ball_brute(dg, r + buffer, cap * 4).forms.values():
            for u, v in comm:
                w1 = normal_form_brute(dg, g + (u,) + g[::-1])
                i1 = wall_index.get(w1)
                if i1 is None:
                    continue
                w2 = normal_form_brute(dg, g + (v,) + g[::-1])
                i2 = wall_index.get(w2)
                if i2 is None or i1 == i2:
                    continue
                trans[i1, i2] = trans[i2, i1] = True
    return tuple(reflections), tuple(tuple(d) for d in dual), sides, trans


def free_reduce_brute(word):
    out = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def fg_fits_brute(p, r):
    """r = p u reduced, checked through reduction arithmetic: u is computed
    as p^-1 r and the concatenation p u must reduce without cancellation."""
    u = free_reduce_brute(tuple(-s for s in reversed(p)) + r)
    if free_reduce_brute(p + u) != r:
        return False
    return len(p) + len(u) == len(r)


def fp_concat_brute(factors, u, v):
    out = list(u)
    for fi, el in v:
        if out and out[-1][0] == fi:
            merged = factors[fi].mul(out[-1][1], el)
            out.pop()
            if not factors[fi].is_identity(merged):
                out.append((fi, merged))
        else:
            out.append((fi, el))
    return tuple(out)


def fp_inv_brute(factors, w):
    return tuple((fi, factors[fi].inv(el)) for fi, el in reversed(w))


def fp_fits_brute(factors, p, r):
    """r = p u weakly reduced: u = p^-1 r is formed by group arithmetic and
    the junction of p and u must not cancel (consolidation allowed)."""
    u = fp_concat_brute(factors, fp_inv_brute(factors, p), r)
    if fp_concat_brute(factors, p, u) != r:
        return False
    if not p or not u:
        return True
    fi, last = p[-1]
    fj, first = u[0]
    if fi != fj:
        return True
    return not factors[fi].is_identity(factors[fi].mul(last, first))


def symmetrize_closure_brute(p) -> SymmetrizedFamily:
    """The symmetrized family as a breadth-first closure: every member found
    is rotated by one letter (through group arithmetic for free products)
    and inverted, until nothing new appears."""
    if p.kind == FREE_GROUP:
        def moves(w):
            return w[1:] + w[:1], tuple(-s for s in reversed(w))

        key, note = (lambda w: (len(w), w)), ""
    else:
        def moves(w):
            return fp_concat_brute(p.factors, w[1:], w[:1]), fp_inv_brute(p.factors, w)

        key, note = (lambda w: (len(w), repr(w))), LETTER_BOUNDARY_NOTE
    members = set(p.relators)
    frontier = list(members)
    while frontier:
        for nxt in moves(frontier.pop()):
            if nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    ordered = tuple(sorted(members, key=key))
    return SymmetrizedFamily(p.kind, p, ordered, len(p.relators), note)


def sc_max_piece_brute(members, fits):
    """Longest p that is a prefix of some member and fits two distinct members."""
    best = 0
    for r in members:
        for m in range(len(r), best, -1):
            p = r[:m]
            hits = sum(1 for s in members if fits(p, s))
            if hits >= 2:
                best = max(best, m)
                break
    return best


def closed_walk_brute(adj: np.ndarray, h: int):
    """A length-h closed walk in a boolean digraph, or None, from boolean
    matrix powers: the lowest start on the diagonal of adj^h, then at each
    step the lowest successor with a walk of the remaining length back.
    Walk counts are int64: a uint8 product wraps to 0 at 256 walks."""
    n = adj.shape[0]
    if n == 0:
        return None
    powers = [np.eye(n, dtype=bool), adj]
    for _ in range(2, h + 1):
        powers.append((powers[-1].astype(np.int64) @ adj.astype(np.int64)) > 0)
    diag = np.nonzero(np.diag(powers[h]))[0]
    if diag.size == 0:
        return None
    start = int(diag[0])
    walk = [start]
    cur = start
    for remaining in range(h - 1, 0, -1):
        nxt = np.nonzero(adj[cur] & powers[remaining][:, start])[0]
        cur = int(nxt[0])
        walk.append(cur)
    return walk


# polygonal complex oracles


def wall_classes_brute(x):
    """Edge classes by closure over the opposite-in-a-polygon relation."""
    opp = {e: set() for e in x.edges}
    for eids in x.boundary_edges.values():
        m = len(eids)
        half = m // 2
        for i in range(m):
            opp[eids[i]].add(eids[(i + half) % m])
    left = set(x.edges)
    classes = []
    while left:
        seed = min(left)
        comp = {seed}
        queue = [seed]
        while queue:
            e = queue.pop()
            for f in opp[e]:
                if f not in comp:
                    comp.add(f)
                    queue.append(f)
        classes.append(frozenset(comp))
        left -= comp
    return sorted(classes, key=sorted)


def dual_orientations_brute(x):
    """Vertex names and single-flip edges of the cubulation of x's walls.

    Walls are the edge classes of ``wall_classes_brute`` with their sides
    found by search, lowest sorted side first.  Every one of the 2^h
    orientations whose chosen sides pairwise intersect is a vertex, named
    "o" followed by the chosen side of each wall; a finite wallspace's
    cubulation is connected, so that is the whole vertex set.
    """
    sides = []
    for cls in wall_classes_brute(x):
        adj = {v: set() for v in x.ids}
        for e, (a, b) in x.edges.items():
            if e not in cls:
                adj[a].add(b)
                adj[b].add(a)
        comps, left = [], set(x.ids)
        while left:
            comp = set(bfs_dist(adj, min(left)))
            comps.append(comp)
            left -= comp
        if len(comps) != 2:
            raise ValueError("every wall must have two sides")
        sides.append(sorted(comps, key=sorted))
    h = len(sides)
    names = {
        "o" + "".join(map(str, sigma))
        for sigma in itertools.product((0, 1), repeat=h)
        if all(
            sides[i][sigma[i]] & sides[j][sigma[j]]
            for i, j in itertools.combinations(range(h), 2)
        )
    }
    edges = set()
    for name in names:
        for k in range(1, h + 1):
            other = name[:k] + ("1" if name[k] == "0" else "0") + name[k + 1:]
            if other in names:
                edges.add(tuple(sorted((name, other))))
    return names, edges


def hyperplane_walls_brute(dc) -> tuple[int, ...]:
    """The wall each hyperplane of the dual ``dc`` flips, read off the
    ``hyperplanes()`` inventory: every dual edge of a hyperplane must change
    exactly one orientation coordinate, the same one for all of them, and
    the labels must biject with the walls."""
    labels = []
    for hp in dc.graph.hyperplanes():
        ks = set()
        for a, b in hp.dual_edges:
            flips = [
                k for k, (p, q) in enumerate(zip(dc.orientations[a], dc.orientations[b]))
                if p != q
            ]
            if len(flips) != 1:
                raise ConsistencyError("a dual edge flips more than one wall")
            ks.update(flips)
        if len(ks) != 1:
            raise ConsistencyError(f"hyperplane {hp.index} mixes walls {sorted(ks)}")
        labels.append(ks.pop())
    if sorted(labels) != list(range(len(dc.walls))):
        raise ConsistencyError("hyperplanes do not biject with walls")
    return tuple(labels)


def min_circular_cover_brute(m, arcs):
    """Exact minimum circular cover by subset enumeration."""
    full = set(range(m))
    arcs = sorted(arcs)
    for k in range(1, len(arcs) + 1):
        for combo in itertools.combinations(arcs, k):
            got = set()
            for s, length in combo:
                got.update((s + t) % m for t in range(length))
            if got == full:
                return k
    return None


def best_family_brute(members, compatible):
    """Size of the largest pairwise-compatible subset, by enumeration."""
    members = sorted(members)
    for k in range(len(members), 0, -1):
        for combo in itertools.combinations(members, k):
            if all(compatible(a, b) for a, b in itertools.combinations(combo, 2)):
                return k
    return 0
