"""Seeded input families for the benchmark, with the closed forms its checks use.

Every median graph here is a product of paths and trees; a hypercube Q_m is
the product of m single edges.  Hyperplanes, cubes, distances, grids and
flat rectangles of such a product follow from its factors alone, so the
checks never ask the code under test for the expected answer.  Distances
come from this file's own breadth-first search.
"""

from __future__ import annotations

import itertools
import random
from collections import deque


def bfs(adj: dict, source) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def adjacency(vertices, edges) -> dict:
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def median_count(adj: dict, triple) -> int:
    """Number of vertices on a geodesic between each pair of the triple."""
    x, y, z = triple
    dx, dy, dz = bfs(adj, x), bfs(adj, y), bfs(adj, z)
    return sum(
        1
        for m in adj
        if dx[m] + dy[m] == dx[y] and dy[m] + dz[m] == dy[z] and dx[m] + dz[m] == dx[z]
    )


def graph_text(vertices, edges, rng: random.Random) -> str:
    """Graph file with line order and edge orientation shuffled by the seed."""
    vs = list(vertices)
    es = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
    rng.shuffle(vs)
    rng.shuffle(es)
    lines = [f"vertex {v}" for v in vs] + [f"edge {a} {b}" for a, b in es]
    return "\n".join(lines) + "\n"


class Factor:
    """A path or a tree on vertices 0..n-1."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.edges = edges
        adj = adjacency(range(n), edges)
        self.dist = [bfs(adj, v) for v in range(n)]
        self.diameter = max(max(d.values()) for d in self.dist)

    @classmethod
    def path(cls, length: int) -> "Factor":
        return cls(length + 1, [(i, i + 1) for i in range(length)])

    @classmethod
    def tree(cls, n: int, rng: random.Random) -> "Factor":
        return cls(n, [(rng.randrange(i), i) for i in range(1, n)])


def cube_factors(m: int) -> list[Factor]:
    return [Factor.path(1) for _ in range(m)]


class Product:
    """Product of factors; vertex ``v3_0_1`` has coordinates (3, 0, 1)."""

    def __init__(self, factors: list[Factor]):
        self.factors = factors
        self.coords = list(itertools.product(*(range(f.n) for f in factors)))
        self.vertices = [self.name(c) for c in self.coords]
        self.edges = []
        for i, f in enumerate(factors):
            others = [range(g.n) for j, g in enumerate(factors) if j != i]
            for rest in itertools.product(*others):
                for a, b in f.edges:
                    ca = rest[:i] + (a,) + rest[i:]
                    cb = rest[:i] + (b,) + rest[i:]
                    self.edges.append((self.name(ca), self.name(cb)))

    @staticmethod
    def name(coord) -> str:
        return "v" + "_".join(map(str, coord))

    @staticmethod
    def coord(name: str) -> tuple[int, ...]:
        return tuple(int(t) for t in name[1:].split("_"))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def distance(self, x: str, y: str, metric: str) -> int:
        parts = [f.dist[a][b] for f, a, b in zip(self.factors, self.coord(x), self.coord(y))]
        return sum(parts) if metric == "l1" else max(parts)

    @property
    def hyperplane_count(self) -> int:
        return sum(f.n - 1 for f in self.factors)

    @property
    def dimension(self) -> int:
        """Every hyperplane of a product of nontrivial factors has this dimension."""
        return sum(1 for f in self.factors if f.n > 1)

    def cube_counts(self) -> dict[int, int]:
        """Cubes of dimension >= 1: the product of the factors' (n + (n-1) x)."""
        poly = [1]
        for f in self.factors:
            nxt = [0] * (len(poly) + 1)
            for k, c in enumerate(poly):
                nxt[k] += c * f.n
                nxt[k + 1] += c * (f.n - 1)
            poly = nxt
        return {k: c for k, c in enumerate(poly) if k >= 1 and c}

    def maximal_cube_count(self) -> int:
        count = 1
        for f in self.factors:
            if f.n > 1:
                count *= f.n - 1
        return count

    def grid_thinness(self) -> int:
        """Chains live inside one factor and cross every other factor's chains."""
        chains = sorted((f.diameter for f in self.factors if f.n > 1), reverse=True)
        return chains[1] if len(chains) > 1 else 0

    def rect_thickness(self) -> int:
        """Best split of the factors' chains into two mutually crossing sides."""
        chains = [f.diameter for f in self.factors if f.n > 1]
        total = sum(chains)
        best = 0
        for mask in range(1 << len(chains)):
            side = sum(c for i, c in enumerate(chains) if mask >> i & 1)
            best = max(best, min(side, total - side))
        return best


def odd_chord(p: Product, rng: random.Random) -> tuple[str, str]:
    """A non-edge joining two vertices at distance 2: it closes a triangle."""
    adj = adjacency(p.vertices, p.edges)
    while True:
        u = rng.choice(p.vertices)
        w = rng.choice(sorted(bfs(adj, u).items()))
        if w[1] == 2:
            return u, w[0]


# -- defining graphs (right-angled Coxeter groups) ---------------------------------

C4 = (list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
C5 = (list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
C6 = ([f"g{i}" for i in range(6)], [(f"g{i}", f"g{(i + 1) % 6}") for i in range(6)])
A_SQ = frozenset(["a1", "a2", "a3", "a4"])
B_SQ = frozenset(["b1", "b2", "b3", "b4"])
TWO_SQUARES = (
    ["a1", "a2", "a3", "a4", "m", "b1", "b2", "b3", "b4"],
    [
        ("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a1"),
        ("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b1"),
        ("a1", "m"), ("m", "b1"),
    ],
)


def random_defining(n: int, rng: random.Random):
    vs = [f"g{k}" for k in range(n)]
    es = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.4]
    return vs, es


def cliques(vertices, edges) -> list[int]:
    """Number of cliques of each size, the empty clique included."""
    adj = adjacency(vertices, edges)
    counts = [1]

    def grow(clique, candidates):
        for i, v in enumerate(candidates):
            size = len(clique) + 1
            if size == len(counts):
                counts.append(0)
            counts[size] += 1
            grow(clique + [v], [w for w in candidates[i + 1 :] if w in adj[v]])

    grow([], list(vertices))
    return counts


def racg_ball_sizes(vertices, edges, radius: int) -> tuple[int, int]:
    """Vertex and edge counts of the Cayley ball, from the growth series.

    With the clique polynomial f, the growth series is W(t) = 1/f(-t/(1+t))
    and the elements whose descent set holds a given generator number
    W(t)/(1+t), shifted by one.  So a ball has sum W_k vertices and
    |S| * sum (W/(1+t))_(k-1) edges.
    """
    c = cliques(vertices, edges)
    d = len(c) - 1
    terms = radius + 1

    def mul(p, q):
        out = [0] * terms
        for i, a in enumerate(p[:terms]):
            for j, b in enumerate(q[: terms - i]):
                out[i + j] += a * b
        return out

    def power(p, k):
        out = [1] + [0] * (terms - 1)
        for _ in range(k):
            out = mul(out, p)
        return out

    # W = (1+t)^d / P with P = sum_k c_k (-t)^k (1+t)^(d-k)
    den = [0] * terms
    for k, ck in enumerate(c):
        for i, a in enumerate(mul(power([0, -1], k), power([1, 1], d - k))):
            den[i] += ck * a
    num = power([1, 1], d)
    w = [0] * terms
    for i in range(terms):
        w[i] = num[i] - sum(den[j] * w[i - j] for j in range(1, i + 1))
    below = [0] * terms  # W/(1+t)
    for i in range(terms):
        below[i] = w[i] - (below[i - 1] if i else 0)
    return sum(w), len(vertices) * sum(below[: radius])


def square_vertices(vertices, edges) -> frozenset:
    adj = adjacency(vertices, edges)
    out = set()
    for quad in itertools.combinations(vertices, 4):
        if all(sum(1 for u in quad if u in adj[v]) == 2 for v in quad):
            out.update(quad)
    return frozenset(out)


# -- presentations -------------------------------------------------------------------


def power_relator(k: int) -> str:
    return f"generators a b\nparam n = 1,2,3\nrelator (a^n b^n)^{k}\n"


def commutator_relator(orders, k: int) -> str:
    p, q, r, s = orders
    return (
        f"factor P cyclic {p} a\nfactor Q cyclic {q} b\n"
        f"factor R cyclic {r} c\nfactor S cyclic {s} d\n"
        f"param n = 1,2\nrelator [(a b)^n, (c d)^n]^{k}\n"
    )


# -- polygonal complexes -------------------------------------------------------------


class Complex:
    """An even polygonal complex with its wall and dual closed forms."""

    def __init__(self, vertices, edges, polygons, walls, dual_vertices):
        self.vertices = vertices
        self.edges = edges  # id -> (a, b)
        self.polygons = polygons  # id -> [(edge id, sign)]
        self.walls = walls
        self.dual_vertices = dual_vertices

    def text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {e} {a} {b}" for e, (a, b) in self.edges.items()]
        for pid, boundary in self.polygons.items():
            signed = " ".join(("+" if s > 0 else "-") + e for e, s in boundary)
            lines.append(f"polygon {pid} : {signed}")
        return "\n".join(lines) + "\n"

    def sides(self) -> dict[str, int]:
        return {pid: len(b) for pid, b in self.polygons.items()}


def ngon(sides: int) -> Complex:
    """One 2k-gon: k walls, all crossing, so the dual is the k-cube."""
    vs = [f"v{i}" for i in range(sides)]
    es = {f"e{i}": (f"v{i}", f"v{(i + 1) % sides}") for i in range(sides)}
    return Complex(vs, es, {"P": [(f"e{i}", 1) for i in range(sides)]},
                   sides // 2, 2 ** (sides // 2))


def hex_chain(n: int) -> Complex:
    """n hexagons in a row sharing rungs.

    One wall runs along the rungs and each hexagon adds two more, so there
    are 2n + 1 walls.  Each hexagon's dual is a 3-cube and consecutive cubes
    share the edge dual to the rung wall: 8n - 2(n - 1) = 6n + 2 vertices.
    """
    vs, es, ps = [], {}, {}
    for i in range(n):
        vs += [f"t{i}a", f"t{i}b", f"b{i}a", f"b{i}b"]
        nt = f"t{i + 1}a" if i + 1 < n else "tend"
        nb = f"b{i + 1}a" if i + 1 < n else "bend"
        es[f"s{i}"] = (f"t{i}a", f"b{i}a")
        es[f"ta{i}"] = (f"t{i}a", f"t{i}b")
        es[f"tb{i}"] = (f"t{i}b", nt)
        es[f"ba{i}"] = (f"b{i}a", f"b{i}b")
        es[f"bb{i}"] = (f"b{i}b", nb)
        nxt = f"s{i + 1}" if i + 1 < n else "send"
        ps[f"P{i}"] = [(f"s{i}", -1), (f"ta{i}", 1), (f"tb{i}", 1),
                       (nxt, 1), (f"bb{i}", -1), (f"ba{i}", -1)]
    vs += ["tend", "bend"]
    es["send"] = ("tend", "bend")
    return Complex(vs, es, ps, 2 * n + 1, 6 * n + 2)


def square_chain(n: int) -> Complex:
    """n squares in a row: a 1-by-n grid, which is its own dual."""
    vs = [f"t{i}" for i in range(n + 1)] + [f"b{i}" for i in range(n + 1)]
    es = {f"r{i}": (f"t{i}", f"b{i}") for i in range(n + 1)}
    es.update({f"top{i}": (f"t{i}", f"t{i + 1}") for i in range(n)})
    es.update({f"bot{i}": (f"b{i}", f"b{i + 1}") for i in range(n)})
    ps = {f"P{i}": [(f"top{i}", 1), (f"r{i + 1}", 1), (f"bot{i}", -1), (f"r{i}", -1)]
          for i in range(n)}
    return Complex(vs, es, ps, n + 1, 2 * (n + 1))
