"""Small-cancellation checkers for free-group and free-product presentations.

Covers symmetrization (inverses and cyclic conjugation, at letter boundaries
for free products), piece enumeration as maximal common prefixes, and the
C'(lambda) / T(q) verdicts with re-verifiable witnesses.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphInputError, ValidationError
from .formats import (
    PresentationFile,
    evaluate_relator,
    parse_presentation_file,
    parse_relator_expression,
)

FREE_GROUP = "free"
FREE_PRODUCT = "free-product"

CYCLIC = "cyclic"
FREE_ABELIAN = "free-abelian"
FREE = "free"

LETTER_BOUNDARY_NOTE = (
    "free-product cyclic conjugates are taken at letter boundaries "
    "(split-letter rotations excluded)"
)
SHORT_RELATOR_NOTE = "relators of free-product length < 2 are refused"


# -- factor arithmetic ---------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """One free factor: CYCLIC(p) (p=0 infinite), FREE_ABELIAN(r) or FREE(r).

    Elements are exact: residues, integer vectors, or reduced words of
    signed generator indices.  The identity is never stored as a letter.
    """

    name: str
    kind: str
    order_or_rank: int
    generators: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in (CYCLIC, FREE_ABELIAN, FREE):
            raise GraphInputError(f"unknown factor kind {self.kind!r}")
        if self.kind == CYCLIC and len(self.generators) != 1:
            raise GraphInputError("a cyclic factor has exactly one generator")
        if self.kind != CYCLIC and len(self.generators) != self.order_or_rank:
            raise GraphInputError("rank must match the number of generators")

    def letter(self, gen: str, power: int):
        i = self.generators.index(gen)
        if self.kind == CYCLIC:
            return self._norm_cyclic(power)
        if self.kind == FREE_ABELIAN:
            vec = [0] * self.order_or_rank
            vec[i] = power
            return tuple(vec)
        s = i + 1 if power > 0 else -(i + 1)
        return (s,) * abs(power)

    def _norm_cyclic(self, k: int):
        return k % self.order_or_rank if self.order_or_rank else k

    def check(self, x) -> None:
        if self.kind == CYCLIC:
            ok = isinstance(x, int) and (self.order_or_rank == 0 or 0 <= x < self.order_or_rank)
        elif self.kind == FREE_ABELIAN:
            ok = (
                isinstance(x, tuple)
                and len(x) == self.order_or_rank
                and all(isinstance(a, int) for a in x)
            )
        else:
            ok = (
                isinstance(x, tuple)
                and all(isinstance(s, int) and 0 < abs(s) <= self.order_or_rank for s in x)
                and all(x[i] != -x[i + 1] for i in range(len(x) - 1))
            )
        if not ok:
            raise GraphInputError(f"malformed element {x!r} in factor {self.name}")

    def mul(self, x, y):
        self.check(x)
        self.check(y)
        if self.kind == CYCLIC:
            return self._norm_cyclic(x + y)
        if self.kind == FREE_ABELIAN:
            return tuple(a + b for a, b in zip(x, y))
        return _free_reduce(x + y)

    def inv(self, x):
        self.check(x)
        if self.kind == CYCLIC:
            return self._norm_cyclic(-x)
        if self.kind == FREE_ABELIAN:
            return tuple(-a for a in x)
        return _inv_free(x)

    def is_identity(self, x) -> bool:
        if self.kind == CYCLIC:
            return x == 0
        if self.kind == FREE_ABELIAN:
            return all(a == 0 for a in x)
        return len(x) == 0

    def format_element(self, x) -> str:
        if self.kind == CYCLIC:
            g = self.generators[0]
            return g if x == 1 else f"{g}^{x}"
        if self.kind == FREE_ABELIAN:
            parts = [
                g if e == 1 else f"{g}^{e}"
                for g, e in zip(self.generators, x)
                if e != 0
            ]
            return " ".join(parts)
        return _format_free(self.generators, x)


def _format_free(generators, word) -> str:
    """Compact display of a free word of signed generator indices:
    a a a b^-1 b^-1 -> a^3 b^-2."""
    parts = []
    for s, run in itertools.groupby(word):
        name = generators[abs(s) - 1]
        e = len(list(run)) * (1 if s > 0 else -1)
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)


# -- presentations -------------------------------------------------------------------


@dataclass(frozen=True)
class FreeGroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]  # signed generator indices, 1-based

    @property
    def kind(self) -> str:
        return FREE_GROUP

    def display(self, word) -> str:
        return _format_free(self.generators, word)


@dataclass(frozen=True)
class FreeProductPresentation:
    factors: tuple[Factor, ...]
    relators: tuple[tuple[tuple[int, object], ...], ...]  # letters (factor, element)

    @property
    def kind(self) -> str:
        return FREE_PRODUCT

    def display(self, word) -> str:
        return "".join(
            f"({self.factors[fi].format_element(el)})" for fi, el in word
        )


def _free_reduce(word) -> tuple[int, ...]:
    out: list[int] = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _alternating(factors, gen2factor, letters, label: str):
    """Fold a raw (generator, power) stream into an alternating product."""
    stack: list[tuple[int, object]] = []
    for name, power in letters:
        if name not in gen2factor:
            raise ValidationError(f"relator {label}: unknown generator {name!r}")
        fi = gen2factor[name]
        el = factors[fi].letter(name, power)
        while True:
            if factors[fi].is_identity(el):
                break
            if stack and stack[-1][0] == fi:
                el = factors[fi].mul(stack[-1][1], el)
                stack.pop()
                continue
            stack.append((fi, el))
            break
    return tuple(stack)


def expand_family(pf: PresentationFile, values=None):
    """Instantiate the relator templates over the parameter values.

    Returns a FreeGroupPresentation or FreeProductPresentation with reduced
    (resp. alternating) relators, deduplicated, in declaration order.
    """
    if values is None:
        values = pf.param_values if pf.param else (None,)
    else:
        values = tuple(values)
        if not values:
            raise GraphInputError("empty parameter set")
    exprs = [parse_relator_expression(t, pf.param) for t in pf.relator_texts]
    raw: list[tuple] = []
    for text, expr in zip(pf.relator_texts, exprs):
        uses_param = _uses_param(expr)
        for v in values if uses_param else (None,):
            word = evaluate_relator(expr, v if v is not None else 0)
            label = text if v is None else f"{text} at {pf.param}={v}"
            raw.append((label, word))
    if pf.kind == FREE_GROUP and pf.generators:
        gidx = {g: i + 1 for i, g in enumerate(pf.generators)}
        rels: list[tuple[int, ...]] = []
        for label, word in raw:
            letters: list[int] = []
            for name, power in word:
                if name not in gidx:
                    raise ValidationError(f"relator {label}: unknown generator {name!r}")
                letters.extend([gidx[name] if power > 0 else -gidx[name]] * abs(power))
            red = _free_reduce(letters)
            if not red:
                raise ValidationError(f"relator {label} is trivial after reduction")
            if red[0] == -red[-1]:
                raise ValidationError(f"relator {label} is not cyclically reduced")
            rels.append(red)
        return FreeGroupPresentation(pf.generators, tuple(dict.fromkeys(rels)))
    factors = tuple(
        Factor(f.name, f.kind, f.order_or_rank, f.generators) for f in pf.factors
    )
    gen2factor = {g: i for i, f in enumerate(factors) for g in f.generators}
    rels2 = []
    for label, word in raw:
        alt = _alternating(factors, gen2factor, word, label)
        if not alt:
            raise ValidationError(f"relator {label} is trivial after reduction")
        if len(alt) > 1 and alt[0][0] == alt[-1][0]:
            f = factors[alt[0][0]]
            if f.is_identity(f.mul(alt[-1][1], alt[0][1])):
                raise ValidationError(
                    f"relator {label} is not weakly cyclically reduced"
                )
        rels2.append(alt)
    return FreeProductPresentation(factors, tuple(dict.fromkeys(rels2)))


def _uses_param(seq) -> bool:
    """Whether a power anywhere in an expression sequence uses the parameter."""
    for atom, (coef, _) in seq:
        if coef != 0:
            return True
        cls = type(atom).__name__
        if cls == "GroupAtom" and _uses_param(atom.body):
            return True
        if cls == "CommutatorAtom" and (_uses_param(atom.left) or _uses_param(atom.right)):
            return True
    return False


def presentation_from_text(text: str, values=None):
    return expand_family(parse_presentation_file(text), values)


# -- symmetrization ------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetrizedFamily:
    kind: str
    presentation: object
    members: tuple
    base_count: int
    note: str

    def display(self, word) -> str:
        return self.presentation.display(word)


def _inv_free(word):
    return tuple(-s for s in reversed(word))


def _inv_product(factors, word):
    return tuple((fi, factors[fi].inv(el)) for fi, el in reversed(word))


def _rotate_product(factors, word):
    head = word[0]
    rest = list(word[1:])
    if rest and rest[-1][0] == head[0]:
        f = factors[head[0]]
        merged = f.mul(rest[-1][1], head[1])
        if f.is_identity(merged):
            rest.pop()
        else:
            rest[-1] = (head[0], merged)
        return tuple(rest)
    rest.append(head)
    return tuple(rest)


def symmetrize(p) -> SymmetrizedFamily:
    """Close the relators under inverses and cyclic conjugation.

    The closure is the cyclic orbit of each relator and of its inverse: the
    walk rotates until it meets a word already seen.  The inverse of a
    rotation is a rotation of the inverse, so nothing else is needed.  A
    free-product relator whose end letters share a factor merges them on
    its first rotation; the merged word is cyclically reduced, so its orbit
    is the relator followed by the rotations of the merged word.
    """
    if p.kind == FREE_GROUP:
        rotate, inverse = (lambda w: w[1:] + w[:1]), _inv_free
        key, note = (lambda w: (len(w), w)), ""
    else:
        rotate = functools.partial(_rotate_product, p.factors)
        inverse = functools.partial(_inv_product, p.factors)
        key, note = (lambda w: (len(w), repr(w))), LETTER_BOUNDARY_NOTE
    members = set()
    for r in p.relators:
        for w in (r, inverse(r)):
            while w not in members:
                members.add(w)
                w = rotate(w)
    ordered = tuple(sorted(members, key=key))
    return SymmetrizedFamily(p.kind, p, ordered, len(p.relators), note)


# -- pieces --------------------------------------------------------------------------


def _fit_length(kind, r, s) -> int:
    """Longest m such that some common word p of length m admits weakly
    reduced decompositions r = p u and s = p u'.

    Free groups: the exact common prefix.  Free products: exact on the first
    m-1 letters, with the junction letter free to consolidate inside a
    shared factor.
    """
    m = min(len(r), len(s))
    e = 0
    while e < m and r[e] == s[e]:
        e += 1
    if kind == FREE_PRODUCT and e < m and r[e][0] == s[e][0]:
        return e + 1
    return e


def _fits(kind, p, r) -> bool:
    if len(p) > len(r):
        return False
    m = len(p)
    if kind == FREE_GROUP:
        return r[:m] == p
    return r[: m - 1] == p[: m - 1] and r[m - 1][0] == p[m - 1][0]


@dataclass(frozen=True)
class PieceRecord:
    word: str
    length: int
    relator: str
    other: str
    ratio: Fraction
    shortest_fit: int


@dataclass(frozen=True)
class PieceReport:
    kind: str
    records: tuple[PieceRecord, ...]
    max_length: int
    member_count: int
    note: str


def pieces(fam: SymmetrizedFamily) -> PieceReport:
    """Maximal pieces between distinct symmetrized members.

    Every prefix of a listed piece is itself a piece; only maximal
    representative words are reported.  The ratio uses the shortest member
    the piece fits into.
    """
    kind = fam.kind
    mem = fam.members
    best: dict[tuple, tuple] = {}
    for i, r in enumerate(mem):
        for j in range(i + 1, len(mem)):
            s = mem[j]
            m = _fit_length(kind, r, s)
            if m == 0:
                continue
            p = r[:m]
            if p not in best or len(best[p][0]) > len(r):
                best[p] = (r, s)
    words = list(best)
    words.sort(key=len, reverse=True)
    keep = []
    for w in words:
        if not any(_fits(kind, w, k) and len(k) > len(w) for k in keep):
            keep.append(w)
    records = []
    for p in keep:
        r, s = best[p]
        shortest = min(len(m) for m in mem if _fits(kind, p, m))
        records.append(
            PieceRecord(
                word=fam.display(p),
                length=len(p),
                relator=fam.display(r),
                other=fam.display(s),
                ratio=Fraction(len(p), shortest),
                shortest_fit=shortest,
            )
        )
    records.sort(key=lambda rec: (-rec.length, rec.word))
    return PieceReport(
        kind=kind,
        records=tuple(records),
        max_length=max((r.length for r in records), default=0),
        member_count=len(mem),
        note=fam.note,
    )


# -- verdicts ------------------------------------------------------------------------


@dataclass(frozen=True)
class CPrimeVerdict:
    passed: bool
    lam: Fraction
    witness: PieceRecord | None


@dataclass(frozen=True)
class TVerdict:
    passed: bool
    q: int
    witness: tuple[str, ...] | None
    detail: str


@dataclass(frozen=True)
class SCVerdict:
    kind: str
    cprime: CPrimeVerdict
    t: TVerdict
    member_count: int
    notes: tuple[str, ...]


def _cprime(fam: SymmetrizedFamily, lam: Fraction) -> CPrimeVerdict:
    kind = fam.kind
    mem = fam.members
    for i, r in enumerate(mem):
        bound = lam * len(r)
        m_best = 0
        j_best = -1
        for j, s in enumerate(mem):
            if j == i:
                continue
            m = _fit_length(kind, r, s)
            if m > m_best:
                m_best, j_best = m, j
        if m_best == 0:
            continue
        if Fraction(m_best) >= bound:
            rec = PieceRecord(
                word=fam.display(r[:m_best]),
                length=m_best,
                relator=fam.display(r),
                other=fam.display(mem[j_best]),
                ratio=Fraction(m_best, len(r)),
                shortest_fit=len(r),
            )
            return CPrimeVerdict(False, lam, rec)
    return CPrimeVerdict(True, lam, None)


def _closed_walk(succ: list[int], h: int):
    """A length-h closed walk in a digraph, or None.

    ``succ[i]`` is the bitmask of the successors of i.  ``reach[k][i]`` is
    the set of vertices i reaches in exactly k steps: the OR of
    ``reach[k - 1][j]`` over the successors j of i.  The walk starts at the
    lowest i in ``reach[h][i]`` and steps each time to the lowest successor
    that reaches the start in exactly the steps left.
    """
    heads = []
    for row in succ:
        out = []
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        heads.append(out)
    reach = [[1 << i for i in range(len(succ))]]
    for _ in range(h):
        prev = reach[-1]
        level = []
        for out in heads:
            row = 0
            for j in out:
                row |= prev[j]
            level.append(row)
        reach.append(level)
    start = next((i for i, row in enumerate(reach[h]) if row >> i & 1), None)
    if start is None:
        return None
    walk = [start]
    cur = start
    for remaining in range(h - 1, 0, -1):
        cur = next(j for j in heads[cur] if reach[remaining][j] >> start & 1)
        walk.append(cur)
    return walk


def _junction_rows(fam: SymmetrizedFamily) -> list[int]:
    """Successor bitmasks of the members: s follows r when the junction r s
    cancels a letter and s is not the inverse of r."""
    mem = fam.members
    index = {w: i for i, w in enumerate(mem)}
    starting = {}
    for j, w in enumerate(mem):
        starting[w[0]] = starting.get(w[0], 0) | 1 << j
    return [
        starting.get(-w[-1], 0) & ~(1 << index[_inv_free(w)]) for w in mem
    ]


def _cancel_rows(p) -> list[int]:
    """Successor bitmasks of the relators as given: s follows r when the last
    letter of r and the first of s lie in one factor and multiply to 1."""
    factors = p.factors
    rows = []
    for r in p.relators:
        fi, el = r[-1]
        row = 0
        for j, s in enumerate(p.relators):
            fj, fl = s[0]
            if fi == fj and factors[fi].is_identity(factors[fi].mul(el, fl)):
                row |= 1 << j
        rows.append(row)
    return rows


def _t_free_group(fam: SymmetrizedFamily, q: int) -> TVerdict:
    mem = fam.members
    succ = _junction_rows(fam)
    for h in range(3, q):
        walk = _closed_walk(succ, h)
        if walk is not None:
            return TVerdict(
                False,
                q,
                tuple(fam.display(mem[i]) for i in walk),
                f"cyclic {h}-tuple with every junction product non-reduced",
            )
    return TVerdict(True, q, None, f"no failing h-tuple for 3 <= h < {q}")


def _t_free_product(fam: SymmetrizedFamily, q: int) -> TVerdict:
    # both clauses quantify over the relators as given, not their cyclic
    # conjugates or inverses: multi-index commutator families acquire
    # all-cancelling rotation triples under the wider scan
    p = fam.presentation
    factors = p.factors
    rel = p.relators
    walk = _closed_walk(_cancel_rows(p), 3)
    if walk is not None:
        return TVerdict(
            False,
            q,
            tuple(p.display(rel[i]) for i in walk),
            "triple with none of rs, st, tr weakly reduced",
        )
    pools: dict[int, set] = {}
    for r in rel:
        for fi, el in r:
            pools.setdefault(fi, set()).add(el)
    for fi, pool in pools.items():
        f = factors[fi]
        for y1, y2, y3 in itertools.product(sorted(pool, key=repr), repeat=3):
            if f.is_identity(f.mul(f.mul(y1, y2), y3)):
                return TVerdict(
                    False,
                    q,
                    tuple(f.format_element(y) for y in (y1, y2, y3)),
                    f"letter triple multiplying to 1 in factor {f.name}",
                )
    return TVerdict(True, q, None, "triples and letter triples all pass")


def check_small_cancellation(p, lam, t: int = 4) -> SCVerdict:
    """C'(lambda) and T(t) verdicts for a presentation.

    lambda must lie in (0,1); t = 4 for free products, any t >= 4 for free
    groups.  All comparisons are exact rationals; a pass requires the strict
    inequality |p| < lambda |r| for every piece placement.
    """
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise GraphInputError("lambda must lie strictly between 0 and 1")
    if p.kind == FREE_PRODUCT:
        if t != 4:
            raise GraphInputError("free-product presentations support t = 4 only")
        for r in p.relators:
            if len(r) < 2:
                raise ValidationError(
                    f"relator {p.display(r)} has free-product length < 2; "
                    + SHORT_RELATOR_NOTE
                )
    else:
        if t < 4:
            raise GraphInputError("t must be at least 4")
    fam = symmetrize(p)
    cp = _cprime(fam, lam)
    tv = _t_free_group(fam, t) if p.kind == FREE_GROUP else _t_free_product(fam, t)
    notes = () if p.kind == FREE_GROUP else (LETTER_BOUNDARY_NOTE, SHORT_RELATOR_NOTE)
    return SCVerdict(
        kind=p.kind,
        cprime=cp,
        t=tv,
        member_count=len(fam.members),
        notes=notes,
    )
