"""Text formats shared by the library and the CLI.

Graph files (one item per line, order-insensitive, ``#`` starts a comment):

    vertex <id>
    edge <id> <id>

Subset files name vertex sets of a graph:

    sub <name> : <id> <id> ...

Polygonal complex files:

    vertex <id>
    edge <id> <v1> <v2>
    polygon <id> : +<edge> -<edge> ...

Presentation files (free group):

    generators a b
    param n = 1..3
    relator (a^n b^n)^5

Presentation files (free product):

    factor F1 free-abelian 2 a b
    factor F2 cyclic 7 c
    param n = 1..2
    relator (a^n c^n)^5

Relator expressions support juxtaposition, integer or affine exponents in the
declared parameter (n, -n, 2n, n+1, ...), parentheses, and commutators
``[x, y]`` = x y x^-1 y^-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormatError


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# -- graphs -------------------------------------------------------------------


def parse_graph(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    vertices: list[str] = []
    declared: set[str] = set()
    edges: list[tuple[str, str]] = []
    pending_edges: list[tuple[int, str, str]] = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise FormatError("vertex line needs exactly one id", lineno)
            if parts[1] in declared:
                raise FormatError(f"vertex {parts[1]!r} declared twice", lineno)
            declared.add(parts[1])
            vertices.append(parts[1])
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise FormatError("edge line needs exactly two ids", lineno)
            pending_edges.append((lineno, parts[1], parts[2]))
        else:
            raise FormatError(f"unknown directive {parts[0]!r}", lineno)
    for lineno, a, b in pending_edges:
        if a not in declared:
            raise FormatError(f"edge endpoint {a!r} is not a declared vertex", lineno)
        if b not in declared:
            raise FormatError(f"edge endpoint {b!r} is not a declared vertex", lineno)
        edges.append((a, b))
    if not vertices:
        raise FormatError("graph file declares no vertices")
    return vertices, edges


def serialize_graph(vertices, edges) -> str:
    out = [f"vertex {v}" for v in vertices]
    out += [f"edge {a} {b}" for a, b in edges]
    return "\n".join(out) + "\n"


def parse_subsets(text: str) -> dict[str, list[str]]:
    subs: dict[str, list[str]] = {}
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] != "sub":
            raise FormatError(f"unknown directive {parts[0]!r}", lineno)
        if len(parts) < 4 or parts[2] != ":":
            raise FormatError("expected: sub <name> : <id> <id> ...", lineno)
        name = parts[1]
        if name in subs:
            raise FormatError(f"subset {name!r} declared twice", lineno)
        subs[name] = parts[3:]
    if not subs:
        raise FormatError("subset file declares no sets")
    return subs


# -- polygonal complexes --------------------------------------------------------


@dataclass(frozen=True)
class RawComplex:
    vertices: list[str]
    edges: dict[str, tuple[str, str]]
    polygons: dict[str, list[tuple[str, int]]]  # (edge id, +1/-1) in cyclic order


def parse_polygons(text: str) -> RawComplex:
    vertices: list[str] = []
    declared: set[str] = set()
    edges: dict[str, tuple[str, str]] = {}
    polygons: dict[str, list[tuple[str, int]]] = {}
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise FormatError("vertex line needs exactly one id", lineno)
            if parts[1] in declared:
                raise FormatError(f"vertex {parts[1]!r} declared twice", lineno)
            declared.add(parts[1])
            vertices.append(parts[1])
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise FormatError("expected: edge <id> <v1> <v2>", lineno)
            eid, a, b = parts[1], parts[2], parts[3]
            if eid in edges:
                raise FormatError(f"edge {eid!r} declared twice", lineno)
            for v in (a, b):
                if v not in declared:
                    raise FormatError(f"edge endpoint {v!r} is not a declared vertex", lineno)
            edges[eid] = (a, b)
        elif parts[0] == "polygon":
            if len(parts) < 4 or parts[2] != ":":
                raise FormatError("expected: polygon <id> : +<edge> -<edge> ...", lineno)
            pid = parts[1]
            if pid in polygons:
                raise FormatError(f"polygon {pid!r} declared twice", lineno)
            boundary = []
            for token in parts[3:]:
                if token[0] == "+":
                    sign, eid = 1, token[1:]
                elif token[0] == "-":
                    sign, eid = -1, token[1:]
                else:
                    sign, eid = 1, token
                if eid not in edges:
                    raise FormatError(f"polygon references unknown edge {eid!r}", lineno)
                boundary.append((eid, sign))
            polygons[pid] = boundary
        else:
            raise FormatError(f"unknown directive {parts[0]!r}", lineno)
    if not vertices:
        raise FormatError("complex file declares no vertices")
    return RawComplex(vertices=vertices, edges=edges, polygons=polygons)


# -- presentations --------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"


@dataclass(frozen=True)
class FactorDecl:
    name: str
    kind: str  # "cyclic" | "free-abelian" | "free"
    order_or_rank: int
    generators: tuple[str, ...]


@dataclass(frozen=True)
class PresentationFile:
    kind: str  # "free" | "free-product"
    generators: tuple[str, ...]  # free-group mode
    factors: tuple[FactorDecl, ...]  # free-product mode
    param: str | None
    param_values: tuple[int, ...]
    relator_texts: tuple[str, ...]


def parse_presentation_file(text: str) -> PresentationFile:
    generators: list[str] = []
    factors: list[FactorDecl] = []
    param: str | None = None
    values: tuple[int, ...] = ()
    relators: list[str] = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        head = parts[0]
        if head == "generators":
            if factors:
                raise FormatError("cannot mix 'generators' and 'factor' lines", lineno)
            if len(parts) < 2:
                raise FormatError("generators line needs at least one name", lineno)
            for g in parts[1:]:
                if not re.fullmatch(_NAME, g):
                    raise FormatError(f"bad generator name {g!r}", lineno)
                if g in generators:
                    raise FormatError(f"generator {g!r} declared twice", lineno)
                generators.append(g)
        elif head == "factor":
            if generators:
                raise FormatError("cannot mix 'generators' and 'factor' lines", lineno)
            if len(parts) < 5:
                raise FormatError(
                    "expected: factor <name> <cyclic|free-abelian|free> <int> <gens...>",
                    lineno,
                )
            name, kind, num = parts[1], parts[2], parts[3]
            if kind not in ("cyclic", "free-abelian", "free"):
                raise FormatError(f"unknown factor kind {kind!r}", lineno)
            try:
                num_val = int(num)
            except ValueError:
                raise FormatError(f"bad integer {num!r}", lineno) from None
            gens = parts[4:]
            if kind == "cyclic" and len(gens) != 1:
                raise FormatError("a cyclic factor has exactly one generator", lineno)
            if kind in ("free-abelian", "free") and len(gens) != num_val:
                raise FormatError(
                    f"factor rank {num_val} needs {num_val} generators, got {len(gens)}",
                    lineno,
                )
            if kind == "cyclic" and num_val < 0:
                raise FormatError("cyclic order must be >= 0 (0 means infinite)", lineno)
            for g in gens:
                if not re.fullmatch(_NAME, g):
                    raise FormatError(f"bad generator name {g!r}", lineno)
            factors.append(FactorDecl(name, kind, num_val, tuple(gens)))
        elif head == "param":
            if param is not None:
                raise FormatError("only one param line is supported", lineno)
            m = re.fullmatch(rf"param\s+({_NAME})\s*=\s*(.+)", line)
            if not m:
                raise FormatError("expected: param <name> = 1..3 or 1,2,3", lineno)
            param = m.group(1)
            spec = m.group(2).strip()
            rng = re.fullmatch(r"(-?\d+)\s*\.\.\s*(-?\d+)", spec)
            if rng:
                lo, hi = int(rng.group(1)), int(rng.group(2))
                if hi < lo:
                    raise FormatError("empty parameter range", lineno)
                values = tuple(range(lo, hi + 1))
            else:
                try:
                    values = tuple(int(tok) for tok in spec.split(","))
                except ValueError:
                    raise FormatError(f"bad parameter values {spec!r}", lineno) from None
            if not values:
                raise FormatError("empty parameter set", lineno)
        elif head == "relator":
            body = line[len("relator") :].strip()
            if not body:
                raise FormatError("empty relator", lineno)
            relators.append(body)
        else:
            raise FormatError(f"unknown directive {head!r}", lineno)
    if not relators:
        raise FormatError("presentation declares no relators")
    if not generators and not factors:
        raise FormatError("presentation declares neither generators nor factors")
    dupes = set()
    for f in factors:
        for g in f.generators:
            if g in dupes:
                raise FormatError(f"generator {g!r} appears in two factors")
            dupes.add(g)
    return PresentationFile(
        kind="free" if generators else "free-product",
        generators=tuple(generators),
        factors=tuple(factors),
        param=param,
        param_values=values,
        relator_texts=tuple(relators),
    )


# -- relator expressions ---------------------------------------------------------

# Exponents are affine in the declared parameter: (coefficient, constant).
Affine = tuple[int, int]


@dataclass(frozen=True)
class GenAtom:
    name: str


@dataclass(frozen=True)
class GroupAtom:
    body: tuple


@dataclass(frozen=True)
class CommutatorAtom:
    left: tuple
    right: tuple


class _ExprParser:
    """Recursive-descent parser for relator expressions."""

    def __init__(self, text: str, param: str | None):
        self.text = text
        self.pos = 0
        self.param = param

    def fail(self, message: str):
        raise FormatError(f"relator {self.text!r}: {message} (at offset {self.pos})")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> tuple:
        expr = self.parse_sequence(stop=set())
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing junk")
        if not expr:
            self.fail("empty expression")
        return expr

    def parse_sequence(self, stop: set[str]) -> tuple:
        items = []
        while True:
            self.skip_ws()
            ch = self.peek()
            if not ch or ch in stop:
                return tuple(items)
            items.append(self.parse_item())

    def parse_item(self):
        atom = self.parse_atom()
        exp: Affine = (0, 1)
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            exp = self.parse_exponent()
        return (atom, exp)

    def parse_atom(self):
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            body = self.parse_sequence(stop={")"})
            if self.peek() != ")":
                self.fail("unclosed '('")
            self.pos += 1
            if not body:
                self.fail("empty group")
            return GroupAtom(body)
        if ch == "[":
            self.pos += 1
            left = self.parse_sequence(stop={","})
            if self.peek() != ",":
                self.fail("commutator needs ','")
            self.pos += 1
            right = self.parse_sequence(stop={"]"})
            if self.peek() != "]":
                self.fail("unclosed '['")
            self.pos += 1
            if not left or not right:
                self.fail("empty commutator side")
            return CommutatorAtom(left, right)
        m = re.match(_NAME, self.text[self.pos :])
        if not m:
            self.fail(f"expected a generator, '(' or '[', found {ch!r}")
        self.pos += m.end()
        return GenAtom(m.group(0))

    def parse_exponent(self) -> Affine:
        self.skip_ws()
        if self.peek() == "(":
            end = self.text.find(")", self.pos)
            if end < 0:
                self.fail("unclosed '(' in exponent")
            tok = self.text[self.pos + 1 : end].replace(" ", "")
            self.pos = end + 1
            return self._affine(tok)
        # without parentheses the exponent is a single whitespace-free token
        m = re.match(r"-?\d*[A-Za-z_][A-Za-z_0-9]*(?:[+-]\d+)?|-?\d+", self.text[self.pos :])
        if not m:
            self.fail("bad exponent")
        self.pos += m.end()
        return self._affine(m.group(0))

    def _affine(self, tok: str) -> Affine:
        m = re.fullmatch(r"(-?\d*)([A-Za-z_][A-Za-z_0-9]*)?([+-]\d+)?", tok)
        if not m:
            self.fail(f"bad exponent {tok!r}")
        coef_txt, name, const_txt = m.groups()
        if name is None:
            if const_txt or coef_txt in ("", "-"):
                self.fail(f"bad exponent {tok!r}")
            return (0, int(coef_txt))
        if self.param is None or name != self.param:
            self.fail(f"unknown exponent symbol {name!r}")
        coef = -1 if coef_txt == "-" else (1 if coef_txt == "" else int(coef_txt))
        const = int(const_txt) if const_txt else 0
        return (coef, const)


def parse_relator_expression(text: str, param: str | None) -> tuple:
    return _ExprParser(text, param).parse()


def evaluate_relator(expr: tuple, n_value: int | None) -> list[tuple[str, int]]:
    """Flatten an expression at a parameter value to a list of (gen, power)."""

    def eval_affine(aff: Affine) -> int:
        coef, const = aff
        if coef != 0 and n_value is None:
            raise FormatError("relator uses the parameter but no param line is declared")
        return coef * (n_value or 0) + const

    def eval_seq(seq: tuple) -> list[tuple[str, int]]:
        out: list[tuple[str, int]] = []
        for atom, aff in seq:
            power = eval_affine(aff)
            if power == 0:
                continue
            base = eval_atom(atom)
            block = base if power > 0 else invert(base)
            out.extend(block * abs(power))
        return out

    def eval_atom(atom) -> list[tuple[str, int]]:
        if isinstance(atom, GenAtom):
            return [(atom.name, 1)]
        if isinstance(atom, GroupAtom):
            return eval_seq(atom.body)
        if isinstance(atom, CommutatorAtom):
            left, right = eval_seq(atom.left), eval_seq(atom.right)
            return left + right + invert(left) + invert(right)
        raise TypeError(atom)

    def invert(word: list[tuple[str, int]]) -> list[tuple[str, int]]:
        return [(g, -p) for g, p in reversed(word)]

    try:
        return eval_seq(expr)
    finally:
        del eval_seq, eval_atom  # mutually recursive closures form a cycle
