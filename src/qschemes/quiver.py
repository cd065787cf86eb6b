"""Quivers with multiplicities: data model, text DSL, Cartan data.

A ``QuiverMult`` is immutable and owns everything derived from its arrows
and multiplicities.  Its constructor validates the input and then computes,
once, the fields that the other modules read:

    mults     the multiplicity of each vertex;
    double    the arrows of the double quiver, originals first, then the
              reversals, each with its sign and common subring;
    incoming  per vertex, the double arrows that end there, in double order;
    cartan    the ``CartanData`` (adjacency counts, symmetrizer, Cartan matrix).

DSL grammar (whitespace-insensitive, '#' starts a line comment):

    file  :=  "quiver" "{" stmt* "}"
    stmt  :=  "vertex" IDENT "mult" INT
           |  "arrow" IDENT ":" IDENT "->" IDENT

Vertex order is declaration order and fixes the row/column order of every
matrix derived from the quiver.  Edge-loops are rejected at parse time;
parallel arrows are allowed and counted with multiplicity in the adjacency
matrix.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction

from .errors import (
    DuplicateName,
    EdgeLoopForbidden,
    InvalidMultiplicity,
    LengthMismatch,
    NegativeDimension,
    QuiverSyntaxError,
    UnknownVertex,
)


class Vertex(namedtuple("Vertex", "name mult")):
    __slots__ = ()


class Arrow(namedtuple("Arrow", "name source target")):
    __slots__ = ()


class QuiverMult:
    """Immutable quiver with a positive multiplicity at each vertex."""

    __slots__ = ("vertices", "arrows", "_index", "mults", "double", "incoming", "cartan")

    def __init__(self, vertices, arrows):
        vs = tuple(vertices)
        index = {}
        for v in vs:
            if v.mult < 1:
                raise InvalidMultiplicity(f"vertex {v.name}: multiplicity must be >= 1")
            if v.name in index:
                raise DuplicateName(f"vertex {v.name} declared twice")
            index[v.name] = len(index)
        seen = set()
        ars = tuple(arrows)
        for a in ars:
            if a.name in seen:
                raise DuplicateName(f"arrow {a.name} declared twice")
            seen.add(a.name)
            if not (0 <= a.source < len(vs)) or not (0 <= a.target < len(vs)):
                raise UnknownVertex(f"arrow {a.name}: endpoint out of range")
            if a.source == a.target:
                raise EdgeLoopForbidden(f"arrow {a.name} is an edge-loop")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "arrows", ars)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "mults", tuple(v.mult for v in vs))
        dbl = _double(self)
        object.__setattr__(self, "double", dbl)
        object.__setattr__(self, "incoming", tuple(
            tuple(h for h in dbl if h.target == i) for i in range(len(vs))))
        object.__setattr__(self, "cartan", _cartan(self))

    def __setattr__(self, name, value):
        raise AttributeError("QuiverMult is immutable")

    @staticmethod
    def build(vertices, arrows=()) -> "QuiverMult":
        """Construct from (name, mult) and (name, source_name, target_name) tuples."""
        vs = [Vertex(n, m) for n, m in vertices]
        index = {v.name: i for i, v in enumerate(vs)}
        ars = []
        for name, s, t in arrows:
            if s not in index:
                raise UnknownVertex(f"arrow {name}: unknown vertex {s}")
            if t not in index:
                raise UnknownVertex(f"arrow {name}: unknown vertex {t}")
            ars.append(Arrow(name, index[s], index[t]))
        return QuiverMult(vs, ars)

    # accessors ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, vertex) -> int:
        """Vertex index from a name or an already-valid index."""
        if isinstance(vertex, int):
            if 0 <= vertex < len(self.vertices):
                return vertex
            raise UnknownVertex(f"vertex index {vertex} out of range")
        if vertex in self._index:
            return self._index[vertex]
        raise UnknownVertex(f"unknown vertex {vertex!r}")

    def name(self, i) -> str:
        return self.vertices[i].name

    def __eq__(self, other):
        if not isinstance(other, QuiverMult):
            return NotImplemented
        return self.vertices == other.vertices and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"QuiverMult({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class DoubleArrow:
    """One arrow of the double: sign +1 for originals, -1 for reversals.

    Slotted rather than a namedtuple because the functor's loops read its
    fields, and a slot read is about twice as fast; it compares, hashes and
    prints as the tuple of its fields."""

    __slots__ = ("name", "source", "target", "sign",
                 "base",    # order of the common subring: gcd of the endpoint multiplicities
                 "f_out",   # target multiplicity / base
                 "f_in")    # source multiplicity / base

    def __init__(self, *fields):
        for slot, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("DoubleArrow is immutable")

    def _values(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if not isinstance(other, DoubleArrow):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self._values())
        return f"DoubleArrow({', '.join(fields)})"

    @property
    def reversed_name(self) -> str:
        return self.name[:-1] if self.sign < 0 else self.name + "~"


def _double(q: QuiverMult) -> tuple[DoubleArrow, ...]:
    """Arrows of the double quiver: originals first, then the reversals."""
    d = q.mults
    out = []
    for a in q.arrows:
        g = math.gcd(d[a.source], d[a.target])
        out.append(DoubleArrow(a.name, a.source, a.target, 1, g,
                               d[a.target] // g, d[a.source] // g))
    for a in q.arrows:
        g = math.gcd(d[a.source], d[a.target])
        out.append(DoubleArrow(a.name + "~", a.target, a.source, -1, g,
                               d[a.source] // g, d[a.target] // g))
    return tuple(out)


class CartanData(namedtuple("CartanData", (
    "a",        # symmetric adjacency counts of the double
    "aprime",   # a_ij / gcd(d_i, d_j), exact fractions
    "d",        # multiplicities (the symmetrizer diagonal)
    "c",        # generalized Cartan matrix 2*Id - A'D, integer
))):
    __slots__ = ()

    def dc_list(self):
        return [[self.d[i] * self.c[i][j] for j in range(len(self.d))]
                for i in range(len(self.d))]


def _cartan(q: QuiverMult) -> CartanData:
    """Cartan data of the underlying graph with multiplicities."""
    n = q.n
    d = q.mults
    a = [[0] * n for _ in range(n)]
    for ar in q.arrows:
        a[ar.source][ar.target] += 1
        a[ar.target][ar.source] += 1
    aprime = [
        [Fraction(a[i][j], math.gcd(d[i], d[j])) for j in range(n)] for i in range(n)
    ]
    c = [
        [
            (2 if i == j else 0) - a[i][j] * d[j] // math.gcd(d[i], d[j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return CartanData(
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in aprime),
        tuple(d),
        tuple(tuple(r) for r in c),
    )


def check_dims(q: QuiverMult, v, nonnegative=False) -> tuple[int, ...]:
    """v as a tuple, checked to have one entry per vertex (and, when asked,
    no negative entry)."""
    v = tuple(v)
    if len(v) != q.n:
        raise LengthMismatch(f"dimension vector has {len(v)} entries for {q.n} vertices")
    if nonnegative and any(x < 0 for x in v):
        raise NegativeDimension("negative entry in dimension vector")
    return v


def bilinear(q: QuiverMult, v, w) -> int:
    """Symmetric form (v, w) = v^T D C w on the lattice Z^I."""
    v, w = check_dims(q, v), check_dims(q, w)
    cd = q.cartan
    total = 0
    for i in range(q.n):
        row = cd.c[i]
        total += v[i] * cd.d[i] * sum(row[j] * w[j] for j in range(q.n))
    return total


def expected_dim(q: QuiverMult, v) -> int:
    """2 - (v, v) for a componentwise non-negative dimension vector."""
    v = check_dims(q, v, nonnegative=True)
    return 2 - bilinear(q, v, v)


# -- DSL ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|->|[{}:]|\S")


def _tokens(text):
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(body):
            yield m.group(0), lineno, m.start() + 1
    yield None, lineno if text else 1, 1


class _Parser:
    def __init__(self, text):
        self._it = _tokens(text)
        self.tok, self.line, self.col = next(self._it)

    def advance(self):
        self.tok, self.line, self.col = next(self._it)

    def fail(self, message):
        raise QuiverSyntaxError(message, self.line, self.col)

    def expect(self, literal):
        if self.tok != literal:
            self.fail(f"expected {literal!r}, found {self.tok!r}")
        self.advance()

    def ident(self, what):
        t = self.tok
        if t is None or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t):
            self.fail(f"expected {what}, found {self.tok!r}")
        self.advance()
        return t

    def integer(self, what):
        t = self.tok
        if t is None or not t.isdigit():
            self.fail(f"expected {what}, found {self.tok!r}")
        self.advance()
        return int(t)


def parse_quiver(text: str) -> QuiverMult:
    """Parse the DSL; positioned errors on malformed input."""
    p = _Parser(text)
    p.expect("quiver")
    p.expect("{")
    vertices, arrows, index = [], [], {}
    arrow_names = set()
    while p.tok != "}":
        if p.tok == "vertex":
            line, col = p.line, p.col
            p.advance()
            name = p.ident("vertex name")
            p.expect("mult")
            mult = p.integer("multiplicity")
            if mult < 1:
                raise QuiverSyntaxError("multiplicity must be >= 1", line, col)
            if name in index:
                raise QuiverSyntaxError(f"duplicate vertex {name}", line, col)
            index[name] = len(vertices)
            vertices.append(Vertex(name, mult))
        elif p.tok == "arrow":
            line, col = p.line, p.col
            p.advance()
            name = p.ident("arrow name")
            p.expect(":")
            src = p.ident("source vertex")
            p.expect("->")
            tgt = p.ident("target vertex")
            if name in arrow_names:
                raise QuiverSyntaxError(f"duplicate arrow {name}", line, col)
            if src not in index:
                raise QuiverSyntaxError(f"unknown vertex {src}", line, col)
            if tgt not in index:
                raise QuiverSyntaxError(f"unknown vertex {tgt}", line, col)
            if src == tgt:
                raise QuiverSyntaxError(f"arrow {name} is an edge-loop", line, col)
            arrow_names.add(name)
            arrows.append(Arrow(name, index[src], index[tgt]))
        elif p.tok is None:
            p.fail("unexpected end of input")
        else:
            p.fail(f"expected 'vertex', 'arrow' or '}}', found {p.tok!r}")
    p.advance()
    if p.tok is not None:
        p.fail(f"trailing input {p.tok!r}")
    return QuiverMult(vertices, arrows)


def serialize_quiver(q: QuiverMult) -> str:
    lines = ["quiver {"]
    for v in q.vertices:
        lines.append(f"  vertex {v.name} mult {v.mult}")
    for a in q.arrows:
        lines.append(f"  arrow {a.name} : {q.name(a.source)} -> {q.name(a.target)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(q: QuiverMult) -> str:
    lines = ["digraph quiver {"]
    for v in q.vertices:
        lines.append(f'  "{v.name}" [label="{v.name} (mult {v.mult})"];')
    for a in q.arrows:
        lines.append(f'  "{q.name(a.source)}" -> "{q.name(a.target)}" [label="{a.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
