"""Library-level helpers that only the tests call: builders for the example
quivers at sizes beyond ``corpus/``, the monomial eps^k of R_d, the residue
pairing and subring embedding of truncated scalars, a Gaussian rational kept
as a pair of ``Fraction`` values (the reference for ``GaussQ``), the
canonical-form check and the stored fields of a matrix, the matrix
transpose, the slices of a map over a subring, the stacked lowering of a
map to a subring and the stacked restrictions of scalars (the references
for ``rmatrix._lower`` and ``rmatrix.restrict_scalars*``), the base-field
blocks of a map read off its flat view, the scalar endomorphism c Id, the
identity endomorphism, the zero representation, the top-slice shift maps,
the gauge unit induced on a split vertex, the Coxeter order of a vertex
pair and the braid-word probe of the reflection functor."""

import math
from fractions import Fraction
from math import gcd

from qschemes.errors import NotDivisible, QschemeError, ShapeMismatch
from qschemes.linalg import Matrix, hstack, vstack
from qschemes.quiver import QuiverMult
from qschemes.reflect import phi, reflection_functor
from qschemes.repn import Representation
from qschemes.rmatrix import (
    ModShape,
    RMap,
    _lower,
    _slices,
    compose,
    from_slices,
    shift_end,
    trace_base,
    trace_r,
    zero_map,
)
from qschemes.scalars import GQ_ZERO, GaussQ, TruncScalar
from qschemes.weyl import COXETER_TABLE, check_params, reflect_param


def example_chain(d: int) -> QuiverMult:
    """Three-vertex chain j - i - k with multiplicities (d, 1, 1) on (j, i, k)."""
    return QuiverMult.build(
        [("i", 1), ("j", d), ("k", 1)],
        [("a", "j", "i"), ("b", "i", "k")],
    )


def example_double(d: int) -> QuiverMult:
    """Three-vertex chain with multiplicities (d, d, 1) on (j, i, k)."""
    return QuiverMult.build(
        [("i", d), ("j", d), ("k", 1)],
        [("a", "j", "i"), ("b", "i", "k")],
    )


def example_star(n: int, d: int) -> QuiverMult:
    """Length-one leg of multiplicity d on the head of an (n-2)-vertex tail.

    Vertices: leg (mult d), base (mult 1), then c1..c_{n-2} of mult 1.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    vertices = [("leg", d), ("base", 1)] + [(f"c{i}", 1) for i in range(1, n - 1)]
    arrows = [("t0", "base", "leg")]
    prev = "base"
    for i in range(1, n - 1):
        arrows.append((f"t{i}", prev, f"c{i}"))
        prev = f"c{i}"
    return QuiverMult.build(vertices, arrows)


def example_two_legs(n: int, d: int) -> QuiverMult:
    """Chain of n vertices with multiplicities (d, 1, ..., 1, d)."""
    if n < 4:
        raise ValueError("need at least four vertices")
    vertices = [("legL", d), ("baseL", 1)]
    vertices += [(f"m{i}", 1) for i in range(1, n - 3)]
    vertices += [("baseR", 1), ("legR", d)]
    names = [v[0] for v in vertices]
    arrows = [
        (f"t{i}", names[i], names[i + 1]) for i in range(len(names) - 1)
    ]
    return QuiverMult.build(vertices, arrows)


def eps(d: int, power: int = 1) -> TruncScalar:
    """The monomial eps^power in R_d (zero once power >= d)."""
    return TruncScalar(d, [int(k == power) for k in range(d)])


class FracPair:
    """A Gaussian rational as its real and imaginary parts, two ``Fraction``
    values, with schoolbook field arithmetic and the text form of ``GaussQ``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        return FracPair(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FracPair(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return FracPair(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        return FracPair((self.re * other.re + self.im * other.im) / n,
                        (self.im * other.re - self.re * other.im) / n)

    def __neg__(self):
        return FracPair(-self.re, -self.im)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"GaussQ({self.re!r}, {self.im!r})"


def slices_over(f: RMap, c: int) -> tuple:
    """The slices of f over R_c: the block ``rmatrix._lower`` cut into its c
    slices."""
    return _slices(_lower(f, c), c)


def lower_stacked(f: RMap, c: int) -> tuple:
    """The slices of f over R_c, c dividing f.base, stacked block by block.

    With r = f.base / c, slice m is the r x r grid whose block (t, s) is f's
    slice r*m + t - s (zero outside 0..f.base-1), with rows and columns
    reordered from (t, i, l) to (i, t, l).
    """
    r = f.base // c
    if r == 1:
        return f.parts
    f1, f2 = f.src.order // f.base, f.dst.order // f.base
    if not (f.src.rank and f.dst.rank):
        return (Matrix.zero(r * f.dst.rank * f2, r * f.src.rank * f1),) * c
    pad = [Matrix.zero(f.dst.rank * f2, f.src.rank * f1)] * (r - 1)
    parts = pad + list(f.parts) + pad
    out = tuple(vstack([hstack([parts[r * m + t - s + r - 1] for s in range(r)])
                        for t in range(r)]) for m in range(c))

    def interleave(n, q):
        return [t * n * q + i * q + l for i in range(n) for t in range(r) for l in range(q)]

    return tuple(a.take(interleave(f.dst.rank, f2), interleave(f.src.rank, f1)) for a in out)


def _interleave(n, r):
    """The t-major positions of the indices (i, t) listed i-major, for i < n, t < r."""
    return [t * n + i for i in range(n) for t in range(r)]


def restrict_stacked(x: RMap, src: ModShape, c: int) -> RMap:
    """restrict_scalars by stacking: slice a of the result stacks the slices
    a*q .. a*q+q-1 of x (q = d/c) and reorders the rows from (eps-power, i)
    to (i, eps-power)."""
    d = x.dst.order
    q = d // c
    xs = slices_over(x, d)
    if q == 1:
        return RMap(src, x.dst, c, xs)
    rows = _interleave(x.dst.rank, q)
    return RMap(src, x.dst, c, [vstack(xs[a * q:a * q + q]).take(rows) for a in range(c)])


def restrict_rev_stacked(y: RMap, dst: ModShape, c: int) -> RMap:
    """restrict_scalars_rev by stacking: slice a of the result joins the
    slices a*q+q-1 .. a*q of y side by side (q = d/c) and reorders the
    columns from (eps-power, j) to (j, eps-power)."""
    d = y.src.order
    q = d // c
    ys = slices_over(y, d)
    if q == 1:
        return RMap(y.src, dst, c, ys)
    cols = _interleave(y.src.rank, q)
    return RMap(y.src, dst, c,
                [hstack(ys[a * q:a * q + q][::-1]).take(cols=cols) for a in range(c)])


def fields(mat):
    """The stored fields of a matrix, for comparing canonical forms exactly."""
    return mat.nrows, mat.ncols, mat.den, mat.re, mat.im


def assert_canonical(mat):
    """den > 0 and coprime to the numerators; im None exactly when real; the
    blocks are tuples of tuples, so ``==`` never compares a list to a tuple."""
    assert len(mat.re) == mat.nrows and all(len(r) == mat.ncols for r in mat.re)
    for block in (mat.re, mat.im or ()):
        assert type(block) is tuple and all(type(r) is tuple for r in block)
    nums = [x for block in (mat.re, mat.im or []) for r in block for x in r]
    assert mat.den > 0 and gcd(mat.den, *nums) == 1
    assert (mat.im is None) == all(not x.im for r in mat.rows for x in r)
    if mat.im is not None:
        assert len(mat.im) == mat.nrows and all(len(r) == mat.ncols for r in mat.im)


def transpose(a: Matrix) -> Matrix:
    if not a.nrows:
        return Matrix.zero(a.ncols, 0)
    return Matrix([list(col) for col in zip(*a.rows)], ncols=a.nrows)


def parameter_block(f: RMap, base: int) -> Matrix:
    """The flat columns of an R_base-linear map at v_j eps^l, l < src.order/base,
    which determine it."""
    order = f.src.order
    return f.flat.take(cols=[j * order + l for j in range(f.src.rank)
                             for l in range(order // base)])


def top_block(f: RMap, base: int) -> Matrix:
    """The flat rows of an R_base-linear map at its top eps_base-power, w_i eps^l
    for l >= dst.order - dst.order/base, which determine it."""
    order = f.dst.order
    top = order - order // base
    return f.flat.take([i * order + l for i in range(f.dst.rank) for l in range(top, order)])


def residue_pair(f: TruncScalar, g: TruncScalar) -> GaussQ:
    """Pairing <f,g>_d: the eps^(d-1) coefficient of f*g."""
    f._check(g)
    d = f.d
    acc = GQ_ZERO
    for k in range(d):
        acc = acc + f.coeffs[k] * g.coeffs[d - 1 - k]
    return acc


def embed_subring(a: TruncScalar, d: int) -> TruncScalar:
    """Image of a in R_d under eps_c -> eps_d^(d/c), for c dividing d."""
    c = a.d
    if d % c != 0:
        raise NotDivisible(f"{c} does not divide {d}")
    step = d // c
    out = [GQ_ZERO] * d
    for k, coeff in enumerate(a.coeffs):
        out[k * step] = coeff
    return TruncScalar(d, out)


def scalar_end(c: TruncScalar, rank: int) -> RMap:
    """The endomorphism acting as the scalar c on a rank-n module: the zero
    map shifted by c."""
    shape = ModShape(rank, c.d)
    return shift_end(zero_map(shape, shape), c)


def identity_end(shape: ModShape) -> RMap:
    return scalar_end(TruncScalar(shape.order, [1]), shape.rank)


def zero_rep(q: QuiverMult, v) -> Representation:
    mults = q.mults
    maps = {}
    for h in q.double:
        maps[h.name] = zero_map(
            ModShape(v[h.source], mults[h.source]),
            ModShape(v[h.target], mults[h.target]),
        )
    return Representation(q, v, maps)


class TopSliceNotZero(QschemeError):
    code = "top-slice-not-zero"


def shift_decompose(a_end: RMap):
    """Split off the top eps-slice: A = eps^(d-1) top + rest."""
    parts = list(a_end.parts)
    d = a_end.src.order
    top = parts[d - 1]
    rest = from_slices(parts[:-1] + [Matrix.zero(top.nrows, top.ncols)], d)
    return top, rest


def shift_map(b_end: RMap, m: Matrix, zeta: GaussQ) -> RMap:
    """B - eps^(d-1) (m + zeta Id), for B with vanishing top slice."""
    parts = list(b_end.parts)
    d = b_end.src.order
    if not parts[d - 1].is_zero():
        raise TopSliceNotZero("input already has a top eps-slice")
    n = b_end.src.rank
    if m.nrows != n or m.ncols != n:
        raise ShapeMismatch("shift matrix has wrong size")
    top = -(m + Matrix.identity(n).scale(zeta))
    return from_slices(parts[:-1] + [top], d)


def split_gauge(q: QuiverMult, v, i, g) -> RMap:
    """Induced unit on the stacked slice module from a per-vertex gauge tuple.

    Block h acts by the source gauge element rewritten over the arrow's common
    subring and induced up to order d_i: its slice m over R_base becomes the
    block's slice m * f_out over R_{d_i}.
    """
    q_i = q.index(i)
    d_i = q.mults[q_i]
    arrows = q.incoming[q_i]
    dims = [h.f_in * v[h.source] for h in arrows]
    tilde = sum(dims)
    shape = ModShape(tilde, d_i)
    parts = [[[GQ_ZERO] * tilde for _ in range(tilde)] for _ in range(d_i)]
    offset = 0
    for h, dim in zip(arrows, dims):
        for m, gm in enumerate(slices_over(g[h.source], h.base)):
            block = parts[m * h.f_out]
            for r, row in enumerate(gm.rows):
                block[offset + r][offset:offset + dim] = row
        offset += dim
    return RMap(shape, shape, d_i, [Matrix(rows, ncols=tilde) for rows in parts])


INFINITE = math.inf


class SameVertex(QschemeError):
    code = "same-vertex"


def coxeter_order(q: QuiverMult, i, j):
    """Order of s_i s_j from the standard table on c_ij * c_ji."""
    i, j = q.index(i), q.index(j)
    if i == j:
        raise SameVertex("coxeter_order needs two distinct vertices")
    c = q.cartan.c
    return COXETER_TABLE.get(c[i][j] * c[j][i], INFINITE)


def braid_probe(rep: Representation, lam, i, j) -> dict:
    """Experimental comparison of the two alternating functor words at i, j.

    Applies the functor m times alternating starting from each of the two
    vertices (m the Coxeter order of the pair) and reports gauge-invariant
    data of both endpoints: traces of the products along each arrow pair and
    of powers of the vertex factorization component.  Whether these agree is
    a conjecture, so callers get a report, never an assertion.

    The input must satisfy the moment condition at both vertices; every
    intermediate parameter must stay a unit at its active vertex, otherwise
    the report marks the probe as not applicable.
    """
    q = rep.quiver
    i, j = q.index(i), q.index(j)
    m = coxeter_order(q, i, j)
    if m == INFINITE:
        return {"applicable": False, "reason": "infinite order pair"}

    def run_word(start):
        cur_rep, cur_lam = rep, check_params(q, lam)
        word = [start if k % 2 == 0 else (j if start == i else i) for k in range(m)]
        for vertex in word:
            if not cur_lam[vertex].is_unit():
                return None, word
            cur_rep = reflection_functor(cur_rep, vertex, cur_lam)
            cur_lam = reflect_param(q, vertex, cur_lam)
        return cur_rep, word

    out1, word1 = run_word(i)
    out2, word2 = run_word(j)
    if out1 is None or out2 is None:
        return {"applicable": False, "reason": "parameter became a non-unit"}

    def invariants(r):
        data = {}
        for h in q.double:
            if h.sign < 0:
                continue
            prod = compose(r.maps[h.reversed_name], r.maps[h.name])
            data[f"loop({h.name})"] = str(trace_base(prod, h.base))
        for vertex in (i, j):
            a, _ = phi(r, vertex)
            power = a
            for p in range(1, a.src.rank * a.src.order + 1):
                data[f"phi({q.name(vertex)})^{p}"] = str(trace_r(power))
                if p < a.src.rank * a.src.order:
                    power = compose(power, a)
        return data

    inv1, inv2 = invariants(out1), invariants(out2)
    return {
        "applicable": True,
        "words": [[q.name(x) for x in word1], [q.name(x) for x in word2]],
        "endpoint_dims": [list(out1.v), list(out2.v)],
        "invariants": [inv1, inv2],
        "agree": inv1 == inv2 and out1.v == out2.v,
    }
