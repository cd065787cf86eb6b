"""Homomorphisms between free modules V (x) R_d, stored as matrix polynomials.

Over a subring R_c of R_d (c | d, eps_c = eps^(d/c)) the module V (x) R_d is
free with basis {v_j eps^l : l < d/c}, indexed j*(d/c) + l.  An R_c-linear
map V (x) R_d1 -> W (x) R_d2 is therefore a polynomial sum_{m<c} A_m eps_c^m
whose coefficients ("slices") A_m are (w*d2/c) x (v*d1/c) matrices over the
base field.  ``RMap`` stores these c slices, so it is linear over its
declared base by construction.  An endomorphism with base == order has
n x n slices ``parts``: the matrix-polynomial coefficients xi_k that
``from_slices`` takes.

``_lower`` rewrites the slices over a smaller subring, the block-Toeplitz
expansion ``linalg.block_toeplitz`` (one integer gather per slice); it is
the one rule for viewing a map over a subring.
``compose`` is the truncated product of the slices over the common base,
``linalg.poly_mul``; ``pair_d`` reads the top coefficient of the trace of
that product with ``linalg.trace_dot`` and forms no composite.  Scalar
multiples form no product either: ``scalar_end`` builds each slice c_k I
from the coefficient's numerators (``Matrix.scalar``), and ``scale_end``,
for maps over their full order only, is ``linalg.poly_scale`` of the
scalar's coefficients and the slices.
``RMap.flat`` is the base-1 view: the (w*d2) x (v*d1) matrix in the basis
{v_j eps^k} at index j*d + k, which serialization prints.  Its validating
inverse ``RMap.from_flat``, for untrusted input, raises ``NotLinearOverBase``
when the matrix is not linear over the requested base; it and random draws
build maps from a base-field block with ``slice_extend``.

Extension of scalars from R_c to R_d turns an R_c-linear map into an
R_d-linear one on (or into) the free R_c-module underneath, and restriction
undoes it.  ``extend_scalars``/``extend_scalars_rev`` regroup the stored
slices, and their inverses ``restrict_scalars``/``restrict_scalars_rev``
gather one block column or block row of ``_lower`` over R_c.  When the map is
already linear over the extended order (q = d/c = 1) all four return the
stored slices as they are, and extension returns the map itself when its
shape is unchanged.  Outside this module only ``reflect`` (splitting a
representation at a vertex and putting it back together) calls them, which
``tests/test_layout.py`` enforces.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .errors import (
    MismatchedOrder,
    NotDivisible,
    NotEndomorphism,
    NotInvertible,
    NotLinearOverBase,
    ShapeMismatch,
)
from .linalg import (
    Matrix,
    block_toeplitz,
    inverse,
    poly_mul,
    poly_scale,
    trace_dot,
)
from .scalars import GaussQ, TruncScalar


class ModShape(namedtuple("ModShape", "rank order")):
    __slots__ = ()

    def __new__(cls, rank, order):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if order < 1:
            raise ValueError("order must be positive")
        return tuple.__new__(cls, (rank, order))

    @property
    def dim(self) -> int:
        """Base-field dimension rank * order."""
        return self.rank * self.order


class RMap:
    __slots__ = ("src", "dst", "base", "parts")

    def __init__(self, src: ModShape, dst: ModShape, base: int, parts):
        if base < 1 or src.order % base != 0 or dst.order % base != 0:
            raise NotDivisible(
                f"base {base} must divide orders {src.order}, {dst.order}"
            )
        parts = tuple(parts)
        nrows, ncols = dst.dim // base, src.dim // base
        if len(parts) != base:
            raise ShapeMismatch(f"need {base} slices of size {nrows}x{ncols}")
        for p in parts:
            if p.nrows != nrows or p.ncols != ncols:
                raise ShapeMismatch(f"need {base} slices of size {nrows}x{ncols}")
        _SET_SRC(self, src)
        _SET_DST(self, dst)
        _SET_BASE(self, base)
        _SET_PARTS(self, parts)

    def __setattr__(self, name, value):
        raise AttributeError("RMap is immutable")

    @staticmethod
    def from_flat(src: ModShape, dst: ModShape, base: int, flat: Matrix) -> "RMap":
        """The map whose base-1 matrix is ``flat``, checked to be R_base-linear.

        The columns at v_j eps^l (l < src.order/base) determine an
        R_base-linear map; ``flat`` must be the base-1 matrix of that map.
        """
        if base < 1 or src.order % base != 0 or dst.order % base != 0:
            raise NotDivisible(f"base {base} must divide orders {src.order}, {dst.order}")
        if flat.nrows != dst.dim or flat.ncols != src.dim:
            raise ShapeMismatch(f"flat is {flat.nrows}x{flat.ncols}, expected {dst.dim}x{src.dim}")
        f_in = src.order // base
        g = slice_extend(src, dst, base, flat.take(cols=[
            j * src.order + l for j in range(src.rank) for l in range(f_in)]))
        if g.flat != flat:
            raise NotLinearOverBase(f"matrix does not commute with eps^({f_in})")
        return g

    @property
    def flat(self) -> Matrix:
        """The matrix over the base field in the basis {v_j eps^k}, at j*order + k."""
        return _lower(self, 1)[0]

    # basics -------------------------------------------------------------------

    def is_end(self) -> bool:
        return self.src == self.dst and self.base == self.src.order

    def __eq__(self, other):
        if not isinstance(other, RMap):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        c = math.gcd(self.base, other.base)
        return _lower(self, c) == _lower(other, c)

    def __hash__(self):
        return hash((self.src, self.dst, self.flat))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def _slicewise(self, other, op):
        """op applied slice by slice over the common base ring."""
        if self.src != other.src or self.dst != other.dst:
            raise ShapeMismatch("sum of maps with different shapes")
        c = math.gcd(self.base, other.base)
        return RMap(
            self.src, self.dst, c,
            [op(a, b) for a, b in zip(_lower(self, c), _lower(other, c))],
        )

    def __add__(self, other):
        return self._slicewise(other, operator.add)

    def __sub__(self, other):
        return self._slicewise(other, operator.sub)

    def __neg__(self):
        return RMap(self.src, self.dst, self.base, [-p for p in self.parts])

    def scale(self, c: GaussQ) -> "RMap":
        return RMap(self.src, self.dst, self.base, [p.scale(c) for p in self.parts])

    def __repr__(self):
        return (
            f"RMap({self.src.rank}x{self.src.order} -> "
            f"{self.dst.rank}x{self.dst.order} over R_{self.base})"
        )


_SET_SRC = RMap.src.__set__
_SET_DST = RMap.dst.__set__
_SET_BASE = RMap.base.__set__
_SET_PARTS = RMap.parts.__set__


def _lower(f: RMap, c: int, ts=None, ss=None) -> tuple:
    """Slices of f over the subring R_c, for c dividing f.base.

    With r = f.base / c, the R_c-basis vector v_j eps^(l + f1*s) (l < f1, s < r)
    is v_j eps^l times eps_base^s.  Entry ((i, l2 + f2*t), (j, l1 + f1*s)) of
    slice m is therefore entry ((i, l2), (j, l1)) of f's slice r*m + t - s,
    and zero when that index falls outside 0..f.base-1: the block-Toeplitz
    expansion ``linalg.block_toeplitz``, one gather per slice, of only the
    block rows t in ``ts`` or block columns s in ``ss`` when one is given.
    """
    if f.base % c != 0:
        raise NotLinearOverBase(f"map over R_{f.base} is not declared R_{c}-linear")
    r = f.base // c
    if r == 1:
        return f.parts
    return tuple(block_toeplitz(f.parts, r, f.dst.order // f.base, f.src.order // f.base,
                                ts or range(r), ss or range(r)))


def zero_map(src: ModShape, dst: ModShape) -> RMap:
    base = math.gcd(src.order, dst.order)
    return RMap(src, dst, base, [Matrix.zero(dst.dim // base, src.dim // base)] * base)


def scalar_end(c: TruncScalar, rank: int) -> RMap:
    """The endomorphism acting as the scalar c on a rank-n module."""
    shape = ModShape(rank, c.d)
    return RMap(shape, shape, c.d, [Matrix.scalar(rank, x) for x in c.coeffs])


def compose(f: RMap, g: RMap) -> RMap:
    """f after g: the truncated product of the two matrix polynomials over
    the common base gcd(f.base, g.base)."""
    if g.dst != f.src:
        raise ShapeMismatch(f"cannot compose: inner shapes {g.dst} vs {f.src}")
    c = math.gcd(f.base, g.base)
    return RMap(g.src, f.dst, c, poly_mul(_lower(f, c), _lower(g, c)))


def from_slices(parts: list[Matrix], order: int) -> RMap:
    if len(parts) != order:
        raise MismatchedOrder(f"need {order} slices, got {len(parts)}")
    shape = ModShape(parts[0].nrows, order)
    return RMap(shape, shape, order, parts)


def trace_base(f: RMap, c: int) -> TruncScalar:
    """Trace over R_c of a square map that is (at least) R_c-linear."""
    if f.src != f.dst:
        raise NotEndomorphism("trace of a non-square map")
    if f.base % c != 0:
        raise NotLinearOverBase(f"map is not R_{c}-linear")
    return TruncScalar(c, [p.trace() for p in _lower(f, c)])


def trace_r(f: RMap) -> TruncScalar:
    """R_d-valued trace of an R_d-endomorphism."""
    if not f.is_end():
        raise NotEndomorphism("trace_r needs src == dst and base == order")
    return trace_base(f, f.src.order)


def pair_d(x: RMap, y: RMap, d: int) -> GaussQ:
    """Residue pairing <x,y>_d: eps^(d-1) coefficient of the R_d-trace of x.y.

    Over R_d that coefficient is trace(sum_j x_j y_(d-1-j)) of the slices
    x_j, y_j, which ``trace_dot`` reads without forming the composite.
    """
    if y.dst != x.src:
        raise ShapeMismatch(f"cannot compose: inner shapes {y.dst} vs {x.src}")
    c = math.gcd(x.base, y.base)
    if c % d != 0:
        raise NotLinearOverBase(f"composite is not R_{d}-linear")
    if y.src != x.dst:
        raise NotEndomorphism("trace of a non-square map")
    return trace_dot(_lower(x, d), reversed(_lower(y, d)))


def pr_cd(z: RMap) -> RMap:
    """Average an R_c-linear endomorphism of V (x) R_d into an R_d-linear one.

    pr(Z) = sum_{k<d/c} N^k Z N^(d/c-1-k); it is adjoint to the inclusion of
    the R_d-endomorphisms into the R_c-endomorphisms: <pr(Z), Z'>_d = <Z, Z'>_c
    for every R_d-linear Z'.  On v_j, pr(Z) is sum_k eps^k Z(v_j eps^(q-1-k))
    with q = d/c, so the (l2, l1) block of slice m of Z lands in slice
    q*m + q-1 + l2 - l1 of the result.  For q = 1 that is Z itself.
    """
    if z.src != z.dst:
        raise ShapeMismatch("pr_cd needs a square map")
    n, d = z.src.rank, z.src.order
    q = d // z.base
    if q == 1:
        return z
    out = [Matrix.zero(n, n)] * d
    for m, a in enumerate(z.parts):
        for l2 in range(q):
            for l1 in range(q):
                p = q * m + q - 1 + l2 - l1
                if p < d:
                    out[p] = out[p] + a.take(slice(l2, None, q), slice(l1, None, q))
    return RMap(z.src, z.dst, d, out)


# -- base-field blocks and scalar extension --------------------------------------

def slice_extend(src: ModShape, dst: ModShape, base: int, block: Matrix) -> RMap:
    """R_base-linear map src -> dst from its free parameter block.

    The block is the base-field matrix sending the slice {v_j eps^l : l <
    src.order/base} into the target; the unique R_base-linear extension
    fills in the remaining eps-powers.  Its slice m holds the rows of the
    block at target powers eps^(l + m*dst.order/base).
    """
    f_in = src.order // base
    f_out = dst.order // base
    if block.nrows != dst.dim or block.ncols != src.rank * f_in:
        raise ShapeMismatch("parameter block has the wrong shape")
    return RMap(src, dst, base, [
        block.take([i * dst.order + m * f_out + l
                    for i in range(dst.rank) for l in range(f_out)])
        for m in range(base)
    ])


def extend_scalars(f: RMap) -> RMap:
    """The R_d-linear map induced by an R_c-linear f: V (x) R_e -> W (x) R_d.

    Over R_c the source is free of rank f.src.dim / c; the result is the
    R_d-linear map on that free module (x) R_d which agrees with f on it.
    With q = d/c, row (i, l) of f's slice m is the coefficient at
    w_i eps^(m*q + l), so slice k of the result is rows l = k % q of slice
    k // q.
    """
    c, d = f.base, f.dst.order
    q = d // c
    src = ModShape(f.src.dim // c, d)
    if q == 1:
        return f if src == f.src else RMap(src, f.dst, d, f.parts)
    return RMap(src, f.dst, d,
                [f.parts[k // q].take(slice(k % q, None, q)) for k in range(d)])


def extend_scalars_rev(f: RMap) -> RMap:
    """The R_d-linear map induced by an R_c-linear f: V (x) R_d -> W (x) R_e.

    Over R_c the target is free of rank f.dst.dim / c; the result sends v to
    sum_{k<q} f(eps^(q-1-k) v) eps^k in that free module (x) R_d, q = d/c.
    Its slice k is therefore columns l = q-1 - k % q of f's slice k // q.
    """
    c, d = f.base, f.src.order
    q = d // c
    dst = ModShape(f.dst.dim // c, d)
    if q == 1:
        return f if dst == f.dst else RMap(f.src, dst, d, f.parts)
    return RMap(f.src, dst, d,
                [f.parts[k // q].take(cols=slice(q - 1 - k % q, None, q)) for k in range(d)])


def restrict_scalars(x: RMap, src: ModShape, c: int) -> RMap:
    """The R_c-linear map f on src with extend_scalars(f) == x.

    x is declared over its full order d.  Slice a of ``_lower(x, c)`` has
    entry ((i, t), (j, s)) = x_(qa+t-s)[i, j] with q = d/c, and slice a of f
    is its s = 0 block column, the only one gathered.
    """
    d = x.dst.order
    if x.base != d:
        raise NotLinearOverBase(f"map over R_{x.base} is not declared R_{d}-linear")
    return RMap(src, x.dst, c, _lower(x, c, ss=(0,)))


def restrict_scalars_rev(y: RMap, dst: ModShape, c: int) -> RMap:
    """The R_c-linear map f into dst with extend_scalars_rev(f) == y.

    y is declared over its full order d.  Slice a of f is the t = q-1 block
    row of slice a of ``_lower(y, c)`` (entries as in ``restrict_scalars``).
    """
    d = y.src.order
    if y.base != d:
        raise NotLinearOverBase(f"map over R_{y.base} is not declared R_{d}-linear")
    return RMap(y.src, dst, c, _lower(y, c, ts=(d // c - 1,)))


def scale_end(f: RMap, t: TruncScalar) -> RMap:
    """Multiply a square R_d-linear map on V (x) R_d by the scalar t of R_d.

    The slices of t f are sum_{j<=m} t_j f_(m-j) (``poly_scale``).  A map
    declared over a smaller base raises ``NotLinearOverBase``; compose it
    with ``scalar_end(t)`` instead.
    """
    if f.src != f.dst:
        raise ShapeMismatch("scalar multiple of a non-square map")
    if t.d != f.src.order:
        raise MismatchedOrder(f"scalar order {t.d} vs module order {f.src.order}")
    if f.base != t.d:
        raise NotLinearOverBase(f"map over R_{f.base} is not declared R_{t.d}-linear")
    return RMap(f.src, f.dst, f.base, poly_scale(t.coeffs, f.parts))


def invert_end(g: RMap) -> RMap:
    """Inverse of a unit endomorphism (invertible constant slice).

    With X_0 the inverse of the constant slice A_0 and C_j = -X_0 A_j, the
    slices of the inverse are X_k = sum_{1<=j<=k} C_j X_{k-j}.
    """
    if not g.is_end():
        raise NotEndomorphism("inverse needs a full endomorphism")
    try:
        x0 = inverse(g.parts[0])
    except NotInvertible:
        raise NotInvertible("constant slice is singular") from None
    cs = [-(x0 @ a) for a in g.parts[1:]]
    xs = [x0]
    for k in range(1, g.base):
        terms = [c @ x for c, x in zip(cs[:k], xs[::-1])]
        xs.append(sum(terms[1:], terms[0]))
    return RMap(g.src, g.dst, g.base, xs)
