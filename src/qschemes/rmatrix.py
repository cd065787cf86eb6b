"""Homomorphisms between free modules V (x) R_d, stored as matrix polynomials.

Over a subring R_c of R_d (c | d, eps_c = eps^(d/c)) the module V (x) R_d is
free with basis {v_j eps^l : l < d/c}, indexed j*(d/c) + l.  An R_c-linear
map V (x) R_d1 -> W (x) R_d2 is therefore a polynomial sum_{m<c} A_m eps_c^m
whose coefficients ("slices") A_m are (w*d2/c) x (v*d1/c) matrices over the
base field.  ``RMap`` keeps the c slices side by side in one ``Matrix``,
``block``: integer numerators over one canonical denominator.  Each
operation here builds its result's block in one pass of a ``linalg``
kernel (``poly_mul``, ``poly_inverse``, ``poly_scale``, ``poly_shift``,
``trace_dot``, ``block_toeplitz``) or one gather, and wraps it with the
trusted ``_rmap``; the validating ``RMap(...)``, ``from_slices`` and
``RMap.from_flat`` (which raises ``NotLinearOverBase`` for a matrix that is
not linear over the requested base) are for callers outside.  A scalar t of
R_d acts on an R_d-endomorphism f through ``scale_end`` (t f) and
``shift_end`` (f + t Id), both on t's integer numerators.  ``parts`` is a
view: the slices as matrices, cut from the block on each read.  ``_lower``
rewrites a block over a smaller subring and is the one rule for viewing a
map there;
``RMap.flat`` is its base-1 view, the matrix in the basis {v_j eps^k} at
index j*d + k that serialization prints.

Extension of scalars from R_c to R_d turns an R_c-linear map into an
R_d-linear one on (or into) the free R_c-module underneath, and restriction
undoes it.  ``extend_scalars``/``extend_scalars_rev`` are one gather of the
block, and ``restrict_scalars``/``restrict_scalars_rev`` gather one block
column or block row of ``_lower`` over R_c.  For q = d/c = 1 all four keep
the block, and extension returns the map itself when its shape is
unchanged.  Outside this module only ``reflect`` (splitting a
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
    _canon,
    _picker,
    _regroup,
    block_toeplitz,
    hstack,
    poly_inverse,
    poly_mul,
    poly_scale,
    poly_shift,
    trace_dot,
)
from .scalars import GaussQ, TruncScalar, _trunc_canon


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
    __slots__ = ("src", "dst", "base", "block")

    def __init__(self, src: ModShape, dst: ModShape, base: int, parts):
        parts = tuple(parts)
        _check(src, dst, base, len(parts) == base and {(p.nrows, p.ncols) for p in parts})
        _SET_SRC(self, src)
        _SET_DST(self, dst)
        _SET_BASE(self, base)
        _SET_BLOCK(self, hstack(parts))

    def __setattr__(self, name, value):
        raise AttributeError("RMap is immutable")

    @staticmethod
    def from_flat(src: ModShape, dst: ModShape, base: int, flat: Matrix) -> "RMap":
        """The map whose base-1 matrix is ``flat``, checked to be R_base-linear:
        the map its columns at v_j eps^l (l < src.order/base) determine."""
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
    def parts(self) -> tuple:
        """The slices, one ``Matrix`` each, cut from the block on every read."""
        return _slices(self.block, self.base)

    @property
    def flat(self) -> Matrix:
        """The matrix over the base field in the basis {v_j eps^k}, at j*order + k."""
        return _lower(self, 1)

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
        return self.block.is_zero()

    def _slicewise(self, other, op):
        """op applied to the blocks over the common base ring."""
        if self.src != other.src or self.dst != other.dst:
            raise ShapeMismatch("sum of maps with different shapes")
        c = math.gcd(self.base, other.base)
        return _rmap(self.src, self.dst, c, op(_lower(self, c), _lower(other, c)))

    def __add__(self, other):
        return self._slicewise(other, operator.add)

    def __sub__(self, other):
        return self._slicewise(other, operator.sub)

    def __neg__(self):
        return _rmap(self.src, self.dst, self.base, -self.block)

    def scale(self, c: GaussQ) -> "RMap":
        return _rmap(self.src, self.dst, self.base, self.block.scale(c))

    def __repr__(self):
        return (
            f"RMap({self.src.rank}x{self.src.order} -> "
            f"{self.dst.rank}x{self.dst.order} over R_{self.base})"
        )


_SET_SRC = RMap.src.__set__
_SET_DST = RMap.dst.__set__
_SET_BASE = RMap.base.__set__
_SET_BLOCK = RMap.block.__set__
_NEW = object.__new__


def _rmap(src: ModShape, dst: ModShape, base: int, block: Matrix) -> RMap:
    """The map src -> dst over R_base with the slices of ``block`` side by
    side, trusted to have the shape ``_check`` asks for (no checks)."""
    self = _NEW(RMap)
    _SET_SRC(self, src)
    _SET_DST(self, dst)
    _SET_BASE(self, base)
    _SET_BLOCK(self, block)
    return self


def _check(src, dst, base, shapes):
    """Raise unless base divides both orders and the set ``shapes`` holds
    just the slice shape (nrows, ncols) of a map src -> dst over R_base."""
    if base < 1 or src.order % base != 0 or dst.order % base != 0:
        raise NotDivisible(f"base {base} must divide orders {src.order}, {dst.order}")
    if shapes != {(dst.dim // base, src.dim // base)}:
        raise ShapeMismatch(f"need {base} slices of size {dst.dim // base}x{src.dim // base}")


def _slices(block: Matrix, c: int) -> tuple:
    """The c slices side by side in ``block``, as matrices."""
    n = block.ncols // c
    return tuple(block.take(cols=slice(m * n, m * n + n)) for m in range(c))


def _lower(f: RMap, c: int, ts=None, ss=None) -> Matrix:
    """The block of f over the subring R_c, for c dividing f.base.

    With r = f.base / c, v_j eps^(l + f1*s) (l < f1, s < r) is v_j eps^l
    times eps_base^s, so entry ((i, l2 + f2*t), (j, l1 + f1*s)) of slice m
    is entry ((i, l2), (j, l1)) of f's slice r*m + t - s, zero outside
    0..f.base-1: ``linalg.block_toeplitz``, of only the block rows t in
    ``ts`` or block columns s in ``ss`` when one is given.
    """
    if f.base % c != 0:
        raise NotLinearOverBase(f"map over R_{f.base} is not declared R_{c}-linear")
    r = f.base // c
    if r == 1:
        return f.block
    return block_toeplitz(f.block, f.base, r, f.dst.order // f.base, f.src.order // f.base,
                          ts or range(r), ss or range(r))


def zero_map(src: ModShape, dst: ModShape) -> RMap:
    base = math.gcd(src.order, dst.order)
    return _rmap(src, dst, base, Matrix.zero(dst.dim // base, src.dim))


def compose(f: RMap, g: RMap) -> RMap:
    """f after g: the truncated product of the two matrix polynomials over
    the common base gcd(f.base, g.base)."""
    if g.dst != f.src:
        raise ShapeMismatch(f"cannot compose: inner shapes {g.dst} vs {f.src}")
    c = math.gcd(f.base, g.base)
    return _rmap(g.src, f.dst, c, poly_mul(_lower(f, c), _lower(g, c), c))


def from_slices(parts: list[Matrix], order: int) -> RMap:
    if len(parts) != order:
        raise MismatchedOrder(f"need {order} slices, got {len(parts)}")
    shape = ModShape(parts[0].nrows, order)
    return RMap(shape, shape, order, parts)


def trace_base(f: RMap, c: int) -> TruncScalar:
    """Trace over R_c of a square map that is (at least) R_c-linear: the
    numerator traces of the slices of ``_lower(f, c)`` over its denominator."""
    if f.src != f.dst:
        raise NotEndomorphism("trace of a non-square map")
    b = _lower(f, c)
    n = b.nrows

    def traces(block):
        return tuple([sum([r[m * n + k] for k, r in enumerate(block)]) for m in range(c)])

    return _trunc_canon(c, traces(b.re), b.im and traces(b.im), b.den)


def trace_r(f: RMap) -> TruncScalar:
    """R_d-valued trace of an R_d-endomorphism."""
    if not f.is_end():
        raise NotEndomorphism("trace_r needs src == dst and base == order")
    return trace_base(f, f.src.order)


def pair_d(x: RMap, y: RMap, d: int) -> GaussQ:
    """Residue pairing <x,y>_d: eps^(d-1) coefficient of the R_d-trace of x.y,
    trace(sum_j x_j y_(d-1-j)) of the slices over R_d (``trace_dot``)."""
    if y.dst != x.src:
        raise ShapeMismatch(f"cannot compose: inner shapes {y.dst} vs {x.src}")
    c = math.gcd(x.base, y.base)
    if c % d != 0:
        raise NotLinearOverBase(f"composite is not R_{d}-linear")
    if y.src != x.dst:
        raise NotEndomorphism("trace of a non-square map")
    return trace_dot(_lower(x, d), _lower(y, d), d)


def pr_cd(z: RMap) -> RMap:
    """Average an R_c-linear endomorphism of V (x) R_d into an R_d-linear one.

    pr(Z) = sum_{k<d/c} N^k Z N^(d/c-1-k); it is adjoint to the inclusion of
    the R_d-endomorphisms into the R_c-endomorphisms: <pr(Z), Z'>_d = <Z, Z'>_c
    for every R_d-linear Z'.  On v_j, pr(Z) is sum_k eps^k Z(v_j eps^(q-1-k))
    with q = d/c, so the (l2, l1) block of slice m of Z lands in slice
    q*m + q-1 + l2 - l1 of the result, Z itself for q = 1.  Given l2 and the
    slice, m and l1 are unique where they exist: row i of the result is a
    sum over l2 of one gather from row (i, l2) of Z's block, which reads a
    zero appended to the row elsewhere.
    """
    if z.src != z.dst:
        raise ShapeMismatch("pr_cd needs a square map")
    (n, d), c, b = z.src, z.base, z.block
    q, w = d // c, b.ncols
    if q == 1:
        return z
    gets = []
    for l2 in range(q):
        at = []
        for p in range(d):
            e = p - q + 1 - l2     # = q m - l1
            m = -(-e // q)
            at += [m * w // c + j * q + q * m - e if 0 <= m < c else w for j in range(n)]
        gets.append(_picker(at))

    def gather_sum(block):
        rows = [r + (0,) for r in block]
        return tuple([tuple(map(sum, zip(*[g(rows[i * q + l2]) for l2, g in enumerate(gets)])))
                      for i in range(n)])

    return _rmap(z.src, z.dst, d,
                 _canon(gather_sum(b.re), b.im and gather_sum(b.im), b.den, d * n))


# -- base-field blocks and scalar extension --------------------------------------

def slice_extend(src: ModShape, dst: ModShape, base: int, block: Matrix) -> RMap:
    """R_base-linear map src -> dst from its free parameter block: the
    base-field matrix sending {v_j eps^l : l < src.order/base} into the
    target.  Slice m of its unique R_base-linear extension holds the rows of
    the block at target powers eps^(l + m*dst.order/base): one gather.
    """
    f_in = src.order // base
    f_out = dst.order // base
    n = block.ncols
    if block.nrows != dst.dim or n != src.rank * f_in:
        raise ShapeMismatch("parameter block has the wrong shape")
    if base > 1:
        block = _regroup(block, dst.order, [[(m * f_out + l) * n + j for m in range(base)
                                             for j in range(n)] for l in range(f_out)])
    return _rmap(src, dst, base, block)


def extend_scalars(f: RMap) -> RMap:
    """The R_d-linear map induced by an R_c-linear f: V (x) R_e -> W (x) R_d.

    Over R_c the source is free of rank f.src.dim / c; the result is the
    R_d-linear map on that free module (x) R_d which agrees with f on it.
    Row (i, l) of f's slice m is the coefficient at w_i eps^(m*q + l), q =
    d/c, so slice k of the result is rows l = k % q of f's slice k // q.
    """
    c, d = f.base, f.dst.order
    q = d // c
    src = ModShape(f.src.dim // c, d)
    if q == 1:
        return f if src == f.src else _rmap(src, f.dst, d, f.block)
    n, w = src.rank, f.block.ncols
    return _rmap(src, f.dst, d, _regroup(
        f.block, q, [[k % q * w + k // q * n + j for k in range(d) for j in range(n)]]))


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
        return f if dst == f.dst else _rmap(f.src, dst, d, f.block)
    v = f.src.rank
    return _rmap(f.src, dst, d, _regroup(f.block, 1, [
        [k // q * v * q + j * q + q - 1 - k % q for k in range(d) for j in range(v)]]))


def restrict_scalars(x: RMap, src: ModShape, c: int) -> RMap:
    """The R_c-linear map f on src with extend_scalars(f) == x, declared
    over its full order d: the s = 0 block column of ``_lower(x, c)``, whose
    slice a has entry ((i, t), (j, s)) = x_(qa+t-s)[i, j] for q = d/c."""
    d = x.dst.order
    if x.base != d:
        raise NotLinearOverBase(f"map over R_{x.base} is not declared R_{d}-linear")
    block = _lower(x, c, ss=(0,))
    _check(src, x.dst, c, {(block.nrows, x.src.rank)})
    return _rmap(src, x.dst, c, block)


def restrict_scalars_rev(y: RMap, dst: ModShape, c: int) -> RMap:
    """The R_c-linear map f into dst with extend_scalars_rev(f) == y,
    declared over its full order d: the t = q-1 block row of ``_lower(y, c)``."""
    d = y.src.order
    if y.base != d:
        raise NotLinearOverBase(f"map over R_{y.base} is not declared R_{d}-linear")
    block = _lower(y, c, ts=(d // c - 1,))
    _check(y.src, dst, c, {(block.nrows, block.ncols // c)})
    return _rmap(y.src, dst, c, block)


def _scalar_on(f: RMap, t: TruncScalar, what):
    """Raise unless f is a square map declared R_d-linear on V (x) R_d, d = t.d."""
    if f.src != f.dst:
        raise ShapeMismatch(f"{what} of a non-square map")
    if t.d != f.src.order:
        raise MismatchedOrder(f"scalar order {t.d} vs module order {f.src.order}")
    if f.base != t.d:
        raise NotLinearOverBase(f"map over R_{f.base} is not declared R_{t.d}-linear")


def scale_end(f: RMap, t: TruncScalar) -> RMap:
    """t f for a square map f declared R_d-linear on V (x) R_d and t in R_d:
    slices sum_{j<=m} t_j f_(m-j) (``poly_scale``); compose a map over a
    smaller base with the scalar map instead."""
    _scalar_on(f, t, "scalar multiple")
    return _rmap(f.src, f.dst, f.base, poly_scale(t.re, t.im, t.den, f.block))


def shift_end(f: RMap, t: TruncScalar) -> RMap:
    """f + t Id for a square map f declared R_d-linear on V (x) R_d and t in
    R_d: t_m is added to the diagonal of slice m (``poly_shift``).  The map
    t Id itself is ``shift_end`` of the zero map."""
    _scalar_on(f, t, "shift")
    n = f.src.rank
    re, im = ([(x,) * n for x in xs] if xs else None for xs in (t.re, t.im))
    return _rmap(f.src, f.dst, f.base, poly_shift(re, im, t.den, f.block))


def invert_end(g: RMap) -> RMap:
    """Inverse of a unit endomorphism (invertible constant slice), by
    ``poly_inverse`` of its block."""
    if not g.is_end():
        raise NotEndomorphism("inverse needs a full endomorphism")
    try:
        return _rmap(g.src, g.dst, g.base, poly_inverse(g.block, g.base))
    except NotInvertible:
        raise NotInvertible("constant slice is singular") from None
