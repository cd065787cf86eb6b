"""Dense exact linear algebra over the Gaussian rationals.

A ``Matrix`` stores integer numerators over one shared denominator: ``re``
holds the numerator rows of the real parts, ``im`` those of the imaginary
parts, and ``den`` the positive common denominator, so entry (i, j) is
(re[i][j] + i im[i][j]) / den.  The form is canonical: gcd(den, every
numerator) = 1, and ``im`` is None exactly when every entry is real.  Equal
matrices therefore have equal fields, and ``==`` and ``hash`` read the fields.
The blocks are tuples of tuples, so matrices can share them safely.
``GaussQ`` keeps the same form for one entry (``num_re``, ``num_im``,
``den``), so scalars cross the boundary on integers: ``Matrix(rows)`` and
``scale`` read their numerators, and entry access and the read-only
``rows`` view build ``GaussQ`` values from the integers on demand;
``Matrix.from_ints`` takes integer rows directly.  Degenerate shapes (0 rows
or 0 columns) are legal and arise naturally from zero dimension vectors.

Sums, scalar multiples, stacking, slicing (``take``) and the product work on
the integer numerators; a real operand takes no imaginary dot products.
A matrix polynomial with c slices is one block, its slices side by side;
``poly_mul`` (product), ``poly_scale`` (times a scalar polynomial),
``poly_shift`` (plus a diagonal matrix polynomial),
``trace_dot`` (top coefficient of the trace of a product) and
``block_toeplitz`` (the block over a subring) take and return blocks, one
pass over the numerators each; scalars and diagonals enter as numerators
over one denominator (for a scalar polynomial, ``scalars.TruncScalar``'s
fields).

Elimination (``_echelon``) is fraction-free Gauss-Jordan in the style of
Bareiss (Math. Comp. 22, 1968), over Z for real matrices and over Z[i]
otherwise.  Every row stays a nonzero multiple ``mult[i]`` of the row that
schoolbook elimination over the field would hold.  A pivot row is first
brought to the multiple p of the previous pivot; its pivot entry is then the
determinant of the leading pivot minor.  An eliminated row becomes
(pivot * row - f * pivot_row) / mult[i], whose entries are, by the Schur
complement, minors of the input: the division is exact in Z or Z[i] and
entries grow no faster than minors do.  Rows with a zero in the pivot column
are left alone.  The reduced row-echelon form is unique, so the results are
exactly those of schoolbook elimination over ``GaussQ``.

``solve`` and ``inverse`` are one exact solver over R_c = Q(i)[eps]/(eps^c)
on blocks of c slices (plain matrices at c = 1): a x = b means
sum_{j<=m} a_j x_(m-j) = b_m for every m.  One ``_echelon`` of [a | b],
pivots searched in a_0's k columns, leaves the top k rows e [I | H_1 .. |
G_0 ..] for one integer e (the last pivot, or its norm when it is not real)
and the rows below multiples of [0 | B_1 .. | F_0 ..].  The back-substitution
x_m = G_m - sum_{1<=j<=m} H_j x_(m-j) runs on the integers y_m = e^(m+1) x_m
= e^m (e G_m) + sum_j (-e^j H_j) y_(m-j): the sign is folded into the
weights, so slice m is one product of the rows [-e H_1 | -e^2 H_2 | ..] with
y_(m-1), .., y_0 stacked, plus e^m times slice m of the right-hand side
where b has one.  A row below the pivot rows must give F_m = sum_j B_j
x_(m-j) (at c = 1: a zero row), or the system is inconsistent.  ``inverse``
passes the identity as one slice, so the zero slices after it never enter the
elimination.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, lcm
from operator import add, itemgetter, mul, sub

from .errors import NotInvertible, ShapeMismatch
from .scalars import GQ_ZERO, GaussQ, _coerce, _entry


class Matrix:
    __slots__ = ("nrows", "ncols", "re", "im", "den")

    def __init__(self, rows, ncols=None):
        rows = [list(map(_coerce, r)) for r in rows]
        if rows:
            width = len(rows[0])
            if set(map(len, rows)) != {width}:
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            ncols = 0
        # the lcm of canonical denominators leaves gcd(den, numerators) = 1
        den = lcm(*{x.den for r in rows for x in r})
        im = tuple(tuple(x.num_im * (den // x.den) for x in r) for r in rows)
        _SET_NROWS(self, len(rows))
        _SET_NCOLS(self, ncols)
        _SET_RE(self, tuple(tuple(x.num_re * (den // x.den) for x in r) for r in rows))
        _SET_IM(self, im if any(map(any, im)) else None)
        _SET_DEN(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def zero(m, n) -> "Matrix":
        return _new(((0,) * n,) * m, None, 1, n)

    @staticmethod
    def from_ints(rows, ncols) -> "Matrix":
        """The real matrix of integer rows, each with ncols entries."""
        re = tuple(map(tuple, rows))
        if any(len(r) != ncols for r in re):
            raise ValueError("rows disagree with ncols")
        if not {int}.issuperset(map(type, chain.from_iterable(re))):
            raise TypeError("entries must be ints")
        return _new(re, None, 1, ncols)

    @staticmethod
    def identity(n) -> "Matrix":
        return _new(_diagonal(n, 1), None, 1, n)

    @property
    def rows(self) -> tuple:
        """The entries as ``GaussQ``, row by row (built on each read)."""
        den = self.den
        im = self.im or ((0,) * self.ncols,) * self.nrows
        return tuple(tuple(map(_entry, r, s, repeat(den))) for r, s in zip(self.re, im))

    def __getitem__(self, ij):
        i, j = ij
        return _entry(self.re[i][j], self.im[i][j] if self.im else 0, self.den)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.den == other.den
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.den, self.re, self.im))

    def __add__(self, other, sign=1):
        """self + sign * other."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return _canon(_lincomb(self.re, fa, other.re, fb),
                      _lincomb(self.im, fa, other.im, fb), den, self.ncols)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return _new(_times(self.re, -1), self.im and _times(self.im, -1), self.den, self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        if not (self.nrows and self.ncols and other.ncols):
            return Matrix.zero(self.nrows, other.ncols)
        re, im = _product(self.re, self.im, _columns(other.re),
                          other.im and _columns(other.im))
        return _canon(re, im, self.den * other.den, other.ncols)

    def scale(self, c) -> "Matrix":
        """The multiple c * self for a scalar c of Q(i)."""
        c = _coerce(c)
        return _scaled(self, c.num_re, c.num_im, c.den)

    def is_zero(self) -> bool:
        return self.im is None and not any(map(any, self.re))

    def take(self, rows=None, cols=None) -> "Matrix":
        """The submatrix on ``rows`` and ``cols``, each None (all of them), a
        slice, or a sequence of indices, which may repeat or reorder."""
        ncols = self.ncols
        if cols is not None:
            ncols = len(range(ncols)[cols] if type(cols) is slice else cols)
        return _canon(_gather(self.re, rows, cols),
                      self.im and _gather(self.im, rows, cols), self.den, ncols)

    def __str__(self):
        return "[" + "; ".join(" ".join(str(a) for a in r) for r in self.rows) + "]"


_SET_NROWS = Matrix.nrows.__set__
_SET_NCOLS = Matrix.ncols.__set__
_SET_RE = Matrix.re.__set__
_SET_IM = Matrix.im.__set__
_SET_DEN = Matrix.den.__set__
_NEW = object.__new__


def _new(re, im, den, ncols) -> Matrix:
    """A matrix from fields already in canonical form (no checks)."""
    self = _NEW(Matrix)
    _SET_NROWS(self, len(re))
    _SET_NCOLS(self, ncols)
    _SET_RE(self, re)
    _SET_IM(self, im)
    _SET_DEN(self, den)
    return self


def _canon(re, im, den, ncols) -> Matrix:
    """A matrix from equal-width integer rows over den > 0, brought to
    canonical form: a zero imaginary block is dropped, and den and the
    numerators are divided by their gcd."""
    if im is not None and not any(map(any, im)):
        im = None
    if den != 1:
        g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im or ()))
        if g != 1:
            re, im, den = _exact_div(re, g), im and _exact_div(im, g), den // g
    return _new(re, im, den, ncols)


def _scaled(a: Matrix, u, v, w) -> Matrix:
    """The multiple ((u + i v) / w) a, on the numerators."""
    # (u + i v)(re + i im) = (u re - v im) + i (v re + u im)
    re, im = a.re, a.im
    return _canon(_lincomb(re, u, im, -v), _lincomb(im, u, v and re, v), a.den * w, a.ncols)


def _diagonal(n, x):
    """The integer block x * I of size n."""
    zero = (0,) * n
    return tuple([zero[:i] + (x,) + zero[i + 1:] for i in range(n)])


def _gather(block, rows, cols):
    if rows is not None:
        block = block[rows] if type(rows) is slice else tuple(map(block.__getitem__, rows))
    if cols is None:
        return block
    return tuple(map(itemgetter(cols) if type(cols) is slice else _picker(cols), block))


def _times(block, f):
    return tuple([tuple(map(f.__mul__, r)) for r in block])


def _exact_div(block, g):
    return tuple([tuple(map(g.__rfloordiv__, r)) for r in block])


def _lincomb(a, fa, b, fb):
    """fa * a + fb * b for integer blocks of one shape; None is a zero block."""
    if b is None or not fb:
        return a if a is None or fa == 1 else _times(a, fa)
    if a is None or not fa:
        return b if fb == 1 else _times(b, fb)
    if fa != 1:
        a = _times(a, fa)
    if fb not in (1, -1):
        b = _times(b, fb)
    op = sub if fb == -1 else add
    return tuple([tuple(map(op, r, s)) for r, s in zip(a, b)])


def _dots(rows, cols):
    """Integer matrix product, from the rows of one factor and the columns of
    the other; each dot product stops at the shorter of its row and column."""
    return tuple([tuple([sum(map(mul, r, c)) for c in cols]) for r in rows])


def _product(ar, ai, br, bi):
    """Numerator blocks (re, im) of (ar + i ai)(b), from the rows ar, ai of
    one factor and the columns br, bi of the other; an imaginary part that is
    None is zero, and a real operand takes no imaginary dot products."""
    if bi is None:
        return _dots(ar, br), ai and _dots(ai, br)
    if ai is None:
        return _dots(ar, br), _dots(ar, bi)
    # (ar + i ai)(br + i bi) = (ar br - ai bi) + i (ar bi + ai br), in one
    # pass over the rows and columns
    cols = tuple(zip(br, bi))
    re, im = [], []
    for r0, r1 in zip(ar, ai):
        re.append(tuple([sum(map(mul, r0, c0)) - sum(map(mul, r1, c1)) for c0, c1 in cols]))
        im.append(tuple([sum(map(mul, r0, c1)) + sum(map(mul, r1, c0)) for c0, c1 in cols]))
    return tuple(re), tuple(im)


def _columns(block):
    return tuple(zip(*block))


def hstack(mats) -> Matrix:
    return _stack(list(mats), "nrows", _join_columns)


def vstack(mats) -> Matrix:
    return _stack(list(mats), "ncols", _join_rows)


def _join_columns(blocks):
    return tuple([tuple(chain.from_iterable(rs)) for rs in zip(*blocks)])


def _join_rows(blocks):
    return tuple(chain.from_iterable(blocks))


def _stack(mats, shared, join):
    """Join the numerator blocks of mats, which agree in ``shared``, over the
    lcm of their denominators."""
    if len(mats) == 1:
        return mats[0]
    if not mats:
        raise ValueError("stacking nothing")
    if len({getattr(a, shared) for a in mats}) != 1:
        raise ShapeMismatch(f"stacking matrices with differing {shared}")
    den, re, im = _over_lcm(mats)
    ncols = sum(a.ncols for a in mats) if shared == "nrows" else mats[0].ncols
    return _new(join(re), im and join(im), den, ncols)


def _over_lcm(mats):
    """(den, re, im): the numerator blocks of mats over the lcm of their
    denominators, with zero blocks for real ones when any has an ``im``.
    Joined, they stay canonical: a prime power exactly dividing the lcm
    exactly divides some denominator, whose matrix has a numerator the prime
    does not divide, and a cofactor the prime does not divide either."""
    den = lcm(*[a.den for a in mats])
    re = [a.re if a.den == den else _times(a.re, den // a.den) for a in mats]
    im = None
    if any(a.im is not None for a in mats):
        im = [((0,) * a.ncols,) * a.nrows if a.im is None
              else a.im if a.den == den else _times(a.im, den // a.den) for a in mats]
    return den, re, im


# -- matrix polynomials --------------------------------------------------------
#
# A matrix polynomial sum_{m<c} A_m eps^m with p x k slices A_m is one block:
# the p x (c k) matrix [A_0 | A_1 | .. | A_(c-1)] of ``rmatrix.RMap.block``.

def poly_mul(f: Matrix, g: Matrix, c: int) -> Matrix:
    """The block of f g truncated at degree c: slice m is sum_{j<=m} f_j g_(m-j).

    One slice is ``@``.  Otherwise a row of f is already its slices side by
    side, and column (m, j) of the result pairs it with column j of g_m,
    g_(m-1), .., g_0 stacked, as far as the shorter reaches (f_0 .. f_m).
    """
    if c == 1:
        return f @ g
    k, q = f.ncols // c, g.ncols // c
    if f.ncols != c * k or g.ncols != c * q or g.nrows != k:
        raise ShapeMismatch(f"{f.nrows}x{f.ncols} by {g.nrows}x{g.ncols} blocks of {c} slices")
    if not (f.nrows and k and q):
        return Matrix.zero(f.nrows, c * q)
    gre, gim = _columns(g.re), g.im and _columns(g.im)
    br = bi = ((),) * q
    cr, ci = [], []
    for m in range(0, c * q, q):
        br = tuple(map(add, gre[m:m + q], br))
        cr += br
        if gim:
            bi = tuple(map(add, gim[m:m + q], bi))
            ci += bi
    return _canon(*_product(f.re, f.im, cr, gim and ci), f.den * g.den, c * q)


def poly_scale(re, im, den, f: Matrix) -> Matrix:
    """The block of t f truncated at degree c = len(re), for the scalar
    polynomial t = sum_j (re[j] + i im[j]) / den eps^j given by its
    numerators (im None when real): slice m is sum_{j<=m} t_j f_(m-j).  Each
    entry is one dot product of the numerators with the entries of f_m, ..,
    f_0 there, read off a row of f with a negative stride; no product is
    formed.
    """
    c = len(re)
    if c == 1:
        return _scaled(f, re[0], im[0] if im else 0, den)
    q = f.ncols // c
    if f.ncols != c * q:
        raise ShapeMismatch(f"a block of {f.ncols} columns does not hold {c} slices")
    if not (f.nrows and q):
        return f
    at = [slice(e, None, -q) for e in range(c * q)]

    def dots(us, block):
        return tuple([tuple([sum(map(mul, us, r[s])) for s in at]) for r in block])

    # (u + i v)(re + i im) = (u re - v im) + i (v re + u im)
    fim = f.im
    out_re = _lincomb(dots(re, f.re), 1, im and fim and dots(im, fim), -1)
    out_im = _lincomb(im and dots(im, f.re), 1, fim and dots(re, fim), 1)
    return _canon(out_re, out_im, f.den * den, f.ncols)


def poly_shift(re, im, den, f: Matrix) -> Matrix:
    """The block of f + D for a block f of c = len(re) square n x n slices
    and the diagonal matrix polynomial D whose slice m has the diagonal
    entries (re[m][i] + i im[m][i]) / den, i < n, given by their numerators
    (im None when every entry is real): over the lcm of the denominators the
    diagonals change and nothing else does.
    """
    c, n = len(re), f.nrows
    if f.ncols != c * n:
        raise ShapeMismatch(f"a {n}x{f.ncols} block does not hold {c} square slices")
    w = f.den if f.den == den else lcm(f.den, den)
    ff, ft = w // f.den, w // den

    def shifted(block, diags):
        if block is None:
            block = ((0,) * f.ncols,) * n
        rows = []
        for i, r in enumerate(block):
            r = list(r) if ff == 1 else [x * ff for x in r]
            for m, ds in enumerate(diags):
                r[m * n + i] += ds[i] * ft
            rows.append(tuple(r))
        return tuple(rows)

    out_im = shifted(f.im, im) if im else _lincomb(f.im, ff, None, 0)
    return _canon(shifted(f.re, re), out_im, w, f.ncols)


def block_toeplitz(a: Matrix, b, r, f_rows, f_cols, ts, ss) -> Matrix:
    """The block over R_(b/r) of a block a of b slices over R_b.

    Slice rows come in groups (i, l) of ``f_rows`` and columns in groups
    (j, l') of ``f_cols``.  R_b is free over R_(b/r) on 1, e, .., e^(r-1),
    so slice m of the result has rows (i, t, l) and columns (j, s, l') for t
    in ts and s in ss, and there the entry ((i, l), (j, l')) of a's slice
    r m + t - s, zero outside 0..b-1.  Row (i, t, l) reads row i + l of a,
    padded by r - 1 zero slices on either side, at positions set by t: one
    gather per row.  The caller (``rmatrix._lower``) passes r > 1 dividing
    b and f_rows, f_cols dividing the slice shape, and all of range(r) as ts
    or ss, so every entry of a appears and the result keeps a's canonical
    form.
    """
    p, k = a.nrows, a.ncols // b
    ncols = b // r * len(ss) * k
    if not (p and k):
        return Matrix.zero(len(ts) * p, ncols)
    pad = (0,) * ((r - 1) * k)
    # column (m, j, s, l') of row (i, t, l) is (r m + t - s + r - 1) k + j + l'
    # of the padded row i + l
    at = [(r * m - s + r - 1) * k + j + l for m in range(b // r)
          for j in range(0, k, f_cols) for s in ss for l in range(f_cols)]
    get = {t: _picker([t * k + x for x in at]) for t in ts}
    rows = [(i + l, get[t]) for i in range(0, p, f_rows) for t in ts for l in range(f_rows)]

    def expand(block):
        padded = [pad + row + pad for row in block]
        return tuple([g(padded[i]) for i, g in rows])

    return _new(expand(a.re), a.im and expand(a.im), a.den, ncols)


def trace_dot(x: Matrix, y: Matrix, c: int) -> GaussQ:
    """trace(sum_j x_j y_(c-1-j)), the top coefficient of the trace of x y,
    for blocks of c slices x_j (p x k) and y_j (k x p): one dot product of
    the entries (a, j, b) of x with y_(c-1-j)[b, a], and no product matrix.
    """
    p, k = x.nrows, y.nrows
    if x.ncols != c * k or y.ncols != c * p:
        raise ShapeMismatch("trace_dot needs blocks of slices x_j, y_j with x_j y_j square")
    if not (p and k):
        return GQ_ZERO
    get = _picker([(c - 1 - j) * p + a for a in range(p) for j in range(c)])
    ar, ai = (b and (_flat(b),) for b in (x.re, x.im))
    br, bi = (b and (_flat(get(_columns(b))),) for b in (y.re, y.im))
    re, im = _product(ar, ai, br, bi)
    return _entry(re[0][0], im[0][0] if im else 0, x.den * y.den)


def _regroup(a: Matrix, q, patterns) -> Matrix:
    """Per run of q rows of a joined end to end, one row of its entries at
    each index list of ``patterns``, over a's denominator.  The callers keep
    every entry of a, so the result is canonical as it stands."""
    gets = [_picker(p) for p in patterns]

    def rows(block):
        if q > 1:
            block = [_flat(block[i:i + q]) for i in range(0, len(block), q)]
        return tuple([g(r) for r in block for g in gets])

    return _new(rows(a.re), a.im and rows(a.im), a.den, len(patterns[0]))


def _picker(index):
    """A function taking the items of a sequence at ``index``, as a tuple."""
    if len(index) > 1:
        return itemgetter(*index)
    return lambda seq: tuple(map(seq.__getitem__, index))


def _flat(block):
    return tuple(chain.from_iterable(block))


def _echelon(rows, ncols, im=None, mult=None):
    """Fraction-free Gauss-Jordan elimination in place; return the pivot
    columns (leftmost-first).

    ``rows`` are integer rows of equal width and ``im`` their imaginary
    parts (None when every entry is real).  Pivots are searched in the first
    ``ncols`` columns; the row operations act on whole rows.  Afterwards row
    i is ``mult[i]`` times the row that schoolbook elimination over the field
    leaves there: for k < len(pivots) the k-th row of the reduced row-echelon
    form, below that what the eliminated rows became.  ``mult`` (filled in
    when given) holds ints for real rows and (re, im) pairs of Gaussian
    integers otherwise.  Rows are replaced, never mutated.
    """
    m = len(rows)
    real = im is None
    if real:
        im = [None] * m
    if mult is None:
        mult = []
    prev = 1 if real else (1, 0)
    mult[:] = [prev] * m
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, m) if rows[i][j] or not real and im[i][j]), None)
        if p is None:
            continue
        for v in (rows, im, mult):
            v[r], v[p] = v[p], v[r]
        _rescale(rows, im, mult, r, prev)
        pr, pi = rows[r], im[r]
        prev = mult[r] = pr[j] if real else (pr[j], pi[j])
        for i in range(m):
            f = rows[i][j] if real else (rows[i][j], im[i][j])
            if i != r and (f if real else f != (0, 0)):
                rows[i], im[i] = _axpy(rows[i], im[i], prev, pr, pi, f, mult[i])
                mult[i] = prev
        pivots.append(j)
        if r + 1 == m:
            break
    return pivots


def _rescale(rows, im, mult, i, q):
    """Bring row i to the multiple q of its schoolbook row; exact when q is
    the pivot of a later step."""
    if mult[i] != q:
        zero = 0 if im[i] is None else (0, 0)
        rows[i], im[i] = _axpy(rows[i], im[i], q, rows[i], im[i], zero, mult[i])
        mult[i] = q


def _axpy(xr, xi, a, yr, yi, b, q):
    """(a x - b y) / q, exactly: over Z when xi is None (a, b, q ints),
    otherwise over Z[i] with rows as (re, im) parts and a, b, q pairs.

    Division by a Gaussian integer q multiplies by its conjugate and divides
    both parts exactly by the norm q conj(q).
    """
    if xi is None:
        return [(a * u - b * v) // q for u, v in zip(xr, yr)], None
    (a0, a1), (b0, b1), (q0, q1) = a, b, q
    if q1:
        a0, a1 = a0 * q0 + a1 * q1, a1 * q0 - a0 * q1
        b0, b1 = b0 * q0 + b1 * q1, b1 * q0 - b0 * q1
        q0 = q0 * q0 + q1 * q1
    rows = list(zip(xr, xi, yr, yi))
    return ([(a0 * x0 - a1 * x1 - b0 * y0 + b1 * y1) // q0 for x0, x1, y0, y1 in rows],
            [(a0 * x1 + a1 * x0 - b0 * y1 - b1 * y0) // q0 for x0, x1, y0, y1 in rows])


def pivot_columns(mat: Matrix) -> list[int]:
    """Lexicographically smallest column set spanning the column space."""
    return _echelon(list(mat.re), mat.ncols, mat.im and list(mat.im))


def rank(mat: Matrix) -> int:
    return len(pivot_columns(mat))


def solve(a: Matrix, b: Matrix, c: int = 1) -> Matrix:
    """Solve a x = b exactly over R_c = Q(i)[eps]/(eps^c).

    a, b and x are blocks of c slices, p x k, p x n and k x n, and slice m of
    a x is sum_{j<=m} a_j x_(m-j); at c = 1 they are plain matrices.  Raises
    ShapeMismatch when a_0 is rank-deficient (the solution is not unique) or
    the system is inconsistent.
    """
    if a.nrows != b.nrows:
        raise ShapeMismatch("row counts differ")
    if a.ncols % c or b.ncols % c:
        raise ShapeMismatch(f"blocks of {a.ncols} and {b.ncols} columns do not hold {c} slices")
    return _solve(a, b, c, b.ncols // c)


def inverse(a: Matrix, c: int = 1) -> Matrix:
    """The inverse over R_c of a block a of c square slices, a_0 invertible."""
    n = a.nrows
    if a.ncols != c * n:
        raise NotInvertible("non-square matrix")
    try:
        return _solve(a, Matrix.identity(n), c, n)
    except ShapeMismatch:
        raise NotInvertible("singular matrix") from None


def _solve(a: Matrix, b: Matrix, c, n) -> Matrix:
    """``solve`` for a block b of the first b.ncols // n of the c slices of
    the right-hand side, each p x n; the slices after them are zero."""
    k, w = a.ncols // c, a.ncols
    if not k:
        # no unknowns: a has full column rank, and only b = 0 is consistent
        if not b.is_zero():
            raise ShapeMismatch("inconsistent system")
        return Matrix.zero(0, c * n)
    # the rows of [a | b] over one denominator, as lists like the rows
    # _echelon makes: joined tuples, as many widths as there are systems,
    # would stay behind in CPython's per-size tuple free lists once freed
    _, re, im = _over_lcm([a, b])
    rows, im = ([[*r, *s] for r, s in zip(*v)] if v else None for v in (re, im))
    mult = []
    if len(_echelon(rows, k, im, mult)) != k:
        raise ShapeMismatch("coefficient matrix is rank-deficient")
    if not n:
        return Matrix.zero(k, 0)
    # pivots == range(k); bring the top rows to the multiple e of their
    # reduced rows: the last pivot q when real, else |q|^2 = q conj(q)
    e = q = mult[k - 1]
    if im is not None:
        e = q[0] * q[0] + q[1] * q[1] if q[1] else q[0]
        q = (e, 0)
    ims = im or [None] * k
    for i in range(k):
        _rescale(rows, ims, mult, i, q)
    if c > 1:
        # the rows [-e H_1 | -e^2 H_2 | ..]: each step adds one product
        weights = [-e ** j for j in range(c - 1) for _ in range(k)]
        hr = [list(map(mul, r[k:w], weights)) for r in rows]
        hi = im and [list(map(mul, r[k:w], weights)) for r in im]
    zero = im and ((0,) * n,) * k
    yr, yi, cr, ci = [], [], ((),) * n, ((),) * n
    for m in range(c):
        if m:
            cr = tuple(map(add, _columns(yr[-1]), cr))
            ci = zero and tuple(map(add, _columns(yi[-1]), ci))
            dr, di = _product(hr, hi, cr, ci)
        if m * n < b.ncols:
            at, f = slice(w + m * n, w + m * n + n), e ** m
            gr = tuple([tuple(map(f.__mul__, r[at])) for r in rows])
            gi = im and tuple([tuple(map(f.__mul__, r[at])) for r in im])
            dr, di = (_lincomb(dr, 1, gr, 1), _lincomb(di, 1, gi, 1)) if m else (gr, gi)
        if any(map(any, dr[k:])) or di and any(map(any, di[k:])):
            raise ShapeMismatch("inconsistent system")
        yr.append(dr[:k])
        yi.append(di[:k] if di else zero)
    # x_m = y_m e^(c-1-m) / e^c, negated when e^c < 0
    re, im = yr[0], yi[0]
    if c > 1:
        re = _join_columns([_lincomb(y, e ** (c - 1 - m), None, 0) for m, y in enumerate(yr)])
        im = zero and _join_columns([_lincomb(y, e ** (c - 1 - m), None, 0)
                                     for m, y in enumerate(yi)])
    if e < 0 and c % 2:
        re, im = _times(re, -1), im and _times(im, -1)
    return _canon(re, im, abs(e) ** c, c * n)
