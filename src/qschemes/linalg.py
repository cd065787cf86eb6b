"""Dense exact linear algebra over GaussQ.

Small immutable matrices of ``GaussQ`` entries with a product and
Gauss-Jordan elimination kernels (rank, pivot columns, solve, inverse).
Degenerate shapes (0 rows or 0 columns) are legal and arise naturally from
zero dimension vectors.

The kernels keep ``GaussQ`` at their boundary only.  The product brings each
operand once to integer numerator rows over one common denominator (an
imaginary part only when some entry is non-real), multiplies Python ints and
builds each output entry once.  Elimination of a real matrix clears
denominators row by row and runs fraction-free Gauss-Jordan over the
integers, keeping every row primitive by its gcd; a non-real matrix is
reduced over ``GaussQ``.  Fractions are normalized and the reduced
row-echelon form is unique, so both kernels give exactly the values of the
schoolbook ``GaussQ`` versions.

Plain ``list[list[int]]`` matrices are used elsewhere for lattice actions;
the ``int_*`` helpers at the bottom cover those.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import NotInvertible, ShapeMismatch
from .scalars import GQ_ONE, GQ_ZERO, GaussQ


class Matrix:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def zero(m, n) -> "Matrix":
        return Matrix([[GQ_ZERO] * n for _ in range(m)], ncols=n)

    @staticmethod
    def identity(n) -> "Matrix":
        return Matrix.diagonal([GQ_ONE] * n)

    @staticmethod
    def diagonal(entries) -> "Matrix":
        n = len(entries)
        return Matrix(
            [[entries[i] if i == j else GQ_ZERO for j in range(n)] for i in range(n)],
            ncols=n,
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.rows], ncols=self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        if not (self.nrows and self.ncols and other.ncols):
            return Matrix.zero(self.nrows, other.ncols)
        a_re, a_im, da = _integral(self.rows)
        b_re, b_im, db = _integral(other.rows)
        den = da * db
        if a_im is None and b_im is None:
            cols = list(zip(*b_re))
            out = [[_entry(sum(map(mul, r, c)), 0, den) for c in cols] for r in a_re]
        else:
            # (Ar + i Ai)(Br + i Bi) = (ArBr - AiBi) + i (ArBi + AiBr)
            a_im = a_im or [[0] * self.ncols for _ in a_re]
            b_im = b_im or [[0] * other.ncols for _ in b_re]
            cols = list(zip(zip(*b_re), zip(*b_im)))
            out = [
                [_entry(sum(map(mul, ar, br)) - sum(map(mul, ai, bi)),
                        sum(map(mul, ar, bi)) + sum(map(mul, ai, br)), den)
                 for br, bi in cols]
                for ar, ai in zip(a_re, a_im)
            ]
        return Matrix(out, ncols=other.ncols)

    def scale(self, c) -> "Matrix":
        return Matrix([[a * c for a in r] for r in self.rows], ncols=self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)) if self.rows else [], ncols=self.nrows)

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def select_columns(self, js) -> "Matrix":
        return Matrix([[r[j] for j in js] for r in self.rows], ncols=len(js))

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __str__(self):
        return "[" + "; ".join(" ".join(str(a) for a in r) for r in self.rows) + "]"


def hstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    m = mats[0].nrows
    if any(a.nrows != m for a in mats):
        raise ShapeMismatch("hstack with differing row counts")
    rows = [[x for a in mats for x in a.rows[i]] for i in range(m)]
    return Matrix(rows, ncols=sum(a.ncols for a in mats))


def vstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    n = mats[0].ncols
    if any(a.ncols != n for a in mats):
        raise ShapeMismatch("vstack with differing column counts")
    rows = [r for a in mats for r in a.rows]
    return Matrix(rows, ncols=n)


def _integral(rows):
    """(re, im, den): the integer numerators of the entries' real and
    imaginary parts over one common denominator den; im is None when every
    entry is real."""
    nonreal = _nonreal(rows)
    dens = {x.re.denominator for r in rows for x in r}
    if nonreal:
        dens.update([x.im.denominator for r in rows for x in r])
    den = lcm(*dens)
    if den == 1:
        re = [[x.re.numerator for x in r] for r in rows]
        im = [[x.im.numerator for x in r] for r in rows] if nonreal else None
    else:
        re = [[x.re.numerator * (den // x.re.denominator) for x in r] for r in rows]
        im = ([[x.im.numerator * (den // x.im.denominator) for x in r] for r in rows]
              if nonreal else None)
    return re, im, den


def _nonreal(rows):
    return any([x.im for r in rows for x in r])


_F0 = Fraction(0)


def _entry(re, im, den):
    """The GaussQ (re + i im) / den of integer numerators and denominator."""
    if not (re or im):
        return GQ_ZERO
    if den == 1:
        return GaussQ(re, im or _F0)
    return GaussQ(Fraction(re, den), Fraction(im, den) if im else _F0)


def _echelon(rows, ncols):
    """Row-reduce in place; return pivot column indices (leftmost-first).

    Pivots are searched in the first ``ncols`` columns; the row operations
    act on whole rows.  Afterwards ``rows[k]`` is the k-th row of the reduced
    row-echelon form for k < len(pivots), and the rows below hold what the
    eliminated rows became, exactly as schoolbook elimination over GaussQ
    leaves them.
    """
    if _nonreal(rows):
        return _echelon_gaussq(rows, ncols)
    # Over Z every row stays the nonzero multiple num[i]/den[i] of the row
    # that elimination over the field would hold: clearing denominators
    # scales a row by their lcm, an update pv*row_i - f*row_r scales row_i by
    # pv and dividing by the row's gcd g divides the multiple by g.  A pivot
    # row is its pivot entry times its reduced row.
    z, num = [], []
    for r in rows:
        q = [x.re for x in r]
        c = lcm(*{x.denominator for x in q})
        z.append([x.numerator * (c // x.denominator) for x in q])
        num.append(c)
    m = len(z)
    den = [1] * m
    pivots = []
    r = 0
    for j in range(ncols):
        p = next((i for i in range(r, m) if z[i][j]), None)
        if p is None:
            continue
        for v in (z, num, den):
            v[r], v[p] = v[p], v[r]
        pr = z[r]
        pv = pr[j]
        for i in range(m):
            f = z[i][j]
            if f and i != r:
                row = [pv * a - f * b for a, b in zip(z[i], pr)]
                g = gcd(*row)
                if g > 1:
                    row = [a // g for a in row]
                    den[i] *= g
                z[i] = row
                num[i] *= pv
        pivots.append(j)
        r += 1
        if r == m:
            break
    for k, j in enumerate(pivots):
        num[k], den[k] = z[k][j], 1
    for k, row in enumerate(z):
        rows[k] = [GaussQ(Fraction(a * den[k], num[k]), _F0) if a else GQ_ZERO for a in row]
    return pivots


def _echelon_gaussq(rows, ncols):
    """``_echelon`` over GaussQ, for rows with a non-real entry."""
    pivots = []
    r = 0
    for j in range(ncols):
        p = None
        for i in range(r, len(rows)):
            if rows[i][j]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = GQ_ONE / rows[r][j]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
        if r == len(rows):
            break
    return pivots


def pivot_columns(mat: Matrix) -> list[int]:
    """Lexicographically smallest column set spanning the column space."""
    rows = [list(r) for r in mat.rows]
    return _echelon(rows, mat.ncols)


def rank(mat: Matrix) -> int:
    return len(pivot_columns(mat))


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ x = b exactly for a of full column rank.

    Raises ShapeMismatch when the system is inconsistent or the solution is
    not unique.
    """
    if a.nrows != b.nrows:
        raise ShapeMismatch("row counts differ")
    n = a.ncols
    aug = [list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)]
    pivots = _echelon(aug, n)
    if len(pivots) != n:
        raise ShapeMismatch("coefficient matrix is rank-deficient")
    for row in aug[n:]:
        if any(row[n:]):
            raise ShapeMismatch("inconsistent system")
    x = [[GQ_ZERO] * b.ncols for _ in range(n)]
    for r, j in enumerate(pivots):
        x[j] = aug[r][n:]
    return Matrix(x, ncols=b.ncols)


def inverse(a: Matrix) -> Matrix:
    if a.nrows != a.ncols:
        raise NotInvertible("non-square matrix")
    try:
        return solve(a, Matrix.identity(a.nrows))
    except ShapeMismatch:
        raise NotInvertible("singular matrix") from None


# -- integer matrices (lattice and parameter actions) ------------------------

def int_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def int_transpose(a):
    return [list(r) for r in zip(*a)]
