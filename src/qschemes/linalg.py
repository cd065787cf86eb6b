"""Dense exact linear algebra over GaussQ.

Small immutable matrices with Gaussian-elimination kernels (rank, pivot
columns, solve, inverse).  Degenerate shapes (0 rows or 0 columns) are legal
and arise naturally from zero dimension vectors.

Plain ``list[list[int]]`` matrices are used elsewhere for lattice actions;
the ``int_*`` helpers at the bottom cover those.
"""

from __future__ import annotations

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
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        out = []
        for r in self.rows:
            out_row = []
            for c in cols:
                # accumulate raw components to avoid intermediate allocations
                acc_re = acc_im = None
                for a, b in zip(r, c):
                    ar, ai = a.re, a.im
                    br, bi = b.re, b.im
                    if not ((ar or ai) and (br or bi)):
                        continue
                    if ai or bi:
                        re_part = ar * br - ai * bi
                        im_part = ar * bi + ai * br
                    else:
                        re_part = ar * br
                        im_part = None
                    acc_re = re_part if acc_re is None else acc_re + re_part
                    if im_part is not None:
                        acc_im = im_part if acc_im is None else acc_im + im_part
                if acc_re is None:
                    out_row.append(GQ_ZERO)
                elif acc_im is None:
                    out_row.append(GaussQ(acc_re))
                else:
                    out_row.append(GaussQ(acc_re, acc_im))
            out.append(out_row)
        return Matrix(out, ncols=other.ncols) if out else Matrix([], ncols=other.ncols)

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


def _echelon(rows, ncols):
    """Row-reduce in place; return pivot column indices (leftmost-first)."""
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
