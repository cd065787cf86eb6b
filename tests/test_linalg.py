"""Differential tests of the exact linear-algebra kernels.

``Matrix`` stores integer numerators over a shared denominator, and
``Matrix.__matmul__`` and ``_echelon`` compute over Z or Z[i]; the oracles
here are the schoolbook ``GaussQ`` product and Gauss-Jordan elimination they
replaced, which must give exactly the same entries and pivots.  sympy's
``DomainMatrix`` over ``QQ_I`` is an independent check of rank, solve and
inverse on real and non-real matrices.  ``TestCanonicalForm`` checks that
every operation leaves the stored form canonical.  ``TestPolyKernels``
checks the matrix-polynomial kernels, which take and return blocks of slices
side by side, against the stacked products and the explicit traces of the
slices.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

import qschemes.linalg as linalg
from qschemes.errors import NotInvertible, ShapeMismatch
from qschemes.linalg import (
    Matrix,
    _echelon,
    hstack,
    inverse,
    pivot_columns,
    poly_mul,
    poly_scale,
    poly_shift,
    rank,
    solve,
    trace_dot,
    vstack,
)
from qschemes.scalars import GQ_ZERO, GaussQ, TruncScalar

from helpers import assert_canonical, fields, transpose

KINDS = ("integer", "fraction", "gaussian", "sparse")
GQ_ONE = GaussQ(1)


def trace(a):
    """Sum of the diagonal entries of a square matrix, read entry by entry."""
    return sum((a[k, k] for k in range(a.nrows)), GQ_ZERO)


def oracle_matmul(a, b):
    return Matrix(
        [[sum((a[i, t] * b[t, j] for t in range(a.ncols)), GQ_ZERO)
          for j in range(b.ncols)]
         for i in range(a.nrows)],
        ncols=b.ncols,
    )


def oracle_echelon(rows, ncols):
    pivots = []
    r = 0
    for j in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][j]), None)
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


def oracle_rank(mat):
    return len(oracle_echelon([list(r) for r in mat.rows], mat.ncols))


def random_entry(rng, kind):
    if kind == "sparse" and rng.random() < 0.7:
        return GQ_ZERO
    if kind == "integer":
        return GaussQ(rng.randint(-9, 9))
    re = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 35)))
    if kind != "gaussian":
        return GaussQ(re)
    return GaussQ(re, Fraction(rng.randint(-5, 5), rng.choice((1, 2, 7))))


def random_matrix(rng, kind, m, n):
    return Matrix([[random_entry(rng, kind) for _ in range(n)] for _ in range(m)], ncols=n)


def rank_at_most(rng, kind, m, n, r):
    """An m x n matrix of rank at most r: a product through an r-dimensional space."""
    return oracle_matmul(random_matrix(rng, kind, m, r), random_matrix(rng, kind, r, n))


def invertible(rng, kind, n):
    while True:
        a = random_matrix(rng, kind, n, n)
        if oracle_rank(a) == n:
            return a


def echelon_read_back(mat, ncols):
    """_echelon on mat's numerator rows; the pivots and every row read back as
    GaussQ: row k divided by its multiple, and the rows below the pivots also
    by the shared denominator (the schoolbook rows of den * mat are den times
    those of mat)."""
    rows, im, mult = list(mat.re), mat.im and list(mat.im), []
    pivots = _echelon(rows, ncols, im, mult)
    out = []
    for k, row in enumerate(rows):
        q = GaussQ(*mult[k]) if im else GaussQ(mult[k])
        if k >= len(pivots):
            q = q * mat.den
        out.append([GaussQ(a, im[k][j] if im else 0) / q for j, a in enumerate(row)])
    return pivots, out


def all_gaussq(mat_rows):
    return all(type(x) is GaussQ for r in mat_rows for x in r)


class TestMatmul:
    @pytest.mark.parametrize("kind_a,kind_b", list(product(KINDS, KINDS)))
    def test_matches_oracle(self, kind_a, kind_b):
        rng = random.Random(f"matmul/{kind_a}/{kind_b}")
        for _ in range(12):
            m, k, n = (rng.randint(1, 6) for _ in range(3))
            a, b = random_matrix(rng, kind_a, m, k), random_matrix(rng, kind_b, k, n)
            got = a @ b
            assert got == oracle_matmul(a, b)
            assert all_gaussq(got.rows)

    @pytest.mark.parametrize("m,k,n", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (3, 0, 0)])
    def test_degenerate_shapes(self, m, k, n):
        rng = random.Random(f"degenerate/{m}/{k}/{n}")
        a, b = random_matrix(rng, "gaussian", m, k), random_matrix(rng, "fraction", k, n)
        got = a @ b
        assert (got.nrows, got.ncols) == (m, n)
        assert got == oracle_matmul(a, b) == Matrix.zero(m, n)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Matrix.zero(2, 3) @ Matrix.zero(2, 3)


class TestEchelon:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_oracle(self, kind):
        rng = random.Random(f"echelon/{kind}")
        for _ in range(40):
            m, n, extra = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 3)
            a = rank_at_most(rng, kind, m, n, rng.randint(0, min(m, n)))
            # extra columns take part in the row operations but not in the
            # pivot search, as the right-hand sides do in solve
            aug = hstack([a, random_matrix(rng, kind, m, extra)])
            want = [list(r) for r in aug.rows]
            pivots, rows = echelon_read_back(aug, n)
            assert pivots == oracle_echelon(want, n)
            assert rows == want
            assert all_gaussq(rows)

    def test_rank_and_pivots_of_rank_deficient(self):
        rng = random.Random("rank-deficient")
        for kind in KINDS:
            for r in range(4):
                a = rank_at_most(rng, kind, 5, 4, r)
                assert rank(a) == oracle_rank(a) <= r
                assert pivot_columns(a) == oracle_echelon([list(x) for x in a.rows], 4)


class TestSolveInverse:
    @pytest.mark.parametrize("kind", KINDS)
    def test_solve_recovers_solution(self, kind):
        rng = random.Random(f"solve/{kind}")
        for _ in range(10):
            n = rng.randint(1, 5)
            # a tall matrix of full column rank: an invertible block on top
            a = Matrix(invertible(rng, kind, n).rows
                       + random_matrix(rng, kind, rng.randint(0, 2), n).rows, ncols=n)
            x = random_matrix(rng, kind, n, rng.randint(1, 3))
            assert solve(a, oracle_matmul(a, x)) == x

    @pytest.mark.parametrize("kind", KINDS)
    def test_inverse(self, kind):
        rng = random.Random(f"inverse/{kind}")
        for n in range(6):
            a = invertible(rng, kind, n)
            assert oracle_matmul(inverse(a), a) == Matrix.identity(n)

    @pytest.mark.parametrize("kind", KINDS)
    def test_solve_rejects_rank_deficient(self, kind):
        rng = random.Random(f"deficient/{kind}")
        for n in range(1, 5):
            a = rank_at_most(rng, kind, n + 1, n, n - 1)
            b = oracle_matmul(a, random_matrix(rng, kind, n, 1))
            with pytest.raises(ShapeMismatch, match="rank-deficient"):
                solve(a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_solve_rejects_inconsistent(self, kind):
        rng = random.Random(f"inconsistent/{kind}")
        for n in range(1, 5):
            # the last row of a is a combination of the invertible block above
            # it, so moving the last entry of a consistent b breaks consistency
            a = Matrix(invertible(rng, kind, n).rows + random_matrix(rng, kind, 1, n).rows,
                       ncols=n)
            b = oracle_matmul(a, random_matrix(rng, kind, n, 1)).rows
            b = Matrix(b[:n] + ((b[n][0] + 1,),), ncols=1)
            with pytest.raises(ShapeMismatch, match="inconsistent"):
                solve(a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_inverse_rejects_singular(self, kind):
        rng = random.Random(f"singular/{kind}")
        for n in range(1, 5):
            with pytest.raises(NotInvertible):
                inverse(rank_at_most(rng, kind, n, n, n - 1))
        with pytest.raises(NotInvertible):
            inverse(random_matrix(rng, kind, 2, 3))


def entrywise(op, *mats):
    """The oracle: op applied to the GaussQ entries."""
    return Matrix([[op(*xs) for xs in zip(*rs)] for rs in zip(*(m.rows for m in mats))],
                  ncols=mats[0].ncols)


class TestCanonicalForm:
    SCALARS = (GaussQ(0, 1), GaussQ(Fraction(2, 3), Fraction(-1, 5)), GaussQ(Fraction(-7, 4)),
               GaussQ(0), GaussQ(1))

    @pytest.mark.parametrize("kind_a,kind_b", list(product(KINDS, KINDS)))
    def test_operations(self, kind_a, kind_b):
        rng = random.Random(f"canonical/{kind_a}/{kind_b}")
        for _ in range(8):
            m, n = rng.randint(0, 4), rng.randint(0, 4)
            a, b = random_matrix(rng, kind_a, m, n), random_matrix(rng, kind_b, m, n)
            cases = [
                (a + b, entrywise(lambda x, y: x + y, a, b)),
                (a - b, entrywise(lambda x, y: x - y, a, b)),
                (-a, entrywise(lambda x: -x, a)),
                (a - a, Matrix.zero(m, n)),
            ]
            for c in self.SCALARS:
                cases.append((a.scale(c), entrywise(lambda x: x * c, a)))
            for got, want in cases:
                assert_canonical(got)
                assert got == want and fields(got) == fields(want)
                assert hash(got) == hash(want)

    def test_cancellation(self):
        x = Matrix([[GaussQ(Fraction(1, 2), 1), GaussQ(Fraction(1, 3))]])
        y = Matrix([[GaussQ(Fraction(1, 2), -1), GaussQ(Fraction(-1, 3))]])
        s = x + y
        assert_canonical(s)
        assert (s.den, s.re, s.im) == (1, ((1, 0),), None)
        assert (x - x).den == 1 and (x - x).im is None and (x - x).is_zero()
        assert x.scale(GaussQ(0, 1)).scale(GaussQ(0, -1)) == x
        assert_canonical(x.scale(GaussQ(0, 1)))

    def test_stacking_mixed_denominators(self):
        halves = Matrix([[GaussQ(Fraction(1, 2)), GaussQ(3)]])
        thirds = Matrix([[GaussQ(Fraction(2, 3), Fraction(1, 3)), GaussQ(0)]])
        whole = Matrix([[GaussQ(5), GaussQ(0, 1)]])
        for mats in ([halves, thirds], [thirds, whole], [halves, whole], [whole, whole],
                     [halves, thirds, whole]):
            h, v = hstack(mats), vstack(mats)
            for got in (h, v):
                assert_canonical(got)
            assert h.rows == (sum((r.rows[0] for r in mats), ()),)
            assert v.rows == tuple(r.rows[0] for r in mats)
        assert hstack([halves, thirds]).den == vstack([halves, thirds]).den == 6

    def test_take(self):
        rng = random.Random("take")
        for kind in KINDS:
            a = random_matrix(rng, kind, 5, 6)
            for rows, cols in ((None, None), (slice(1, None, 2), None), (None, slice(None, None, 3)),
                               ([4, 0, 0], [5, 1]), (range(2, 4), slice(0, 0)), ([], None)):
                got = a.take(rows, cols)
                assert_canonical(got)
                ri = range(5) if rows is None else (range(5)[rows] if type(rows) is slice else rows)
                ci = range(6) if cols is None else (range(6)[cols] if type(cols) is slice else cols)
                assert (got.nrows, got.ncols) == (len(ri), len(ci))
                assert got.rows == tuple(tuple(a[i, j] for j in ci) for i in ri)
        # dropping the only non-real entry and the only fractional one
        a = Matrix([[GaussQ(1), GaussQ(Fraction(1, 4), 2)], [GaussQ(3), GaussQ(5)]])
        left = a.take(cols=[0])
        assert (left.den, left.re, left.im) == (1, ((1,), (3,)), None)
        assert a.take(rows=slice(1, 2)).den == 1

    def test_transpose_and_empty_shapes(self):
        rng = random.Random("transpose")
        for kind in KINDS:
            for m, n in ((0, 3), (3, 0), (0, 0), (2, 4)):
                a = random_matrix(rng, kind, m, n)
                t = transpose(a)
                assert_canonical(a)
                assert_canonical(t)
                assert (t.nrows, t.ncols) == (n, m)
                assert t.rows == tuple(zip(*a.rows)) or m == 0
                assert transpose(t) == a
        for z in (Matrix.zero(0, 3), Matrix([], ncols=3), vstack([Matrix.zero(0, 3)] * 2),
                  Matrix([[GaussQ(0, 1)] * 3]).take(rows=[])):
            assert_canonical(z)
            assert fields(z) == (0, 3, 1, (), None) and z == Matrix.zero(0, 3)
            assert hash(z) == hash(Matrix.zero(0, 3))

    def test_from_ints(self):
        rng = random.Random("from-ints")
        for m, n in ((0, 0), (0, 3), (3, 0), (2, 4)):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            got = Matrix.from_ints(rows, n)
            assert_canonical(got)
            assert fields(got) == fields(Matrix([[GaussQ(x) for x in r] for r in rows], ncols=n))
        assert fields(Matrix.from_ints([[0, 0]], 2)) == fields(Matrix.zero(1, 2))
        with pytest.raises(ValueError):
            Matrix.from_ints([[1, 2], [3]], 2)
        with pytest.raises(TypeError):
            Matrix.from_ints([[1, Fraction(1, 2)]], 2)

    def test_blocks_are_immutable(self):
        z = Matrix.zero(2, 2)
        with pytest.raises(TypeError):
            z.re[0][0] = 1
        with pytest.raises(TypeError):
            z.re[0] = (1, 1)
        assert z == Matrix.zero(2, 2) and z.is_zero()

    def test_equal_values_equal_fields(self):
        rng = random.Random("equal-fields")
        for kind in KINDS:
            a, b = random_matrix(rng, kind, 3, 3), random_matrix(rng, kind, 3, 3)
            c = (a + b) - b
            assert fields(c) == fields(a) and hash(c) == hash(a)
            d = Matrix(a.rows)
            assert fields(d) == fields(a) and hash(d) == hash(a)


class TestAgainstSympy:
    """rank, pivots, solve and inverse against DomainMatrix over QQ_I."""

    @pytest.fixture
    def qq_i(self):
        matrices = pytest.importorskip("sympy.polys.matrices")
        domains = pytest.importorskip("sympy.polys.domains")
        QQ, QQ_I = domains.QQ, domains.QQ_I

        def to_dm(mat):
            return matrices.DomainMatrix(
                [[QQ_I(QQ(x.re.numerator, x.re.denominator),
                       QQ(x.im.numerator, x.im.denominator)) for x in r] for r in mat.rows],
                (mat.nrows, mat.ncols), QQ_I,
            )

        def from_dm(dm):
            return Matrix(
                [[GaussQ(Fraction(int(v.x.numerator), int(v.x.denominator)),
                         Fraction(int(v.y.numerator), int(v.y.denominator))) for v in r]
                 for r in dm.to_list()],
                ncols=dm.shape[1],
            )

        return to_dm, from_dm

    @pytest.mark.parametrize("kind", KINDS)
    def test_rank_solve_inverse(self, kind, qq_i):
        to_dm, from_dm = qq_i
        rng = random.Random(f"sympy/{kind}")
        for _ in range(12):
            n = rng.randint(1, 5)
            a = rank_at_most(rng, kind, n, n, rng.choice((n, n, n - 1)))
            dm = to_dm(a)
            assert rank(a) == dm.rank()
            assert tuple(pivot_columns(a)) == dm.rref()[1]
            if rank(a) < n:
                with pytest.raises(NotInvertible):
                    inverse(a)
                continue
            assert inverse(a) == from_dm(dm.inv())
            b = random_matrix(rng, kind, n, rng.randint(1, 3))
            assert solve(a, b) == from_dm(dm.lu_solve(to_dm(b)))

    @staticmethod
    def toeplitz(a, c):
        """The block lower-triangular Toeplitz matrix of a block of c slices:
        block (m, j) is slice m - j, zero above the diagonal."""
        p, k = a.nrows, a.ncols // c
        return vstack([hstack([a.take(cols=slice((m - j) * k, (m - j + 1) * k)) if j <= m
                               else Matrix.zero(p, k) for j in range(c)]) for m in range(c)])

    @staticmethod
    def stacked(b, c):
        n = b.ncols // c
        return vstack([b.take(cols=slice(m * n, m * n + n)) for m in range(c)])

    @staticmethod
    def side_by_side(x, c):
        k = x.nrows // c
        return hstack([x.take(rows=slice(m * k, m * k + k)) for m in range(c)])

    @pytest.mark.parametrize("kind", ("integer", "gaussian"))
    @pytest.mark.parametrize("c", (2, 3, 4))
    def test_solve_inverse_over_rc(self, kind, c, qq_i):
        """solve(a, b, c) and inverse(a, c) over R_c against the reduced
        Toeplitz system [T(a) | b_0; ..; b_(c-1)]: the solution, or the
        typed error for a rank-deficient a_0 or an inconsistent b."""
        to_dm, from_dm = qq_i
        rng = random.Random(f"sympy-rc/{kind}/{c}")
        seen = set()
        for t in range(12):
            k = rng.randint(1, 3)
            # a random slice of b is inconsistent once p > k
            p = k + rng.choice((1, 2) if t % 4 == 2 else (0, 1, 2))
            a = random_matrix(rng, kind, p, c * k)
            if t % 4 == 1:
                a0 = rank_at_most(rng, kind, p, k, k - 1)
                a = hstack([a0, a.take(cols=slice(k, None))])
            n = rng.randint(1, 2)
            b = poly_mul(a, random_matrix(rng, kind, k, c * n), c)
            if t % 4 == 2:
                # only the last slice leaves the image
                b = hstack([b.take(cols=slice(0, (c - 1) * n)), random_matrix(rng, kind, p, n)])
            big = to_dm(self.toeplitz(a, c))
            reduced, pivots = big.hstack(to_dm(self.stacked(b, c))).rref()
            if sum(j < c * k for j in pivots) < c * k:
                seen.add("rank-deficient")
                with pytest.raises(ShapeMismatch, match="rank-deficient"):
                    solve(a, b, c)
            elif len(pivots) > c * k:
                seen.add("inconsistent")
                with pytest.raises(ShapeMismatch, match="inconsistent"):
                    solve(a, b, c)
            else:
                seen.add("solved")
                want = from_dm(reduced.extract(range(c * k), range(c * k, c * k + n)))
                assert solve(a, b, c) == self.side_by_side(want, c)
            sq = random_matrix(rng, kind, k, c * k)
            if t % 4 == 3:
                sq = hstack([rank_at_most(rng, kind, k, k, k - 1), sq.take(cols=slice(k, None))])
            big = to_dm(self.toeplitz(sq, c))
            if big.rank() < c * k:
                seen.add("singular")
                with pytest.raises(NotInvertible):
                    inverse(sq, c)
            else:
                want = from_dm(big.inv().extract(range(c * k), range(k)))
                assert inverse(sq, c) == self.side_by_side(want, c)
        assert seen == {"rank-deficient", "inconsistent", "solved", "singular"}

    def test_large_nonreal(self, qq_i):
        to_dm, from_dm = qq_i
        rng = random.Random("sympy/large")
        a = random_matrix(rng, "gaussian", 24, 24)
        dm = to_dm(a)
        assert rank(a) == dm.rank() == 24
        assert inverse(a) == from_dm(dm.inv())
        b = random_matrix(rng, "gaussian", 24, 2)
        assert solve(a, b) == from_dm(dm.lu_solve(to_dm(b)))
        # rank at most 17; the product is checked against its oracle in TestMatmul
        low = random_matrix(rng, "gaussian", 24, 17) @ random_matrix(rng, "gaussian", 17, 24)
        pivots = to_dm(low).rref()[1]
        assert tuple(pivot_columns(low)) == pivots
        assert rank(low) == len(pivots) <= 17


class TestPolyKernels:
    """poly_mul, poly_scale and trace_dot on blocks (slices side by side)
    against the stacked products, scaled sums and explicit traces of their
    slices, on slices that are real, non-real, with den > 1 or of rank 0."""

    def slices(self, rng, c, m, n):
        kinds = KINDS + ("zero",)
        return [Matrix.zero(m, n) if kind == "zero" else random_matrix(rng, kind, m, n)
                for kind in (rng.choice(kinds) for _ in range(c))]

    SHAPES = [(2, 2, 2), (1, 3, 2), (3, 1, 1), (0, 2, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)]

    @pytest.mark.parametrize("p,k,q", SHAPES)
    def test_poly_mul_matches_stacked_products(self, p, k, q):
        rng = random.Random(f"poly_mul/{p}/{k}/{q}")
        for c in (1, 2, 3, 4):
            for _ in range(6):
                fs, gs = self.slices(rng, c, p, k), self.slices(rng, c, k, q)
                got = poly_mul(hstack(fs), hstack(gs), c)
                want = [hstack(fs[:m + 1]) @ vstack(gs[m::-1]) for m in range(c)]
                assert_canonical(got)
                assert fields(got) == fields(hstack(want))

    @pytest.mark.parametrize("p,k,q", SHAPES)
    def test_trace_dot_matches_trace_of_products(self, p, k, q):
        rng = random.Random(f"trace_dot/{p}/{k}")
        for c in (1, 2, 3, 4):
            for _ in range(6):
                xs, ys = self.slices(rng, c, p, k), self.slices(rng, c, k, p)
                want = sum((trace(x @ y) for x, y in zip(xs, ys)), GQ_ZERO)
                # trace_dot pairs x_j with y_(c-1-j)
                got = trace_dot(hstack(xs), hstack(ys[::-1]), c)
                assert type(got) is GaussQ and got == want

    def test_shape_mismatch(self):
        a, b = Matrix.zero(2, 3), Matrix.zero(3, 2)
        with pytest.raises(ShapeMismatch):
            poly_mul(a, b, 2)
        with pytest.raises(ShapeMismatch):
            poly_mul(hstack([a, a]), hstack([a, a]), 2)
        with pytest.raises(ShapeMismatch):
            poly_mul(a, a, 1)
        with pytest.raises(ShapeMismatch):
            trace_dot(hstack([a, a]), b, 2)
        with pytest.raises(ShapeMismatch):
            trace_dot(a, a, 1)

    @pytest.mark.parametrize("p,q", [(2, 2), (1, 3), (3, 1), (0, 2), (2, 0)])
    def test_poly_scale_matches_scaled_sums(self, p, q):
        rng = random.Random(f"poly_scale/{p}/{q}")
        for c in (1, 2, 3, 4):
            for _ in range(6):
                fs = self.slices(rng, c, p, q)
                cs = [random_entry(rng, rng.choice(KINDS)) for _ in range(c)]
                t = TruncScalar(c, cs)
                got = poly_scale(t.re, t.im, t.den, hstack(fs))
                want = []
                for m in range(c):
                    want.append(Matrix.zero(p, q))
                    for j in range(m + 1):
                        want[m] = want[m] + fs[m - j].scale(cs[j])
                assert_canonical(got)
                assert fields(got) == fields(hstack(want))

    @staticmethod
    def numerators(diags):
        """GaussQ diagonals as (re, im, den): numerators over the lcm of the
        denominators, im None when every entry is real."""
        den = math.lcm(*[x.den for ds in diags for x in ds])
        re = [[x.num_re * (den // x.den) for x in ds] for ds in diags]
        im = [[x.num_im * (den // x.den) for x in ds] for ds in diags]
        return re, im if any(map(any, im)) else None, den

    def diagonals(self, diags):
        """The block of the diagonal matrices with GaussQ diagonals ``diags``:
        ``poly_shift`` of a zero block."""
        n = len(diags[0])
        return poly_shift(*self.numerators(diags), Matrix.zero(n, len(diags) * n))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_poly_shift_matches_sums(self, n):
        rng = random.Random(f"poly_shift/{n}")
        for c in (1, 2, 3, 4):
            for _ in range(6):
                fs = self.slices(rng, c, n, n)
                diags = [[random_entry(rng, rng.choice(KINDS)) for _ in range(n)]
                         for _ in range(c)]
                got = poly_shift(*self.numerators(diags), hstack(fs))
                want = [f + Matrix([[x if i == j else GQ_ZERO for j in range(n)]
                                    for i, x in enumerate(ds)], ncols=n)
                        for f, ds in zip(fs, diags)]
                assert_canonical(got)
                assert fields(got) == fields(hstack(want))

    def test_scalar_matrix(self):
        xs = [GaussQ(0), GaussQ(-2), GaussQ(Fraction(3, 4), Fraction(-1, 6))]
        for n in (0, 1, 3):
            for x in xs:
                got = self.diagonals([[x] * n])
                assert_canonical(got)
                assert fields(got) == fields(Matrix.identity(n).scale(x))
            got = self.diagonals([[x] * n for x in xs])
            assert_canonical(got)
            assert fields(got) == fields(hstack([Matrix.identity(n).scale(x) for x in xs]))
        got = self.diagonals([xs, xs[::-1]])
        assert_canonical(got)
        assert got.rows == tuple(tuple(xs[i] if j == i else xs[2 - i] if j == i + 3 else GQ_ZERO
                                       for j in range(6)) for i in range(3))

    def test_scalar_kernel_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            poly_scale((1, 2), None, 1, Matrix.zero(2, 3))
        with pytest.raises(ShapeMismatch):
            poly_scale((1, 2, 3), None, 1, Matrix.zero(3, 4))
        with pytest.raises(ShapeMismatch):
            poly_shift((1, 2), None, 1, Matrix.zero(2, 3))


class TestSolveOnIntegers:
    """solve divides by the last pivot q on the numerators: by its sign and
    |q| when q is real, by conj(q) / |q|^2 otherwise."""

    CASES = [
        ("negative", [[1, 2], [3, 4]]),
        ("negative", [[-6]]),
        ("negative", [[GaussQ(0, 1), 0], [0, GaussQ(0, 1)]]),
        ("nonreal", [[GaussQ(1, 1), 2], [3, GaussQ(0, 4)]]),
        ("nonreal", [[GaussQ(Fraction(1, 2), 1), 2], [GaussQ(0, -3), Fraction(5, 3)]]),
    ]

    @staticmethod
    def last_pivot(a):
        """The last pivot as a Gaussian integer (re, im)."""
        aug = hstack([a, Matrix.identity(a.nrows)])
        mult = []
        _echelon(list(aug.re), a.ncols, aug.im and list(aug.im), mult)
        return (mult[-1], 0) if aug.im is None else mult[-1]

    @pytest.mark.parametrize("kind,rows", CASES)
    def test_canonical_results(self, kind, rows, monkeypatch):
        a = Matrix(rows)
        q0, q1 = self.last_pivot(a)
        assert (q0 < 0 and not q1) if kind == "negative" else q1
        b = random_matrix(random.Random(f"solve-integers/{rows}"), "gaussian", a.nrows, 2)
        want_inv = Matrix(oracle_inverse(a), ncols=a.ncols)
        want_x = oracle_matmul(want_inv, b)

        def boom(*args):
            raise AssertionError("solve built a GaussQ")

        # every way linalg has of making a scalar
        for name in ("GaussQ", "_coerce", "_entry"):
            monkeypatch.setattr(linalg, name, boom)
        inv, x = inverse(a), solve(a, b)
        monkeypatch.undo()
        for got, want in ((inv, want_inv), (x, want_x)):
            assert_canonical(got)
            assert fields(got) == fields(want)


def oracle_inverse(a):
    """The schoolbook inverse: the right half of the reduced [a | I]."""
    n = a.nrows
    rows = [list(r) + [GQ_ONE if i == j else GQ_ZERO for j in range(n)]
            for i, r in enumerate(a.rows)]
    assert oracle_echelon(rows, n) == list(range(n))
    return [r[n:] for r in rows]
