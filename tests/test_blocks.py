"""Property tests of the module-map operations on their one-block storage.

An ``RMap`` keeps its slices side by side in one integer block.  Each test
draws maps with ``hypothesis``: source and target orders 1 to 4, every base
dividing both, ranks 0 to 3 (rank 0 is common in the reflection functor) and
Gaussian entries with denominators, or real ones, drawn from a seed that
``hypothesis`` picks.  The maps are built from
their slices by the validating ``RMap(...)``, and every result is compared
with its definition on GaussQ entries: the base-field matrix of a map is
read off its ``parts`` by the R_base-linear extension rule of the
``rmatrix`` docstring, products and traces are schoolbook sums, and scalar
extension follows the slice recurrences of its docstrings.  The stored
block of every result must be canonical.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qschemes.errors import MismatchedOrder, NotLinearOverBase, ShapeMismatch
from qschemes.linalg import Matrix
from qschemes.rmatrix import (
    ModShape,
    RMap,
    compose,
    extend_scalars,
    extend_scalars_rev,
    invert_end,
    pair_d,
    pr_cd,
    restrict_scalars,
    restrict_scalars_rev,
    scale_end,
    shift_end,
    trace_base,
)
from qschemes.scalars import GQ_ZERO, GaussQ, TruncScalar

from helpers import assert_canonical, fields, slices_over

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
GQ_ONE = GaussQ(1)
ORDERS = st.integers(1, 4)
RANKS = st.integers(0, 3)


def divisors(n):
    return [c for c in range(1, n + 1) if n % c == 0]


def entry(rng, real):
    """A Gaussian rational (a + b i) / den with small a, b and den, real if asked."""
    den = rng.choice((1, 1, 2, 3, 6))
    return GaussQ(Fraction(rng.randint(-3, 3), den),
                  Fraction(0 if real else rng.randint(-2, 2), den))


@st.composite
def entries(draw):
    return entry(random.Random(draw(st.integers(0, 2 ** 32))), False)


@st.composite
def rmaps(draw, src, dst, base):
    """An R_base-linear map src -> dst from slices drawn from a seed, with
    Gaussian entries or real ones."""
    rng, real = random.Random(draw(st.integers(0, 2 ** 32))), draw(st.booleans())
    rows, cols = dst.dim // base, src.dim // base
    slices = [Matrix([[entry(rng, real) for _ in range(cols)] for _ in range(rows)],
                     ncols=cols) for _ in range(base)]
    return RMap(src, dst, base, slices)


@st.composite
def shapes(draw, orders=2):
    return [ModShape(draw(RANKS), draw(ORDERS)) for _ in range(orders)]


def base_for(draw, *shapes):
    return draw(st.sampled_from(divisors(gcd(*(s.order for s in shapes)))))


# -- definitions over GaussQ ----------------------------------------------------

def flat_of(f):
    """The base-field matrix of f from its slices: entry (i, l2 + F2 t),
    (j, l1 + F1 s) is entry ((i, l2), (j, l1)) of slice t - s, zero for t < s."""
    c, (d1, d2) = f.base, (f.src.order, f.dst.order)
    f1, f2 = d1 // c, d2 // c
    parts = [p.rows for p in f.parts]
    out = [[GQ_ZERO] * f.src.dim for _ in range(f.dst.dim)]
    for i in range(f.dst.rank):
        for j in range(f.src.rank):
            for t in range(c):
                for s in range(t + 1):
                    for l2 in range(f2):
                        for l1 in range(f1):
                            out[i * d2 + l2 + f2 * t][j * d1 + l1 + f1 * s] = \
                                parts[t - s][i * f2 + l2][j * f1 + l1]
    return out


def slices_from_flat(flat, src, dst, c):
    """Slice m over R_c of the R_c-linear map with base-field matrix flat:
    entry ((i, l2), (j, l1)) is flat at (i, l2 + (dst.order/c) m), (j, l1)."""
    f1, f2 = src.order // c, dst.order // c
    return [[[flat[i * dst.order + m * f2 + l2][j * src.order + l1]
              for j in range(src.rank) for l1 in range(f1)]
             for i in range(dst.rank) for l2 in range(f2)] for m in range(c)]


def matmul(a, b, ncols):
    return [[sum((r[k] * b[k][j] for k in range(len(b))), GQ_ZERO) for j in range(ncols)]
            for r in a]


def add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def trace(a):
    return sum((r[k] for k, r in enumerate(a)), GQ_ZERO)


def power_of_eps(shape, p):
    """Multiplication by eps^p on a module of the shape."""
    n, d = shape
    return [[GQ_ONE if i == j and k - l == p else GQ_ZERO
             for j in range(n) for l in range(d)] for i in range(n) for k in range(d)]


def scalar_flat(t, shape):
    """Multiplication by the scalar t of R_d on a module of the shape."""
    n, d = shape
    return [[t.coeffs[k - l] if i == j and k >= l else GQ_ZERO
             for j in range(n) for l in range(d)] for i in range(n) for k in range(d)]


def check_block(f):
    assert_canonical(f.block)
    assert (f.block.nrows, f.block.ncols) == (f.dst.dim // f.base, f.src.dim)


# -- the operations ------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_compose(data):
    u, v, w = data.draw(shapes(3))
    f = data.draw(rmaps(u, v, base_for(data.draw, u, v)))
    g = data.draw(rmaps(w, u, base_for(data.draw, w, u)))
    fg = compose(f, g)
    check_block(fg)
    assert fg.base == gcd(f.base, g.base)
    assert flat_of(fg) == matmul(flat_of(f), flat_of(g), w.dim)


@SETTINGS
@given(st.data())
def test_sum_difference_negation_scale(data):
    u, v = data.draw(shapes())
    f = data.draw(rmaps(u, v, base_for(data.draw, u, v)))
    g = data.draw(rmaps(u, v, base_for(data.draw, u, v)))
    x = data.draw(entries())
    a, b = flat_of(f), flat_of(g)
    for got, want in ((f + g, add(a, b)),
                      (f - g, add(a, [[-y for y in r] for r in b])),
                      (-f, [[-y for y in r] for r in a]),
                      (f.scale(x), [[x * y for y in r] for r in a])):
        check_block(got)
        assert flat_of(got) == want
    assert (f + g).base == gcd(f.base, g.base) and (-f).base == f.scale(x).base == f.base


@SETTINGS
@given(st.data())
def test_scale_end(data):
    (sh,) = data.draw(shapes(1))
    f = data.draw(rmaps(sh, sh, sh.order))
    t = TruncScalar(sh.order, [data.draw(entries()) for _ in range(sh.order)])
    got = scale_end(f, t)
    check_block(got)
    assert flat_of(got) == matmul(scalar_flat(t, sh), flat_of(f), sh.dim)


@SETTINGS
@given(st.data())
def test_shift_end(data):
    """f + t Id, against the base-field matrices and against f plus the
    scalar map built slice by slice from t's coefficients."""
    (sh,) = data.draw(shapes(1))
    n, d = sh
    f = data.draw(rmaps(sh, sh, d))
    rng, real = random.Random(data.draw(st.integers(0, 2 ** 32))), data.draw(st.booleans())
    t = TruncScalar(d, [entry(rng, real) for _ in range(d)])
    got = shift_end(f, t)
    check_block(got)
    assert got.base == d
    assert flat_of(got) == add(flat_of(f), scalar_flat(t, sh))
    scalar = RMap(sh, sh, d, [Matrix.identity(n).scale(x) for x in t.coeffs])
    assert fields(got.block) == fields((f + scalar).block)


@SETTINGS
@given(st.data())
def test_shift_end_errors(data):
    """Typed errors: a non-square map, a scalar of another order, a map
    declared over a smaller base."""
    u, v = data.draw(shapes())
    t = TruncScalar(u.order, [1])
    if u != v:
        with pytest.raises(ShapeMismatch):
            shift_end(data.draw(rmaps(u, v, base_for(data.draw, u, v))), t)
    f = data.draw(rmaps(u, u, u.order))
    with pytest.raises(MismatchedOrder):
        shift_end(f, TruncScalar(u.order + 1, [1]))
    if u.order > 1:
        with pytest.raises(NotLinearOverBase):
            shift_end(data.draw(rmaps(u, u, 1)), t)


@SETTINGS
@given(st.data())
def test_pr_cd(data):
    """pr(Z) = sum_{k<q} N^k Z N^(q-1-k) for N the multiplication by eps."""
    (sh,) = data.draw(shapes(1))
    c = base_for(data.draw, sh)
    z = data.draw(rmaps(sh, sh, c))
    q, zf = sh.order // c, flat_of(z)
    want = [[GQ_ZERO] * sh.dim for _ in range(sh.dim)]
    for k in range(q):
        left, right = power_of_eps(sh, k), power_of_eps(sh, q - 1 - k)
        want = add(want, matmul(matmul(left, zf, sh.dim), right, sh.dim))
    got = pr_cd(z)
    check_block(got)
    assert got.base == sh.order and flat_of(got) == want


@SETTINGS
@given(st.data())
def test_lower_and_flat(data):
    u, v = data.draw(shapes())
    f = data.draw(rmaps(u, v, base_for(data.draw, u, v)))
    flat = flat_of(f)
    assert f.flat.rows == tuple(map(tuple, flat))
    for c in divisors(f.base):
        got = slices_over(f, c)
        assert [list(map(list, a.rows)) for a in got] == slices_from_flat(flat, u, v, c)
        for a in got:
            assert_canonical(a)


@SETTINGS
@given(st.data())
def test_pair_and_trace(data):
    u, v = data.draw(shapes())
    x = data.draw(rmaps(u, v, base_for(data.draw, u, v)))
    y = data.draw(rmaps(v, u, base_for(data.draw, u, v)))
    xy = matmul(flat_of(x), flat_of(y), v.dim)
    for d in divisors(gcd(x.base, y.base)):
        slices = slices_from_flat(xy, v, v, d)
        assert pair_d(x, y, d) == trace(slices[d - 1])
        assert trace_base(compose(x, y), d).coeffs == tuple(map(trace, slices))


@SETTINGS
@given(st.data())
def test_invert_end(data):
    (sh,) = data.draw(shapes(1))
    n, d = sh
    g = data.draw(rmaps(sh, sh, d))
    # a unit: replace the constant slice by a unitriangular product
    lower = [[GQ_ONE if i == j else data.draw(entries()) if i > j else GQ_ZERO
              for j in range(n)] for i in range(n)]
    upper = [[GQ_ONE if i == j else data.draw(entries()) if i < j else GQ_ZERO
              for j in range(n)] for i in range(n)]
    const = Matrix(matmul(lower, upper, n), ncols=n)
    g = RMap(sh, sh, d, (const,) + g.parts[1:])
    gi = invert_end(g)
    check_block(gi)
    one = power_of_eps(sh, 0)
    assert matmul(flat_of(gi), flat_of(g), sh.dim) == one
    assert matmul(flat_of(g), flat_of(gi), sh.dim) == one


@SETTINGS
@given(st.data())
def test_extend_and_restrict(data):
    """Slice k of extend_scalars(x) is rows k % q :: q of x's slice k // q,
    slice k of extend_scalars_rev(y) columns q-1 - k % q :: q of y's slice
    k // q; restriction undoes either, and extension undoes restriction."""
    far, near = data.draw(shapes())
    c = base_for(data.draw, far, near)
    d, q = near.order, near.order // c
    x = data.draw(rmaps(far, near, c))
    y = data.draw(rmaps(near, far, c))
    xe, ye = extend_scalars(x), extend_scalars_rev(y)
    wide = ModShape(far.dim // c, d)
    assert (xe.src, xe.dst, xe.base, ye.src, ye.dst, ye.base) == (wide, near, d, near, wide, d)
    for got in (xe, ye):
        check_block(got)
    xs, ys = [a.rows for a in x.parts], [a.rows for a in y.parts]
    assert [a.rows for a in xe.parts] == [xs[k // q][k % q::q] for k in range(d)]
    assert [a.rows for a in ye.parts] == [
        tuple(r[q - 1 - k % q::q] for r in ys[k // q]) for k in range(d)]
    back, back_rev = restrict_scalars(xe, far, c), restrict_scalars_rev(ye, far, c)
    for got, want in ((back, x), (back_rev, y)):
        check_block(got)
        assert (got.src, got.dst, got.base) == (want.src, want.dst, want.base)
        assert fields(got.block) == fields(want.block)
    big = data.draw(rmaps(wide, near, d))
    big_rev = data.draw(rmaps(near, wide, d))
    assert extend_scalars(restrict_scalars(big, far, c)) == big
    assert extend_scalars_rev(restrict_scalars_rev(big_rev, far, c)) == big_rev
