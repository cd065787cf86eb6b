from collections import Counter
from fractions import Fraction

import pytest

import qschemes.linalg as linalg
import qschemes.rmatrix as rmatrix
from qschemes.errors import (
    NotDivisible,
    NotEndomorphism,
    NotInvertible,
    NotLinearOverBase,
    ShapeMismatch,
)
from qschemes.linalg import Matrix, hstack, vstack
from qschemes.reflect import random_level_point, reflection_functor
from qschemes.repn import random_linear_map
from qschemes.rmatrix import (
    ModShape,
    RMap,
    _lower,
    compose,
    extend_scalars,
    extend_scalars_rev,
    from_slices,
    invert_end,
    pair_d,
    pr_cd,
    restrict_scalars,
    restrict_scalars_rev,
    scale_end,
    trace_base,
    trace_r,
)
from qschemes.rng import SplitMix64
from qschemes.scalars import GaussQ, TruncScalar
from qschemes.weyl import random_params

from helpers import (
    assert_canonical,
    eps,
    fields,
    identity_end,
    lower_stacked,
    residue_pair,
    restrict_rev_stacked,
    restrict_stacked,
    scalar_end,
    slices_over,
)

G = GaussQ


def gmat(rows):
    return Matrix([[G(x) for x in r] for r in rows])


def rand_end(rng, rank, d, base):
    shape = ModShape(rank, d)
    return random_linear_map(rng, shape, shape, base)


def gauss_map(rng, src, dst, base):
    """Seeded R_base-linear map whose entries are Gaussian integers a + b i."""
    re, im = (random_linear_map(rng, src, dst, base) for _ in range(2))
    return re + im.scale(G(0, 1))


def gauss_unit(rng, n, d):
    """Unit endomorphism with non-real entries: unitriangular constant slice."""
    def entry():
        return G(rng.randint(-2, 2), rng.randint(-2, 2))
    lower = Matrix([[G(1) if i == j else entry() if i > j else G(0) for j in range(n)]
                    for i in range(n)])
    upper = Matrix([[G(1) if i == j else entry() if i < j else G(0) for j in range(n)]
                    for i in range(n)])
    rest = [Matrix([[entry() for _ in range(n)] for _ in range(n)]) for _ in range(d - 1)]
    return from_slices([lower @ upper] + rest, d)


# (d1, d2, c): source order, target order and a base ring R_c with c < d1 != d2
NONREAL_CASES = [(2, 4, 1), (4, 2, 2), (6, 3, 3), (4, 6, 2), (6, 4, 2)]


class TestConstruction:
    def test_rejects_non_linear(self):
        sh = ModShape(1, 2)
        with pytest.raises(NotLinearOverBase):
            RMap.from_flat(sh, sh, 2, gmat([[1, 2], [3, 4]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeMismatch):
            RMap.from_flat(ModShape(1, 2), ModShape(1, 2), 1, gmat([[1, 2]]))
        with pytest.raises(ShapeMismatch):
            RMap(ModShape(1, 2), ModShape(1, 2), 2, [gmat([[1]])])

    def test_rejects_bad_base(self):
        with pytest.raises(NotDivisible):
            RMap.from_flat(ModShape(1, 3), ModShape(1, 3), 2, Matrix.identity(3))
        with pytest.raises(NotDivisible):
            RMap(ModShape(1, 3), ModShape(1, 3), 2, [Matrix.identity(1)] * 2)

    def test_scalar_end_matches_multiplication(self):
        t = TruncScalar(3, [2, 5, 7])
        f = scalar_end(t, 2)
        assert trace_r(f) == t + t


class TestCompose:
    def test_identity_neutral(self):
        rng = SplitMix64(5)
        f = rand_end(rng, 2, 2, 1)
        assert compose(f, identity_end(ModShape(2, 2))) == f
        assert compose(identity_end(ModShape(2, 2)), f) == f

    def test_scalar_case_reduces_to_trunc_mul(self):
        x = TruncScalar(2, [1, 4])
        y = TruncScalar(2, [2, -3])
        fx, fy = scalar_end(x, 1), scalar_end(y, 1)
        assert compose(fx, fy) == scalar_end(x * y, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            compose(identity_end(ModShape(1, 2)), identity_end(ModShape(2, 2)))


class TestTrace:
    def test_identity(self):
        assert trace_r(identity_end(ModShape(3, 2))) == TruncScalar(2, [3])

    def test_eps(self):
        assert trace_r(scalar_end(eps(2), 1)) == eps(2)

    def test_diagonal_sum(self):
        f = from_slices([gmat([[1, 0], [0, 2]]), gmat([[1, 0], [0, 0]])], 2)
        assert trace_r(f) == TruncScalar(2, [3, 1])

    def test_cyclicity(self):
        rng = SplitMix64(9)
        f = rand_end(rng, 2, 3, 3)
        g = rand_end(rng, 2, 3, 3)
        assert trace_r(compose(f, g)) == trace_r(compose(g, f))

    def test_requires_endomorphism(self):
        z = RMap(ModShape(1, 2), ModShape(1, 2), 1, [gmat([[1, 0], [1, 1]])])
        with pytest.raises(NotEndomorphism):
            trace_r(z)


class TestPairing:
    def test_identity_pair(self):
        for d, n, want in ((1, 3, 3), (2, 3, 0), (3, 2, 0)):
            i = identity_end(ModShape(n, d))
            assert pair_d(i, i, d) == G(want)

    def test_top_eps_power(self):
        for d in (2, 3):
            sh = ModShape(1, d)
            assert pair_d(scalar_end(eps(d, d - 1), 1), identity_end(sh), d) == G(1)

    def test_scalar_case(self):
        x = scalar_end(TruncScalar(2, [1, 2]), 1)
        y = scalar_end(TruncScalar(2, [3, 1]), 1)
        assert pair_d(x, y, 2) == residue_pair(TruncScalar(2, [1, 2]), TruncScalar(2, [3, 1]))


class TestPairingKernel:
    """pair_d reads the top coefficient of the trace from the slices."""

    @pytest.mark.parametrize("d1,d2,c", NONREAL_CASES)
    def test_matches_trace_of_composite(self, d1, d2, c, monkeypatch):
        rng = SplitMix64(600 * d1 + 10 * d2 + c)
        u, v = ModShape(2, d1), ModShape(1, d2)
        for t in range(4):
            x = gauss_map(rng, u, v, c)
            y = gauss_map(rng, v, u, c) if t % 2 else random_linear_map(rng, v, u, c)
            if t > 1:
                x = x.scale(G(Fraction(1, 6), Fraction(-2, 5)))
            for d in [c] + [e for e in range(1, c) if c % e == 0]:
                want = trace_base(compose(x, y), d).coeffs[d - 1]
                with monkeypatch.context() as m:
                    for name in ("compose", "trace_base"):
                        m.setattr(rmatrix, name, _refuse(name))
                    assert pair_d(x, y, d) == want

    def test_errors(self):
        rng = SplitMix64(7)
        u, v = ModShape(2, 4), ModShape(1, 2)
        x, y = random_linear_map(rng, u, v, 2), random_linear_map(rng, v, u, 2)
        with pytest.raises(ShapeMismatch):
            pair_d(x, x, 2)
        with pytest.raises(NotEndomorphism):
            pair_d(x, random_linear_map(rng, ModShape(1, 4), u, 2), 2)
        for d in (3, 4):
            with pytest.raises(NotLinearOverBase):
                pair_d(x, y, d)


def _refuse(name):
    def refuse(*args):
        raise AssertionError(f"{name} called")
    return refuse


def _refuse_stacking(patch):
    """Make hstack and vstack raise in linalg and wherever rmatrix would
    import them (it imports neither)."""
    for module in (rmatrix, linalg):
        for name in ("hstack", "vstack"):
            patch.setattr(module, name, _refuse(name), raising=False)


class TestProductsWithoutStacking:
    """compose and invert_end multiply slices through linalg.poly_mul and
    ``@``; restriction of scalars takes rows or columns of ``_lower``."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_compose_and_invert_end(self, d, monkeypatch):
        rng = SplitMix64(700 + d)
        sh = ModShape(2, d)
        f, g = gauss_map(rng, sh, sh, d), gauss_unit(rng, 2, d)
        want = [hstack(f.parts[:m + 1]) @ vstack(g.parts[m::-1]) for m in range(d)]
        for name in ("hstack", "vstack"):
            monkeypatch.setattr(rmatrix, name, _refuse(name), raising=False)
        assert compose(f, g).parts == tuple(want)
        gi = invert_end(g)
        assert compose(gi, g) == compose(g, gi) == identity_end(sh)

    # (d1, d2, d3, c1, c2): g is R_c2-linear from rank-2 modules of order d1
    # to d2, f is R_c1-linear from order d2 to d3, and the composite lives
    # over gcd(c1, c2)
    @pytest.mark.parametrize("d1,d2,d3,c1,c2", [(4, 4, 2, 2, 4), (4, 4, 4, 4, 2),
                                                (6, 6, 3, 3, 2), (4, 2, 4, 2, 1),
                                                (3, 6, 6, 6, 3)])
    def test_compose_over_different_bases(self, d1, d2, d3, c1, c2, monkeypatch):
        rng = SplitMix64(10 * d1 + d2 + c1 * c2)
        a, b, e = ModShape(2, d1), ModShape(2, d2), ModShape(1, d3)
        for draw in (random_linear_map, gauss_map):
            g, f = draw(rng, a, b, c2), draw(rng, b, e, c1)
            want = compose(f, g)
            assert want.flat == f.flat @ g.flat
            with monkeypatch.context() as m:
                _refuse_stacking(m)
                got = compose(f, g)
                flat = got.flat
            assert got.parts == want.parts and flat == want.flat

    # (d, c): the order at the extended end and the base of the restriction
    @pytest.mark.parametrize("d,c", [(2, 1), (4, 2), (6, 3), (6, 2)])
    def test_restriction(self, d, c, monkeypatch):
        rng = SplitMix64(300 + 10 * d + c)
        src, wide = ModShape(2, d), ModShape(2 * d // c, d)
        x, y = gauss_map(rng, wide, src, d), gauss_map(rng, src, wide, d)
        want = restrict_stacked(x, src, c), restrict_rev_stacked(y, src, c)
        _refuse_stacking(monkeypatch)
        got = restrict_scalars(x, src, c), restrict_scalars_rev(y, src, c)
        for g, w in zip(got, want):
            assert [fields(a) for a in g.parts] == [fields(a) for a in w.parts]


class TestLowerByGather:
    """_lower gathers the block-Toeplitz slices in one pass; the stacked
    construction of tests/helpers.py is the reference."""

    # (d1, d2, base): source order, target order and the map's base ring
    @pytest.mark.parametrize("d1,d2,base", [(2, 2, 2), (4, 2, 2), (2, 4, 2), (6, 3, 3),
                                            (4, 4, 4), (6, 6, 6), (3, 3, 3), (6, 4, 2)])
    def test_matches_stacked_lowering(self, d1, d2, base):
        rng = SplitMix64(31 * d1 + 7 * d2 + base)
        third = G(Fraction(1, 3), Fraction(-2, 5))
        for w, v in ((1, 1), (2, 3), (0, 2), (2, 0), (3, 1)):
            src, dst = ModShape(w, d1), ModShape(v, d2)
            real = random_linear_map(rng, src, dst, base)
            for f in (real, gauss_map(rng, src, dst, base), real.scale(third)):
                for c in range(1, base + 1):
                    if base % c == 0:
                        got, want = slices_over(f, c), lower_stacked(f, c)
                        assert got == want
                        for a in got + (_lower(f, c),):
                            assert_canonical(a)

    def test_den_and_nonreal_cover_the_cases(self):
        rng = SplitMix64(5)
        sh = ModShape(2, 4)
        f = gauss_map(rng, sh, sh, 4).scale(G(Fraction(1, 6)))
        lowered = _lower(f, 1)
        assert lowered.den > 1 and lowered.im is not None
        assert lowered == lower_stacked(f, 1)[0] == f.flat


class TestRestrictByGather:
    """restrict_scalars reads the s = 0 block column of ``_lower`` and
    restrict_scalars_rev its t = q-1 block row; the stacked constructions of
    tests/helpers.py are the reference."""

    # (d, c): the order at the extended end and the base of the restriction
    @pytest.mark.parametrize("d,c", [(2, 1), (3, 1), (4, 2), (6, 2), (6, 3), (2, 2)])
    def test_matches_stacked_restriction(self, d, c):
        rng = SplitMix64(50 * d + c)
        third = G(Fraction(1, 3), Fraction(-2, 5))
        # e is the order of the far end, a multiple of c
        for e in sorted({c, d}):
            for w, v in ((1, 1), (2, 3), (0, 2), (2, 0)):
                far, near, wide = ModShape(w, e), ModShape(v, d), ModShape(w * e // c, d)
                real_x, real_y = (random_linear_map(rng, wide, near, d),
                                  random_linear_map(rng, near, wide, d))
                for x, y in ((real_x, real_y),
                             (gauss_map(rng, wide, near, d), gauss_map(rng, near, wide, d)),
                             (real_x.scale(third), real_y.scale(third))):
                    pairs = ((restrict_scalars(x, far, c), restrict_stacked(x, far, c)),
                             (restrict_scalars_rev(y, far, c), restrict_rev_stacked(y, far, c)))
                    for got, want in pairs:
                        assert (got.src, got.dst, got.base) == (want.src, want.dst, want.base)
                        assert [fields(a) for a in got.parts] == [fields(a) for a in want.parts]
                        for a in got.parts:
                            assert_canonical(a)

    def test_den_and_nonreal_cover_the_cases(self):
        rng = SplitMix64(6)
        sh, far = ModShape(2, 4), ModShape(2, 2)
        x = gauss_map(rng, sh, sh, 4).scale(G(Fraction(1, 6)))
        got = restrict_scalars(x, far, 2)
        assert got.parts[0].den > 1 and got.parts[0].im is not None
        assert got.parts == restrict_stacked(x, far, 2).parts


class TestScalarShortcuts:
    """scalar_end, scale_end and the q = 1 scalar extensions against the
    longer definitions they replace."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_scalar_end_is_identity_scaled(self, d):
        rng = SplitMix64(90 + d)
        for n in (0, 1, 3):
            for coeffs in ([rng.randint(-3, 3) for _ in range(d)],
                           [G(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-2, 2))
                            for _ in range(d)],
                           [0] * d):
                t = TruncScalar(d, coeffs)
                shape = ModShape(n, d)
                want = RMap(shape, shape, d, [Matrix.identity(n).scale(x) for x in t.coeffs])
                got = scalar_end(t, n)
                assert got.parts == want.parts
                for a in got.parts:
                    assert_canonical(a)

    # (d, base): module order and the base of the scaled map; base < d raises
    @pytest.mark.parametrize("d,base", [(1, 1), (2, 2), (2, 1), (3, 3), (3, 1), (4, 4),
                                        (4, 2), (6, 3), (6, 2)])
    def test_scale_end_is_composite_with_scalar_end(self, d, base):
        rng = SplitMix64(400 + 10 * d + base)
        for n in (0, 1, 2):
            sh = ModShape(n, d)
            for f in (rand_end(rng, n, d, base), gauss_map(rng, sh, sh, base)):
                for t in (TruncScalar(d, [G(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                            rng.randint(-1, 1)) for _ in range(d)]),
                          TruncScalar(d, [rng.randint(-3, 3) for _ in range(d)])):
                    if base < d:
                        with pytest.raises(NotLinearOverBase):
                            scale_end(f, t)
                        continue
                    got, want = scale_end(f, t), compose(scalar_end(t, n), f)
                    assert got == want and got.parts == want.parts
                    for a in got.parts:
                        assert_canonical(a)

    # (e, d): the order at the far end and at the extended end, which is
    # also the base, so q = 1; d divides e
    @pytest.mark.parametrize("e,d", [(1, 1), (2, 2), (2, 1), (4, 2), (3, 3), (6, 3), (6, 2)])
    def test_q1_extend_and_restrict_match_the_gathers(self, e, d):
        rng = SplitMix64(60 + 10 * e + d)
        for w, v in ((1, 1), (2, 3), (0, 2), (2, 0)):
            for draw in (random_linear_map, gauss_map):
                x = draw(rng, ModShape(w, e), ModShape(v, d), d)
                y = draw(rng, ModShape(v, d), ModShape(w, e), d)
                xe, ye = extend_scalars(x), extend_scalars_rev(y)
                assert xe.parts == tuple(x.parts[k].take(slice(0, None, 1)) for k in range(d))
                assert ye.parts == tuple(y.parts[k].take(cols=slice(0, None, 1))
                                         for k in range(d))
                assert (xe.src, xe.dst, ye.src, ye.dst) == (
                    ModShape(w * e // d, d), x.dst, y.src, ModShape(w * e // d, d))
                if e == d:
                    assert xe is x and ye is y
                rows = list(range(v))
                assert restrict_scalars(xe, x.src, d).parts == tuple(
                    vstack([a]).take(rows) for a in slices_over(xe, d))
                cols = list(range(v))
                assert restrict_scalars_rev(ye, y.dst, d).parts == tuple(
                    hstack([a]).take(cols=cols) for a in slices_over(ye, d))
                assert restrict_scalars(xe, x.src, d) == x
                assert restrict_scalars_rev(ye, y.dst, d) == y


class TestPr:
    def test_base_equal_is_identity(self):
        rng = SplitMix64(1)
        z = rand_end(rng, 2, 2, 2)
        assert pr_cd(z) == z

    def test_rank1_hand_case(self):
        # oracle: N Z + Z N with explicit nilpotent matrix
        sh = ModShape(1, 2)
        z = RMap(sh, sh, 1, [gmat([[1, 2], [3, 4]])])
        n = scalar_end(eps(2), 1).flat
        oracle = n @ z.flat + z.flat @ n
        assert pr_cd(z).flat == oracle
        assert trace_r(pr_cd(z)) == TruncScalar(2, [2, 5])

    def test_identity_viewed_over_subring(self):
        sh = ModShape(1, 2)
        z = RMap(sh, sh, 1, [Matrix.identity(2)])
        assert pr_cd(z) == scalar_end(eps(2), 1).scale(G(2))

    @pytest.mark.parametrize("c,d", [(1, 2), (1, 3), (2, 4), (3, 6)])
    def test_adjointness(self, c, d):
        rng = SplitMix64(1000 * c + d)
        for _ in range(10):
            rank = rng.randint(1, 3)
            z = rand_end(rng, rank, d, c)
            zp = rand_end(rng, rank, d, d)
            assert pair_d(pr_cd(z), zp, d) == pair_d(z, zp, c)


class TestExtendRestrict:
    def test_trivial_when_orders_match(self):
        rng = SplitMix64(2)
        x = rand_end(rng, 2, 2, 2)
        assert extend_scalars(x) == x
        assert extend_scalars_rev(x) == x
        assert restrict_scalars(x, x.src, 2) == restrict_scalars_rev(x, x.dst, 2) == x

    def test_rank1_forward(self):
        x = RMap(ModShape(1, 1), ModShape(1, 2), 1, [gmat([[5], [7]])])
        assert extend_scalars(x) == scalar_end(TruncScalar(2, [5, 7]), 1)
        assert restrict_scalars(extend_scalars(x), x.src, 1) == x

    def test_rank1_reverse(self):
        y = RMap(ModShape(1, 2), ModShape(1, 1), 1, [gmat([[11, 13]])])
        assert extend_scalars_rev(y) == scalar_end(TruncScalar(2, [13, 11]), 1)
        assert restrict_scalars_rev(extend_scalars_rev(y), y.dst, 1) == y

    def test_reverse_restrict_hand_case(self):
        f = scalar_end(TruncScalar(2, [3, 4]), 1)
        assert restrict_scalars(f, ModShape(1, 1), 1).flat == gmat([[3], [4]])
        assert restrict_scalars_rev(f, ModShape(1, 1), 1).flat == gmat([[4, 3]])

    def test_source_above_base_hand_case(self):
        # z(v) = v + 3 v eps, z(v eps) = 2 v + 4 v eps: over R_1 the source is
        # free on v, v eps, and the target on w, w eps
        sh = ModShape(1, 2)
        z = RMap(sh, sh, 1, [gmat([[1, 2], [3, 4]])])
        assert extend_scalars(z) == RMap(ModShape(2, 2), sh, 2, [gmat([[1, 2]]), gmat([[3, 4]])])
        # v maps to z(eps v) + z(v) eps
        assert extend_scalars_rev(z) == RMap(sh, ModShape(2, 2), 2,
                                             [gmat([[2], [4]]), gmat([[1], [3]])])

    def test_zero_maps(self):
        z = RMap(ModShape(2, 1), ModShape(1, 2), 1, [Matrix.zero(2, 2)])
        assert extend_scalars(z).is_zero()
        zr = RMap(ModShape(1, 2), ModShape(2, 1), 1, [Matrix.zero(2, 2)])
        assert extend_scalars_rev(zr).is_zero()
        assert restrict_scalars(extend_scalars(z), z.src, 1) == z
        assert restrict_scalars_rev(extend_scalars_rev(zr), zr.dst, 1) == zr

    @pytest.mark.parametrize("c,d,w,v", [(1, 2, 2, 1), (1, 3, 1, 2), (2, 4, 2, 1), (3, 6, 1, 1)])
    def test_roundtrips_and_pr_identity(self, c, d, w, v):
        rng = SplitMix64(17 * c + d)
        for _ in range(6):
            x = random_linear_map(rng, ModShape(w, c), ModShape(v, d), c)
            y = random_linear_map(rng, ModShape(v, d), ModShape(w, c), c)
            xe, ye = extend_scalars(x), extend_scalars_rev(y)
            # restriction gives x and y back
            assert restrict_scalars(xe, x.src, c) == x
            assert restrict_scalars_rev(ye, y.dst, c) == y
            # extension composite averages the plain composite
            assert compose(xe, ye) == pr_cd(compose(x, y))
            # and the pairing is preserved
            assert pair_d(xe, ye, d) == pair_d(x, y, c)

    # (e, d, c): the order at the far end, the order at the extended end and
    # the base ring, as on both ways of the arrows of the coprime (2, 3) and
    # nested (2, 4), (4, 3) corpus quivers, and the non-real cases
    @pytest.mark.parametrize("e,d,c", [(2, 3, 1), (3, 2, 1), (4, 2, 2), (2, 4, 2), (4, 3, 1)]
                             + NONREAL_CASES)
    def test_roundtrips_with_source_order_above_base(self, e, d, c):
        rng = SplitMix64(100 * e + 10 * d + c)
        for real in (True, False):
            draw = random_linear_map if real else gauss_map
            for _ in range(3):
                w, v = rng.randint(1, 2), rng.randint(1, 2)
                x = draw(rng, ModShape(w, e), ModShape(v, d), c)
                y = draw(rng, ModShape(v, d), ModShape(w, e), c)
                xe, ye = extend_scalars(x), extend_scalars_rev(y)
                assert xe.src == ye.dst == ModShape(w * e // c, d)
                assert xe.base == ye.base == d
                assert restrict_scalars(xe, x.src, c) == x
                assert restrict_scalars_rev(ye, y.dst, c) == y
                assert compose(xe, ye) == pr_cd(compose(x, y))
                # and restriction is onto: every R_d-linear map is induced
                big = draw(rng, xe.src, xe.dst, d)
                assert extend_scalars(restrict_scalars(big, x.src, c)) == big
                big_rev = draw(rng, ye.src, ye.dst, d)
                assert extend_scalars_rev(restrict_scalars_rev(big_rev, y.dst, c)) == big_rev

    def test_restrict_rejects_partial_linearity(self):
        sh = ModShape(1, 2)
        z = RMap(sh, sh, 1, [gmat([[1, 2], [3, 4]])])
        with pytest.raises(NotLinearOverBase):
            restrict_scalars(z, ModShape(1, 1), 1)
        with pytest.raises(NotLinearOverBase):
            restrict_scalars_rev(z, ModShape(1, 1), 1)

    def test_restrict_rejects_wrong_shape(self):
        f = scalar_end(TruncScalar(2, [3, 4]), 1)
        with pytest.raises(ShapeMismatch):
            restrict_scalars(f, ModShape(1, 2), 1)
        with pytest.raises(ShapeMismatch):
            restrict_scalars_rev(f, ModShape(2, 1), 1)


class TestInvert:
    def test_unit_inverts(self):
        rng = SplitMix64(3)
        from qschemes.repn import random_unit_end

        g = random_unit_end(rng, ModShape(2, 3))
        gi = invert_end(g)
        assert compose(g, gi) == identity_end(ModShape(2, 3))

    def test_non_unit_rejected(self):
        with pytest.raises(NotInvertible):
            invert_end(scalar_end(eps(2), 1))

    def test_rank_zero_runs_no_elimination(self, monkeypatch):
        """A system with no unknowns is decided on b alone."""
        calls = []
        echelon = linalg._echelon
        monkeypatch.setattr(linalg, "_echelon", lambda *args: calls.append(1) or echelon(*args))
        for d in (1, 3):
            shape = ModShape(0, d)
            assert invert_end(identity_end(shape)) == identity_end(shape)
        assert calls == []


class TestSlices:
    def test_roundtrip(self):
        rng = SplitMix64(4)
        f = rand_end(rng, 2, 3, 3)
        assert from_slices(f.parts, 3) == f


class TestSliceCore:
    """The slice storage against the flat base-field matrices, on maps with
    non-real Gaussian entries."""

    @pytest.mark.parametrize("d1,d2,c", NONREAL_CASES)
    def test_compose_matches_flat_product(self, d1, d2, c):
        rng = SplitMix64(100 * d1 + 10 * d2 + c)
        u, v, w = ModShape(2, d1), ModShape(1, d2), ModShape(2, c)
        for _ in range(3):
            f = gauss_map(rng, u, v, c)
            g = gauss_map(rng, w, u, c)
            assert any(x.im for row in f.flat.rows for x in row)
            fg = compose(f, g)
            assert fg.base == c
            assert fg.flat == f.flat @ g.flat
            # a map over a larger ring composed with one over R_c
            e = gauss_map(rng, v, v, d2)
            assert compose(e, f).flat == e.flat @ f.flat

    @pytest.mark.parametrize("d1,d2,c", NONREAL_CASES)
    def test_lower_then_raise_is_identity(self, d1, d2, c):
        rng = SplitMix64(200 * d1 + 10 * d2 + c)
        src, dst = ModShape(2, d1), ModShape(1, d2)
        f = gauss_map(rng, src, dst, c)
        for sub in range(1, c + 1):
            if c % sub:
                continue
            low = RMap(src, dst, sub, slices_over(f, sub))
            assert low == f and hash(low) == hash(f)
            back = RMap.from_flat(src, dst, c, low.flat)
            assert back.parts == f.parts and back.base == c

    @pytest.mark.parametrize("d1,d2,c", NONREAL_CASES)
    def test_pr_adjointness(self, d1, d2, c):
        rng = SplitMix64(300 * d1 + 10 * d2 + c)
        sh = ModShape(2, d1)
        for _ in range(3):
            z = gauss_map(rng, sh, sh, c)
            zp = gauss_map(rng, sh, sh, d1)
            assert pair_d(pr_cd(z), zp, d1) == pair_d(z, zp, c)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_invert_end(self, d):
        rng = SplitMix64(400 + d)
        for n in (1, 2, 3):
            g = gauss_unit(rng, n, d)
            gi = invert_end(g)
            assert compose(gi, g) == identity_end(g.src)
            assert compose(g, gi) == identity_end(g.src)

    @pytest.mark.parametrize("d1,d2,c", [x for x in NONREAL_CASES if x[2] > 1])
    def test_from_flat_rejects_non_linear(self, d1, d2, c):
        rng = SplitMix64(500 * d1 + 10 * d2 + c)
        src, dst = ModShape(2, d1), ModShape(1, d2)
        flat = gauss_map(rng, src, dst, c).flat
        # v_0 -> w_0 alone, with v_0 eps^(d1/c) -> 0, is only R_1-linear
        bump = Matrix([[G(0, 1) if (r, k) == (0, 0) else G(0) for k in range(flat.ncols)]
                       for r in range(flat.nrows)])
        with pytest.raises(NotLinearOverBase):
            RMap.from_flat(src, dst, c, flat + bump)
        assert RMap.from_flat(src, dst, 1, flat + bump).base == 1


class TestNoPerSliceObjects:
    """A map keeps its slices in one block, so the kernels and the functor's
    split and unsplit build one matrix per result, not one per slice, and no
    validating ``RMap(...)``.  The counts are pinned for one corpus functor
    call (vertex q of ``nested``: order 4, incoming arrows over R_2 and R_1)
    and one order-3 compose; a matrix per slice would raise them."""

    @staticmethod
    def counts(monkeypatch, fn, *args):
        seen = Counter()

        def counting(name, original):
            def wrapper(*a, **kw):
                seen[name] += 1
                return original(*a, **kw)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(linalg, "_new", counting("matrix", linalg._new))
            m.setattr(Matrix, "__init__", counting("matrix", Matrix.__init__))
            m.setattr(RMap, "__init__", counting("rmap_init", RMap.__init__))
            fn(*args)
        return dict(seen)

    def test_reflection_functor(self, monkeypatch, corpus):
        q = corpus["nested"]
        lam = random_params(q, 5, units=[1])
        p = random_level_point(q, lam, (1, 2, 1), "q", 7)
        assert self.counts(monkeypatch, reflection_functor, p, "q", lam) == {"matrix": 25}

    def test_compose(self, monkeypatch):
        rng, sh = SplitMix64(3), ModShape(2, 3)
        f, g = random_linear_map(rng, sh, sh, 3), random_linear_map(rng, sh, sh, 3)
        assert self.counts(monkeypatch, compose, f, g) == {"matrix": 1}
