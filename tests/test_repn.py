import pytest

import qschemes.repn as repn
from qschemes.errors import LengthMismatch, NotInvertible, ShapeMismatch
from qschemes.linalg import Matrix
from qschemes.quiver import QuiverMult
from qschemes.reflect import split
from qschemes.repn import (
    Representation,
    _moment_derivative,
    gauge,
    generating_tangent,
    mesh_check,
    moment_component,
    moment_derivative_check,
    moment_map,
    moment_trace_sum,
    random_gauge,
    random_linear_map,
    random_rep,
    random_unit_end,
    symplectic_form,
    symplectic_form_signed,
)
from qschemes.rmatrix import (
    ModShape,
    RMap,
    compose,
    from_slices,
    invert_end,
    pair_d,
    slice_extend,
    trace_r,
    zero_map,
)
from qschemes.rng import SplitMix64
from qschemes.scalars import GaussQ, TruncScalar
from qschemes.weyl import level_check

from helpers import eps, example_chain, fields, identity_end, scalar_end, zero_rep

G = GaussQ
T = TruncScalar
I_UNIT = G(0, 1)


def gmat(rows):
    return Matrix([[G(x) for x in r] for r in rows])


@pytest.fixture
def a2():
    return QuiverMult.build([("1", 1), ("2", 1)], [("h", "1", "2")])


@pytest.fixture
def a2_rep(a2):
    maps = {
        "h": RMap(ModShape(1, 1), ModShape(1, 1), 1, [gmat([[2]])]),
        "h~": RMap(ModShape(1, 1), ModShape(1, 1), 1, [gmat([[3]])]),
    }
    return Representation(a2, (1, 1), maps)


@pytest.fixture
def mixed_quiver():
    return QuiverMult.build(
        [("a", 2), ("b", 3), ("c", 1)],
        [("x", "a", "b"), ("y", "b", "c"), ("z", "a", "c")],
    )


class TestRepresentation:
    def test_missing_map_rejected(self, a2):
        with pytest.raises(ShapeMismatch):
            Representation(a2, (1, 1), {})

    def test_wrong_shape_rejected(self, a2):
        maps = {
            "h": zero_map(ModShape(2, 1), ModShape(1, 1)),
            "h~": zero_map(ModShape(1, 1), ModShape(2, 1)),
        }
        with pytest.raises(ShapeMismatch):
            Representation(a2, (1, 1), maps)

    def test_unknown_arrow_rejected(self, a2):
        maps = {
            "h": zero_map(ModShape(1, 1), ModShape(1, 1)),
            "h~": zero_map(ModShape(1, 1), ModShape(1, 1)),
            "nope": zero_map(ModShape(1, 1), ModShape(1, 1)),
        }
        with pytest.raises(ShapeMismatch):
            Representation(a2, (1, 1), maps)


class TestMomentMap:
    def test_zero_rep(self, mixed_quiver):
        rep = zero_rep(mixed_quiver, (1, 1, 2))
        assert all(m.is_zero() for m in moment_map(rep))

    def test_a2_hand_values(self, a2_rep):
        mu = moment_map(a2_rep)
        assert mu[0].flat == gmat([[-6]])
        assert mu[1].flat == gmat([[6]])

    def test_mixed_order_hand_example(self):
        # arrow from a multiplicity-1 vertex into a multiplicity-2 vertex
        q = QuiverMult.build([("1", 1), ("2", 2)], [("h", "1", "2")])
        maps = {
            "h": RMap(ModShape(1, 1), ModShape(1, 2), 1, [gmat([[1], [2]])]),
            "h~": RMap(ModShape(1, 2), ModShape(1, 1), 1, [gmat([[3, 4]])]),
        }
        rep = Representation(q, (1, 1), maps)
        mu = moment_map(rep)
        # oracle: the averaged composite sum_k N^k (B Bbar) N^(1-k) by hand
        sh = ModShape(1, 2)
        prod = maps["h"].flat @ maps["h~"].flat
        n = scalar_end(eps(2), 1).flat
        oracle = n @ prod + prod @ n
        assert mu[1].flat == oracle
        assert trace_r(mu[1]) == T(2, [4, 11])
        assert mu[0].flat == gmat([[-11]])

    def test_center_perpendicular(self, mixed_quiver):
        rng = SplitMix64(6)
        for t in range(10):
            v = tuple(rng.randint(0, 2) for _ in range(3))
            rep = random_rep(mixed_quiver, v, rng.next_u64())
            assert moment_trace_sum(moment_map(rep)) == G(0)

    def test_split_composite_cross_check(self, mixed_quiver):
        rep = random_rep(mixed_quiver, (2, 1, 2), 23)
        for i in range(mixed_quiver.n):
            s = split(rep, i)
            assert compose(s.into, s.outof) == moment_component(rep, i)


class TestMeshAndLevel:
    def test_zero_rep_zero_lambda(self, a2):
        rep = zero_rep(a2, (1, 1))
        res = mesh_check(rep, (T(1), T(1)))
        assert all(r.is_zero() for r in res)

    def test_a2_level_point(self, a2, a2_rep):
        lam = (T(1, [6]), T(1, [-6]))
        assert all(r.is_zero() for r in mesh_check(a2_rep, lam))

    def test_level_violation_shows_up(self, a2, a2_rep):
        # the level sum is nonzero, so some residual must be nonzero
        lam = (T(1, [6]), T(1, [-5]))
        assert not level_check(a2, lam, (1, 1))
        assert any(not r.is_zero() for r in mesh_check(a2_rep, lam))

    def test_level_check_values(self, a2):
        assert level_check(a2, (T(1), T(1)), (1, 1))
        assert level_check(a2, (T(1, [6]), T(1, [-6])), (1, 1))
        assert not level_check(a2, (T(1, [6]), T(1, [-5])), (1, 1))
        assert level_check(a2, (T(1, [6]), T(1, [-5])), (0, 0))


class TestSymplecticForm:
    def test_self_pairing_vanishes(self, mixed_quiver):
        t1 = random_rep(mixed_quiver, (1, 1, 1), 3)
        assert symplectic_form(t1, t1) == G(0)

    def test_single_arrow_scalar(self, a2):
        t1 = Representation(a2, (1, 1), {
            "h": RMap(ModShape(1, 1), ModShape(1, 1), 1, [gmat([[5]])]),
            "h~": zero_map(ModShape(1, 1), ModShape(1, 1)),
        })
        t2 = Representation(a2, (1, 1), {
            "h": zero_map(ModShape(1, 1), ModShape(1, 1)),
            "h~": RMap(ModShape(1, 1), ModShape(1, 1), 1, [gmat([[7]])]),
        })
        assert symplectic_form(t1, t2) == G(35)

    def test_antisymmetry_and_signed_form(self, mixed_quiver):
        rng = SplitMix64(14)
        for t in range(8):
            v = tuple(rng.randint(0, 2) for _ in range(3))
            t1 = random_rep(mixed_quiver, v, rng.next_u64())
            t2 = random_rep(mixed_quiver, v, rng.next_u64())
            w = symplectic_form(t1, t2)
            assert symplectic_form(t2, t1) == -w
            assert symplectic_form_signed(t1, t2) == w


class TestHamiltonianIdentity:
    def test_zero_tangent(self, mixed_quiver):
        v = (1, 1, 1)
        rep = random_rep(mixed_quiver, v, 2)
        delta = zero_rep(mixed_quiver, v)
        xi = random_gauge(mixed_quiver, v, 5)
        assert moment_derivative_check(rep, delta, xi)

    def test_random_data(self, mixed_quiver):
        rng = SplitMix64(77)
        for t in range(8):
            v = tuple(rng.randint(0, 2) for _ in range(3))
            rep = random_rep(mixed_quiver, v, rng.next_u64())
            delta = random_rep(mixed_quiver, v, rng.next_u64())
            xi = random_gauge(mixed_quiver, v, rng.next_u64())
            assert moment_derivative_check(rep, delta, xi)

    def test_rank1_a2(self, a2, a2_rep):
        delta = random_rep(a2, (1, 1), 31)
        xi = random_gauge(a2, (1, 1), 32)
        assert moment_derivative_check(a2_rep, delta, xi)

    def test_central_direction(self, mixed_quiver):
        # scalar directions generate no flow and pair to zero
        v = (1, 1, 1)
        rep = random_rep(mixed_quiver, v, 41)
        delta = random_rep(mixed_quiver, v, 42)
        xi = [
            scalar_end(T(mixed_quiver.mults[i], [5]), v[i])
            for i in range(3)
        ]
        assert moment_derivative_check(rep, delta, xi)
        assert all(m.is_zero() for m in generating_tangent(rep, xi).maps.values())

    def test_xi_of_wrong_length_is_typed(self, corpus):
        # checked before the derivative pairs xi[i] vertex by vertex
        q, v = corpus["a3"], (1, 1, 1)
        rep, delta, xi = random_rep(q, v, 1), random_rep(q, v, 2), random_gauge(q, v, 3)
        for bad in (xi[:2], xi + xi[:1]):
            with pytest.raises(LengthMismatch):
                moment_derivative_check(rep, delta, bad)

    @pytest.mark.parametrize("scalars", ("real", "gaussian"))
    def test_polarization_matches_three_moment_maps(self, corpus, scalars):
        """The bilinear sum equals mu(B + D) - mu(B) - mu(D), map by map and
        paired with xi, on seeded points of every corpus quiver."""
        rng = SplitMix64(61 if scalars == "real" else 62)

        def draw(q, v):
            a = random_rep(q, v, rng.next_u64())
            if scalars == "real":
                return a
            b = random_rep(q, v, rng.next_u64())
            return Representation(q, v, {k: a.maps[k] + b.maps[k].scale(I_UNIT) for k in a.maps})

        for q in corpus.values():
            for _ in range(2):
                v = tuple(rng.randint(0, 2) for _ in range(q.n))
                rep, delta = draw(q, v), draw(q, v)
                xi = [g + h.scale(I_UNIT) if scalars == "gaussian" else g
                      for g, h in zip(random_gauge(q, v, rng.next_u64()),
                                      random_gauge(q, v, rng.next_u64()))]
                both = Representation(q, v, {k: rep.maps[k] + delta.maps[k] for k in rep.maps})
                want = [bd - b - d for bd, b, d in
                        zip(moment_map(both), moment_map(rep), moment_map(delta))]
                got = [_moment_derivative(rep, delta, i) for i in range(q.n)]
                assert got == want
                pair = [pair_d(x, y, d) for x, y, d in zip(want, xi, q.mults)]
                assert sum(pair, G(0)) == sum(
                    (pair_d(x, y, d) for x, y, d in zip(got, xi, q.mults)), G(0))
                assert sum(pair, G(0)) == symplectic_form(generating_tangent(rep, xi), delta)
                assert moment_derivative_check(rep, delta, xi)

    def test_wrong_tangent_fails(self, corpus, monkeypatch):
        q, v = corpus["chain_d2"], (1, 2, 1)
        rep, delta, xi = random_rep(q, v, 1), random_rep(q, v, 2), random_gauge(q, v, 3)
        assert symplectic_form(generating_tangent(rep, xi), delta) == G(-45)
        assert moment_derivative_check(rep, delta, xi)

        def doubled(rep, xi):
            t = generating_tangent(rep, xi)
            return Representation(t.quiver, t.v, {k: f + f for k, f in t.maps.items()})

        monkeypatch.setattr(repn, "generating_tangent", doubled)
        assert not moment_derivative_check(rep, delta, xi)


class TestGauge:
    def test_identity_gauge(self, mixed_quiver):
        v = (1, 2, 1)
        rep = random_rep(mixed_quiver, v, 4)
        g = [identity_end(ModShape(v[i], mixed_quiver.mults[i])) for i in range(3)]
        assert gauge(rep, g) == rep

    def test_central_scalar_acts_trivially(self, mixed_quiver):
        v = (1, 2, 1)
        rep = random_rep(mixed_quiver, v, 4)
        g = [scalar_end(T(mixed_quiver.mults[i], [3]), v[i]) for i in range(3)]
        assert gauge(rep, g) == rep

    def test_moment_conjugates(self, mixed_quiver):
        v = (2, 1, 2)
        rep = random_rep(mixed_quiver, v, 9)
        g = random_gauge(mixed_quiver, v, 10)
        mu = moment_map(rep)
        mu_g = moment_map(gauge(rep, g))
        for i in range(3):
            assert mu_g[i] == compose(g[i], compose(mu[i], invert_end(g[i])))

    def test_form_gauge_invariant(self, mixed_quiver):
        v = (1, 1, 1)
        t1 = random_rep(mixed_quiver, v, 11)
        t2 = random_rep(mixed_quiver, v, 12)
        g = random_gauge(mixed_quiver, v, 13)
        assert symplectic_form(gauge(t1, g), gauge(t2, g)) == symplectic_form(t1, t2)

    def test_wrong_count_rejected(self, mixed_quiver):
        v = (1, 2, 1)
        rep, g = random_rep(mixed_quiver, v, 4), random_gauge(mixed_quiver, v, 5)
        with pytest.raises(LengthMismatch):
            gauge(rep, g[:2])
        with pytest.raises(LengthMismatch):
            generating_tangent(rep, g + g[:1])

    @pytest.mark.parametrize("shape", [ModShape(2, 2), ModShape(1, 1)])
    def test_wrong_rank_or_order_rejected(self, mixed_quiver, shape):
        # vertex a has multiplicity 2 and dimension 1
        v = (1, 2, 1)
        rep, g = random_rep(mixed_quiver, v, 4), random_gauge(mixed_quiver, v, 5)
        bad = (random_unit_end(SplitMix64(6), shape),) + g[1:]
        with pytest.raises(ShapeMismatch, match="vertex a"):
            gauge(rep, bad)

    def test_end_over_a_subring_rejected(self, mixed_quiver):
        # the right shape at vertex b (multiplicity 3), but linear only over R_1
        v = (1, 2, 1)
        rep, g = random_rep(mixed_quiver, v, 4), random_gauge(mixed_quiver, v, 5)
        sh = ModShape(2, 3)
        bad = g[:1] + (random_linear_map(SplitMix64(7), sh, sh, 1),) + g[2:]
        with pytest.raises(ShapeMismatch, match="vertex b"):
            gauge(rep, bad)

    def test_non_unit_rejected(self, a2, a2_rep):
        bad = [scalar_end(eps(1, 0), 1).scale(G(0)), scalar_end(eps(1, 0), 1)]
        with pytest.raises(NotInvertible):
            gauge(a2_rep, bad)


class TestGenerators:
    def test_empty_dimension(self):
        q = example_chain(2)
        rep = random_rep(q, (0, 0, 0), 3)
        assert all(m.flat.nrows == 0 or m.flat.ncols == 0 for m in rep.maps.values())

    def test_determinism(self, mixed_quiver):
        assert random_rep(mixed_quiver, (1, 2, 1), 7) == random_rep(mixed_quiver, (1, 2, 1), 7)
        assert random_rep(mixed_quiver, (1, 2, 1), 7) != random_rep(mixed_quiver, (1, 2, 1), 8)

    def test_validity(self, mixed_quiver):
        # constructing the Representation revalidates every invariant
        rep = random_rep(mixed_quiver, (1, 1, 1), 7)
        Representation(mixed_quiver, rep.v, dict(rep.maps))

    def test_draws_match_gaussq_reference(self):
        """Integer draws give the maps that GaussQ rows drew, from the same
        stream positions."""
        def ref_matrix(rng, nrows, ncols, lo=-3, hi=3):
            return Matrix([[G(rng.randint(lo, hi)) for _ in range(ncols)]
                           for _ in range(nrows)], ncols=ncols)

        def ref_unit(rng, n, d):
            lower = [[G(1) if i == j else G(rng.randint(-2, 2)) if i > j else G(0)
                      for j in range(n)] for i in range(n)]
            upper = [[G(1) if i == j else G(rng.randint(-2, 2)) if i < j else G(0)
                      for j in range(n)] for i in range(n)]
            diag = [[G((1, -1, 2, -2, 3)[rng.randint(0, 4)]) if i == j else G(0)
                     for j in range(n)] for i in range(n)]
            const = Matrix(lower, ncols=n) @ Matrix(diag, ncols=n) @ Matrix(upper, ncols=n)
            return from_slices([const] + [ref_matrix(rng, n, n, -2, 2) for _ in range(d - 1)], d)

        for n in range(4):
            for d in (1, 2, 3):
                a, b = SplitMix64(31 * n + d), SplitMix64(31 * n + d)
                got, want = random_unit_end(a, ModShape(n, d)), ref_unit(b, n, d)
                assert [fields(p) for p in got.parts] == [fields(p) for p in want.parts]
                src, dst = ModShape(n, 2 * d), ModShape(2, d)
                got = random_linear_map(a, src, dst, d)
                want = slice_extend(src, dst, d, ref_matrix(b, dst.dim, 2 * n))
                assert [fields(p) for p in got.parts] == [fields(p) for p in want.parts]
                assert a.next_u64() == b.next_u64()
