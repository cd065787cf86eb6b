import json
from fractions import Fraction
from pathlib import Path

import pytest

import qschemes.linalg as linalg
import qschemes.orbit
import qschemes.scalars as scalars
from qschemes import serialize as ser
from qschemes.errors import NotInOrbit, ShapeMismatch
from qschemes.linalg import Matrix, _echelon, hstack, rank
from qschemes.orbit import (
    OrbitSpec,
    big_theta,
    canonical_leg_point,
    coordinates,
    free_basis,
    leg_factorize,
    leg_mesh_residuals,
    leg_rank_checks,
    nu,
    orbit_dimension,
    orbit_membership,
    random_conjugate,
    random_non_member,
)
from qschemes.rmatrix import (
    ModShape,
    RMap,
    compose,
    from_slices,
    invert_end,
    scale_end,
    zero_map,
)
from qschemes.repn import gauge, moment_map, random_gauge, random_linear_map, random_unit_end
from qschemes.rng import SplitMix64
from qschemes.scalars import GaussQ, TruncScalar, trunc_inv

from helpers import (TopSliceNotZero, eps, identity_end, idempotents,
                     residue_product_membership, scalar_end, shift_decompose, shift_map)

G = GaussQ
T = TruncScalar


def spec_d1():
    return OrbitSpec(1, ((1, T(1, [0])), (1, T(1, [1]))))


def spec_d2():
    return OrbitSpec(2, ((1, T(2, [0, 1])), (2, T(2, [1, 0])), (1, T(2, [3, 2]))))


def spec_d3():
    return OrbitSpec(3, ((2, T(3, [0, 1, 0])), (1, T(3, [2, 0, 1])), (1, T(3, [-1, 1, 1]))))


def spec_golden():
    """The d = 3 spec with a non-real theta that the golden CLI cases use."""
    path = Path(__file__).resolve().parent / "golden" / "spec.json"
    return ser.orbit_spec_from_obj(json.loads(path.read_text()))


ALL_SPECS = [spec_d1, spec_d2, spec_d3]


def exhaustive_membership(spec, a):
    """Every identity of the Lagrange projectors, checked one by one.

    The verdict and the projectors pi_i = c_i^{-1} prod_{j != i} (A - theta_j);
    an oracle for ``orbit_membership``, which tests only the product and the
    residue ranks.
    """
    n, thetas = spec.total, spec.thetas
    shape = a.src
    product = identity_end(shape)
    for t in thetas:
        product = compose(product, a - scalar_end(t, n))
    pis = []
    for i, ti in enumerate(thetas):
        prod, c = identity_end(shape), T(spec.d, [1])
        for j, tj in enumerate(thetas):
            if j != i:
                prod = compose(prod, a - scalar_end(tj, n))
                c = c * (ti - tj)
        pis.append(scale_end(prod, trunc_inv(c)))
    total = pis[0]
    for pi in pis[1:]:
        total = total + pi
    ok = product.is_zero() and total == identity_end(shape)
    for i, pi in enumerate(pis):
        for j, pj in enumerate(pis):
            ok = ok and compose(pi, pj) == (pi if i == j else zero_map(shape, shape))
        ok = ok and compose(a, pi) == scale_end(pi, thetas[i])
        ok = ok and rank(pi.parts[0]) == spec.dims[i]
    return ok, tuple(pis)


def swapped_dims_non_member(spec, seed):
    """A conjugate of Theta with the dimension of block 0 swapped with the first
    block dimension that differs from it: the product vanishes, the residue
    ranks do not match."""
    dims = list(spec.dims)
    i = next(k for k in range(1, len(dims)) if dims[k] != dims[0])
    dims[0], dims[i] = dims[i], dims[0]
    return random_conjugate(
        OrbitSpec(spec.d, tuple(zip(dims, spec.thetas))), seed)


class TestSpecValidation:
    def test_non_unit_difference_rejected(self):
        with pytest.raises(ValueError):
            OrbitSpec(2, ((1, T(2, [1, 0])), (1, T(2, [1, 5]))))

    def test_single_block_rejected(self):
        with pytest.raises(ValueError):
            OrbitSpec(2, ((2, T(2, [1])),))

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            OrbitSpec(1, ((-1, T(1, [0])), (1, T(1, [1]))))


class TestMembership:
    def test_model_point(self):
        for make in ALL_SPECS:
            spec = make()
            w = orbit_membership(spec, big_theta(spec))
            assert w.ok, w.reasons
            # witnesses are the coordinate block projectors
            pos = 0
            for blk, pi in zip(spec.blocks, idempotents(w)):
                res = pi.parts[0]
                for j in range(spec.total):
                    want = G(1 if pos <= j < pos + blk[0] else 0)
                    assert res[j, j] == want
                pos += blk[0]

    def test_conjugates_stay_members(self):
        for make in ALL_SPECS:
            spec = make()
            for seed in range(4):
                a = random_conjugate(spec, seed)
                w = orbit_membership(spec, a)
                assert w.ok, (make.__name__, seed, w.reasons)
                pis = idempotents(w)
                total = pis[0]
                for pi in pis[1:]:
                    total = total + pi
                assert total == identity_end(a.src)
                for i, pi in enumerate(pis):
                    assert compose(pi, pi) == pi
                    assert compose(a, pi) == scale_end(pi, spec.thetas[i])
                    for j, pj in enumerate(pis):
                        if i != j:
                            assert compose(pi, pj).is_zero()

    def test_idempotents_built_on_read(self):
        """The witness keeps no projectors: they are built anew on each read,
        and the slotted witness cannot store them."""
        spec = spec_d2()
        w = orbit_membership(spec, random_conjugate(spec, 1))
        first, again = idempotents(w), idempotents(w)
        assert first == again and all(p is not q for p, q in zip(first, again))
        with pytest.raises(AttributeError):
            w.idempotents = ()
        assert idempotents(orbit_membership(spec, random_non_member(spec, 1))) == ()

    def test_eps_perturbation_fails(self):
        for make in (spec_d2, spec_d3):
            spec = make()
            a = big_theta(spec) + scalar_end(eps(spec.d), spec.total)
            assert not orbit_membership(spec, a).ok

    def test_generated_non_members_fail(self):
        for make in ALL_SPECS:
            spec = make()
            for seed in range(6):
                bad = random_non_member(spec, seed)
                assert not orbit_membership(spec, bad).ok, (make.__name__, seed)

    def test_shape_checked(self):
        spec = spec_d1()
        with pytest.raises(ShapeMismatch):
            orbit_membership(spec, identity_end(ModShape(3, 1)))

    def test_rank_zero_has_no_non_member(self):
        spec = OrbitSpec(2, ((0, T(2, [1])), (0, T(2, [2]))))
        for seed in range(4):
            with pytest.raises(ShapeMismatch, match="no non-member"):
                random_non_member(spec, seed)


class TestAgainstExhaustiveCheck:
    """``orbit_membership`` agrees with checking every projector identity."""

    DECISIVE = ("product of (A - theta_j) does not vanish",
                "residue rank of pi_")

    def cases(self, spec):
        yield "model", big_theta(spec)
        for seed in range(3):
            yield f"conjugate {seed}", random_conjugate(spec, seed)
            yield f"non-member {seed}", random_non_member(spec, seed)
        if spec.d > 1:
            yield "eps-perturbed", big_theta(spec) + scalar_end(eps(spec.d), spec.total)
        if len(set(spec.dims)) > 1:
            yield "swapped dims", swapped_dims_non_member(spec, 1)

    def test_verdicts_and_idempotents_agree(self):
        kinds = set()
        for make in ALL_SPECS + [spec_golden]:
            spec = make()
            for name, a in self.cases(spec):
                want_ok, want_pis = exhaustive_membership(spec, a)
                w = orbit_membership(spec, a)
                assert w.ok == want_ok, (make.__name__, name, w.reasons)
                if w.ok:
                    assert idempotents(w) == want_pis, (make.__name__, name)
                    assert w.reasons == []
                else:
                    assert idempotents(w) == ()
                    assert w.reasons and all(r.startswith(self.DECISIVE) for r in w.reasons)
                kinds.add((name.split()[0], w.ok))
        # both verdicts occur, and every kind of non-member is rejected
        assert {("model", True), ("conjugate", True), ("non-member", False),
                ("eps-perturbed", False), ("swapped", False)} <= kinds

    def test_golden_inputs(self):
        golden = Path(__file__).resolve().parent / "golden"
        spec = spec_golden()
        for name, member in (("a_member.json", True), ("a_non_member.json", False)):
            a = ser.rmap_from_obj(json.loads((golden / name).read_text()))
            want_ok, want_pis = exhaustive_membership(spec, a)
            w = orbit_membership(spec, a)
            assert w.ok == want_ok == member
            assert idempotents(w) == (want_pis if member else ())


def spec_gauss():
    """d = 2 with non-real thetas, one of them over a denominator."""
    return OrbitSpec(2, ((2, T(2, [G(0, 1), 1])), (1, T(2, [G(1, -1), 0])),
                         (2, T(2, [G(Fraction(-1, 2)), G(0, 2)]))))


def conjugated(rng, parts):
    """g A g^{-1} for the endomorphism A with the given slices and a seeded unit g."""
    a = from_slices([Matrix(p) for p in parts], len(parts))
    g = random_unit_end(rng, a.src)
    return compose(g, compose(a, invert_end(g)))


def block_scalar_plus_nilpotent(spec, rng):
    """A conjugate of Theta + N, N strictly upper triangular inside each block
    of Theta with entries 0 or 1 in every slice: its residue is in general
    not diagonalizable."""
    n, d = spec.total, spec.d
    block = [i for i, w in enumerate(spec.dims) for _ in range(w)]
    theta = big_theta(spec).block
    parts = []
    for m in range(d):
        const = theta.take(cols=slice(m * n, (m + 1) * n)).rows
        parts.append([[const[i][j] + (rng.randint(0, 1) if i < j and block[i] == block[j] else 0)
                       for j in range(n)] for i in range(n)])
    return conjugated(rng, parts)


def triangular_end(spec, rng):
    """A conjugate of an upper-triangular endomorphism whose residue has its
    diagonal drawn from the theta_j(0) and one value that is none of them,
    and random entries above the diagonal and in the higher slices."""
    n, d = spec.total, spec.d
    consts = [t.coeff(0) for t in spec.thetas]
    values = consts + [next(G(c) for c in range(1, len(consts) + 2) if G(c) not in consts)]
    diag = [values[rng.randint(0, len(values) - 1)] for _ in range(n)]
    parts = [[[diag[i] if i == j else rng.randint(-1, 1) if i < j else 0 for j in range(n)]
              for i in range(n)]]
    parts += [[[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)] for _ in range(d - 1)]
    return conjugated(rng, parts)


class TestNullityRule:
    """The verdicts and reasons of ``orbit_membership``, which reads the
    residue ranks of the projectors off the nullities of the factors
    A(0) - theta_j(0), equal those of the residue-product rule on members,
    random endomorphisms, block-scalar plus nilpotent endomorphisms (residues
    not diagonalizable) and triangular ones, with real and Gaussian thetas."""

    def test_agrees_with_residue_products(self):
        seen = set()
        for make in ALL_SPECS + [spec_golden, spec_gauss]:
            spec = make()
            rng = SplitMix64(len(spec.dims) * 10 + spec.d)
            shape = ModShape(spec.total, spec.d)
            cases = [random_conjugate(spec, seed) for seed in range(2)]
            cases += [random_non_member(spec, seed) for seed in range(4)]
            cases += [random_linear_map(rng, shape, shape, spec.d) for _ in range(3)]
            cases += [block_scalar_plus_nilpotent(spec, rng) for _ in range(6)]
            cases += [triangular_end(spec, rng) for _ in range(12)]
            for k, a in enumerate(cases):
                w = orbit_membership(spec, a)
                assert (w.ok, w.reasons) == residue_product_membership(spec, a), (make.__name__, k)
                seen.add((w.ok, tuple(r.split()[0] for r in w.reasons)))
        # members, and non-members that fail on the ranks alone, on the
        # product alone and on both
        assert (True, ()) in seen
        assert any(not ok and "product" not in rs for ok, rs in seen)
        assert (False, ("product",)) in seen
        assert any(len(rs) > 1 and rs[0] == "product" for ok, rs in seen)


class TestOperationCount:
    """A decision, member or not, takes at most l composes and no
    ``scale_end``; ``leg_factorize`` scales only the l projectors it reads."""

    @staticmethod
    def count_calls(monkeypatch, run):
        calls = {"compose": 0, "scale_end": 0}
        with monkeypatch.context() as m:
            for name in calls:
                def counting(*args, name=name, f=getattr(qschemes.orbit, name)):
                    calls[name] += 1
                    return f(*args)
                m.setattr(qschemes.orbit, name, counting)
            out = run()
        return out, calls

    def test_compose_budget(self, monkeypatch):
        for make in ALL_SPECS + [spec_golden]:
            spec = make()
            l = spec.legs
            # Theta + eps (Theta + 1 at d = 1): the product does not vanish
            shift = eps(spec.d) if spec.d > 1 else T(1, [1])
            bad = big_theta(spec) + scalar_end(shift, spec.total)
            cases = [(True, random_conjugate(spec, seed)) for seed in range(3)]
            cases += [(False, bad), (False, random_non_member(spec, 1))]
            for member, a in cases:
                w, n = self.count_calls(monkeypatch, lambda: orbit_membership(spec, a))
                assert w.ok == member, (make.__name__, w.reasons)
                assert a is not bad or w.reasons[0].startswith("product")
                assert n["compose"] <= l and n["scale_end"] == 0, (make.__name__, n)

    def test_leg_factorize_scales_only_pi_1_to_pi_l(self, monkeypatch):
        for make in ALL_SPECS + [spec_golden]:
            spec = make()
            a = random_conjugate(spec, 3)
            _, n = self.count_calls(monkeypatch, lambda: leg_factorize(spec, a))
            assert n["scale_end"] == spec.legs, (make.__name__, n)

    def test_membership_multiplies_no_residues(self, monkeypatch):
        """A decision makes exactly l composes and no matrix product besides
        them (a compose over R_1 is one)."""
        matmuls = []
        original = Matrix.__matmul__
        monkeypatch.setattr(Matrix, "__matmul__",
                            lambda *args: matmuls.append(1) or original(*args))
        for make in ALL_SPECS + [spec_golden]:
            spec = make()
            for a in (random_conjugate(spec, 1), random_non_member(spec, 1)):
                matmuls.clear()
                _, n = self.count_calls(monkeypatch, lambda: orbit_membership(spec, a))
                assert n["compose"] == spec.legs, (make.__name__, n)
                assert len(matmuls) == (spec.legs if spec.d == 1 else 0), make.__name__

    def test_leg_factorize_with_witness_shifts_nothing(self, monkeypatch):
        """theta_i - A is read off the witness's factors, not shifted anew."""
        for make in ALL_SPECS + [spec_golden]:
            spec = make()
            a = random_conjugate(spec, 6)
            w = orbit_membership(spec, a)
            calls = []
            with monkeypatch.context() as m:
                m.setattr(qschemes.orbit, "shift_end",
                          lambda *args, f=qschemes.orbit.shift_end: calls.append(1) or f(*args))
                point = leg_factorize(spec, a, w)
            assert not calls and nu(spec, point) == a, make.__name__

    def test_witness_reuse(self, monkeypatch):
        for make in ALL_SPECS:
            spec = make()
            a = random_conjugate(spec, 2)
            w = orbit_membership(spec, a)
            bad = random_non_member(spec, 2)
            w_bad = orbit_membership(spec, bad)
            want = leg_factorize(spec, a)
            with monkeypatch.context() as m:
                # a given witness is used as it is, not recomputed
                m.setattr(qschemes.orbit, "orbit_membership", None)
                assert leg_factorize(spec, a, w) == want
                with pytest.raises(NotInOrbit):
                    leg_factorize(spec, bad, w_bad)

    def test_one_elimination_per_solve(self, monkeypatch):
        """``coordinates`` and ``invert_end`` over R_c, c > 1, each run one
        ``_echelon`` for all c slices."""
        spec = spec_d3()
        a = random_conjugate(spec, 4)
        e = idempotents(orbit_membership(spec, a))[1]
        u = free_basis(e)
        g = random_unit_end(SplitMix64(4), ModShape(3, 3))
        calls = []

        def counting(*args):
            calls.append(1)
            return _echelon(*args)

        monkeypatch.setattr(linalg, "_echelon", counting)
        k = coordinates(u, e)
        assert len(calls) == 1 and compose(u, k) == e
        calls.clear()
        with pytest.raises(ShapeMismatch, match="inconsistent"):
            coordinates(u, a)
        assert len(calls) == 1
        calls.clear()
        h = invert_end(g)
        assert len(calls) == 1 and compose(g, h) == identity_end(g.src)

    def test_no_gauss_scalars(self, monkeypatch):
        """A member decision and its projectors run on integer numerators:
        they build no GaussQ,
        with real thetas (spec_d3) or a non-real theta with a denominator
        (spec_golden).  Every GaussQ goes through ``scalars._gq`` or the
        constructor, both counted."""
        for make in (spec_d3, spec_golden):
            spec = make()
            a = random_conjugate(spec, 5)
            built = []
            with monkeypatch.context() as m:
                for owner, name in ((scalars, "_gq"), (GaussQ, "__init__")):
                    original = getattr(owner, name)
                    m.setattr(owner, name, lambda *args, f=original: built.append(1) or f(*args))
                w = orbit_membership(spec, a)
                pis = idempotents(w)
            assert w.ok and len(pis) == 3
            assert len(built) == 0, make.__name__


class TestCanonicalPoint:
    def test_reduced_single_block_tail(self):
        # vanishing first block: the junction maps present theta_1 itself
        lam = T(2, [1, 1])
        spec = OrbitSpec(2, ((0, T(2)), (1, lam)))
        p = canonical_leg_point(spec)
        assert nu(spec, p) == big_theta(spec) == scalar_end(lam, 1)
        assert all(r.is_zero() for r in leg_mesh_residuals(spec, p))

    def test_two_by_two(self):
        spec = spec_d1()
        p = canonical_leg_point(spec)
        got = nu(spec, p)
        assert got == big_theta(spec)
        assert [got.parts[0][i, i] for i in range(2)] == [G(0), G(1)]

    def test_general_mesh_residuals(self):
        for make in ALL_SPECS:
            spec = make()
            p = canonical_leg_point(spec)
            assert nu(spec, p) == big_theta(spec)
            assert all(r.is_zero() for r in leg_mesh_residuals(spec, p))
            assert leg_rank_checks(spec, p)
            # moment values are the expected scalars, not just zero residuals
            for i, m in enumerate(moment_map(p)[1:], start=1):
                lam_i = spec.thetas[i] - spec.thetas[i - 1]
                assert m == scalar_end(-lam_i, m.src.rank)


class TestFactorize:
    def test_model_point_gives_canonical(self):
        for make in ALL_SPECS:
            spec = make()
            assert leg_factorize(spec, big_theta(spec)) == canonical_leg_point(spec)

    def test_chain_maps_are_r_d_linear(self):
        # l maps each way, junction maps included, every one over R_d
        for make in ALL_SPECS:
            spec = make()
            for p in (canonical_leg_point(spec), leg_factorize(spec, random_conjugate(spec, 4))):
                assert len(p.maps) == 2 * spec.legs
                assert all(f.base == spec.d for f in p.maps.values())
                for i in range(spec.legs):
                    dn, up = p.maps[f"b{i}"], p.maps[f"b{i}~"]
                    v_i, v_next = (ModShape(spec.tail_dim(k), spec.d) for k in (i, i + 1))
                    assert (dn.src, dn.dst, up.src, up.dst) == (v_i, v_next, v_next, v_i)

    def test_conjugates_factor_exactly(self):
        for make in ALL_SPECS:
            spec = make()
            for seed in range(5):
                a = random_conjugate(spec, seed)
                p = leg_factorize(spec, a)
                assert nu(spec, p) == a
                assert all(r.is_zero() for r in leg_mesh_residuals(spec, p))
                assert leg_rank_checks(spec, p)

    def test_zero_middle_block(self):
        # a vanishing interior block leaves consecutive chain modules equal
        spec = OrbitSpec(2, ((1, T(2, [0, 1])), (0, T(2, [1])), (1, T(2, [3]))))
        p = canonical_leg_point(spec)
        assert p.v == (2, 1, 1)
        assert nu(spec, p) == big_theta(spec)
        assert all(r.is_zero() for r in leg_mesh_residuals(spec, p))
        for seed in range(3):
            a = random_conjugate(spec, seed)
            point = leg_factorize(spec, a)
            assert nu(spec, point) == a
            assert leg_rank_checks(spec, point)

    def test_non_member_rejected(self):
        spec = spec_d2()
        with pytest.raises(NotInOrbit):
            leg_factorize(spec, random_non_member(spec, 0))

    def test_image_agreement(self):
        # nested projector images match the product construction
        spec = spec_d2()
        for seed in range(3):
            a = random_conjugate(spec, seed)
            pis = idempotents(orbit_membership(spec, a))
            for i in range(1, spec.legs + 1):
                proj = pis[i]
                for pjj in pis[i + 1:]:
                    proj = proj + pjj
                u = free_basis(proj)
                prod = None
                for j in range(i):
                    f = scalar_end(spec.thetas[j], spec.total) - a
                    prod = f if prod is None else compose(f, prod)
                stacked = hstack([u.flat, prod.flat])
                assert rank(stacked) == rank(u.flat) == rank(prod.flat)


class TestChainPointsAreRepresentations:
    """A chain point is a representation of the spec's leg quiver, so the
    generic moment map and gauge action apply to it."""

    def test_leg_quiver_is_built_once(self):
        for make in ALL_SPECS:
            q = make().quiver
            assert q is make().quiver
            assert q.mults == (make().d,) * (make().legs + 1)
            assert [(a.source, a.target) for a in q.arrows] == [
                (i, i + 1) for i in range(make().legs)]

    def test_moment_map_and_gauge(self):
        for make in ALL_SPECS:
            spec = make()
            n, thetas = spec.total, spec.thetas
            for seed in range(3):
                a = random_conjugate(spec, seed)
                p = leg_factorize(spec, a)
                assert p.quiver == spec.quiver
                # (a - theta_0, -lam_1 Id, ..., -lam_l Id), lam_i = theta_i - theta_{i-1}
                mu = moment_map(p)
                assert mu == (a - scalar_end(thetas[0], n),) + tuple(
                    scalar_end(thetas[i - 1] - thetas[i], p.v[i])
                    for i in range(1, spec.legs + 1))
                g = random_gauge(p.quiver, p.v, seed)
                moved = gauge(p, g)

                def conj(f):
                    return compose(g[0], compose(f, invert_end(g[0])))

                assert moment_map(moved)[0] == conj(mu[0])
                assert nu(spec, moved) == conj(a)
                assert all(r.is_zero() for r in leg_mesh_residuals(spec, moved))
                assert leg_rank_checks(spec, moved)


class TestFreeBasis:
    def test_basis_is_section(self):
        spec = spec_d2()
        a = random_conjugate(spec, 8)
        _, p1, p2 = idempotents(orbit_membership(spec, a))
        e = p1 + p2
        u = free_basis(e)
        k = coordinates(u, e)
        assert compose(u, k) == e
        assert compose(k, u) == identity_end(u.src)

    def test_deterministic(self):
        spec = spec_d3()
        a = random_conjugate(spec, 5)
        e = idempotents(orbit_membership(spec, a))[0]
        assert free_basis(e) == free_basis(e)


class TestDimensionIdentity:
    def test_formula(self):
        for make in ALL_SPECS:
            spec = make()
            n = spec.total
            assert orbit_dimension(spec) == spec.d * (
                n * n - sum(w * w for w in spec.dims)
            )


class TestShift:
    def test_order_one(self):
        spec = spec_d1()
        theta = big_theta(spec)
        top, rest = shift_decompose(theta)
        assert rest.is_zero()
        assert top == theta.parts[0]

    def test_top_eps_identity(self):
        sh = ModShape(2, 3)
        a = scalar_end(eps(3, 2), 2)
        top, rest = shift_decompose(a)
        assert top == Matrix.identity(2)
        assert rest.is_zero()

    def test_recompose(self):
        spec = spec_d3()
        a = random_conjugate(spec, 3)
        top, rest = shift_decompose(a)
        n = spec.total
        rebuilt = rest + from_slices(
            [Matrix.zero(n, n)] * (spec.d - 1) + [top], spec.d
        )
        assert rebuilt == a

    def test_shift_map_noop(self):
        spec = spec_d2()
        _, rest = shift_decompose(big_theta(spec))
        assert shift_map(rest, Matrix.zero(4, 4), G(0)) == rest

    def test_shift_map_identity(self):
        sh = ModShape(2, 2)
        b = RMap.from_flat(sh, sh, 2, Matrix.zero(4, 4))
        out = shift_map(b, Matrix.identity(2), G(0))
        assert out == scalar_end(eps(2), 2).scale(G(-1))

    def test_shift_then_decompose(self):
        spec = spec_d2()
        rng = SplitMix64(4)
        _, rest = shift_decompose(random_conjugate(spec, 9))
        m = Matrix([[G(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)])
        zeta = G(2)
        out = shift_map(rest, m, zeta)
        top2, rest2 = shift_decompose(out)
        assert rest2 == rest
        assert top2 == -(m + Matrix.identity(4).scale(zeta))

    def test_rejects_nonzero_top(self):
        sh = ModShape(1, 2)
        with pytest.raises(TopSliceNotZero):
            shift_map(scalar_end(eps(2), 1), Matrix.zero(1, 1), G(0))
