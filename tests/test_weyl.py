import math

import pytest

from qschemes.errors import LengthMismatch, MismatchedOrder, UnknownVertex
from qschemes.quiver import QuiverMult, bilinear
from qschemes.repn import random_params
from qschemes.rng import SplitMix64
from qschemes.scalars import GaussQ, TruncScalar
from qschemes.weyl import (
    check_params,
    dim_reflection_matrix,
    int_mat_mul,
    int_transpose,
    lift_cartan,
    pairing_matrix,
    param_reflection_matrix,
    reflect_dim,
    reflect_param,
    rho,
    rho_matrix,
    transpose_action_matrix,
    verify_coxeter,
)

from helpers import (
    SameVertex,
    coxeter_order,
    example_chain,
    example_double,
    residue_pair,
)

G = GaussQ
T = TruncScalar


# -- test-local oracles: parameters as flat coordinate vectors -------------------

def zero_params(q):
    return tuple(T(m) for m in q.mults)


def flatten_params(q, lam):
    return [c for x in check_params(q, lam) for c in x.coeffs]


def unflatten_params(q, coords):
    out, pos = [], 0
    for m in q.mults:
        out.append(T(m, coords[pos:pos + m]))
        pos += m
    assert pos == len(coords), "flat coordinate length mismatch"
    return tuple(out)


def apply_int_matrix_to_params(q, m, lam):
    """The parameter vector moved by an integer matrix on flat coordinates."""
    flat = flatten_params(q, lam)
    out = [sum((G(a) * x for a, x in zip(row, flat) if a), G(0)) for row in m]
    return unflatten_params(q, out)


def transpose_action(q, i, kappa):
    """The residue-pairing transpose of r_i; changes only the i-th component."""
    i = q.index(i)
    kappa = check_params(q, kappa)
    d = q.mults
    c = q.cartan.c
    corr = [G(0)] * d[i]
    for j in range(q.n):
        if c[i][j] == 0:
            continue
        g = math.gcd(d[i], d[j])
        fji = d[i] // g
        fij = d[j] // g
        for m in range(g):
            corr[fji * m] = corr[fji * m] + G(c[i][j]) * kappa[j].coeffs[fij * m]
    out = list(kappa)
    out[i] = kappa[i] - T(d[i], corr)
    return tuple(out)


class TestCheckParams:
    def test_length_and_order_errors(self, corpus):
        q = corpus["chain_d2"]
        with pytest.raises(LengthMismatch, match="^2 parameters for 3 vertices$"):
            check_params(q, (T(1, [1]), T(2, [1, 0])))
        with pytest.raises(MismatchedOrder,
                           match="^parameter at j has order 1, vertex multiplicity 2$"):
            check_params(q, (T(1, [1]), T(1, [1]), T(1, [1])))


class TestReflectDim:
    def test_zero(self):
        q = example_chain(2)
        assert reflect_dim(q, "i", (0, 0, 0)) == (0, 0, 0)

    def test_simple_root_negated(self):
        q = example_chain(2)
        assert reflect_dim(q, "i", (1, 0, 0)) == (-1, 0, 0)

    def test_chain_example(self):
        q = example_chain(2)
        assert reflect_dim(q, "i", (1, 1, 1)) == (2, 1, 1)

    def test_involution_and_isometry(self, corpus):
        rng = SplitMix64(11)
        for q in (example_chain(2), example_double(3), corpus["kronecker"]):
            for _ in range(20):
                v = tuple(rng.randint(-4, 4) for _ in range(q.n))
                w = tuple(rng.randint(-4, 4) for _ in range(q.n))
                for i in range(q.n):
                    assert reflect_dim(q, i, reflect_dim(q, i, v)) == v
                    assert bilinear(q, reflect_dim(q, i, v), reflect_dim(q, i, w)) \
                        == bilinear(q, v, w)

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            reflect_dim(example_chain(2), "zz", (1, 1, 1))


class TestReflectParam:
    def test_zero_fixed(self):
        q = example_chain(2)
        z = zero_params(q)
        assert reflect_param(q, "i", z) == z

    def test_chain_formula(self):
        # at the middle multiplicity-1 vertex: lam_j + d lam_i eps^(d-1), lam_k + lam_i
        for d in (2, 3):
            q = example_chain(d)
            lam = (T(1, [3]), T(d, [1]), T(1, [5]))
            out = reflect_param(q, "i", lam)
            assert out[0] == T(1, [-3])
            want_j = [1] + [0] * (d - 2) + [d * 3]
            assert out[1] == T(d, want_j)
            assert out[2] == T(1, [8])

    def test_chain_numeric_example(self):
        q = example_chain(2)
        lam = (T(1, [3]), T(2, [1, 0]), T(1, [5]))
        assert reflect_param(q, "i", lam) == (T(1, [-3]), T(2, [1, 6]), T(1, [8]))

    def test_double_formula(self):
        # equal multiplicities absorb the full scalar; the far vertex sees the top coefficient
        for d in (2, 3):
            q = example_double(d)
            lam = (T(d, [2, 1]), T(d, [0, 7]), T(1, [1]))
            out = reflect_param(q, "i", lam)
            assert out[0] == -lam[0]
            assert out[1] == lam[1] + lam[0]
            assert out[2] == T(1, [1 + lam[0].coeffs[d - 1].re])

    def test_involution(self):
        rng = SplitMix64(3)
        for q in (example_chain(2), example_double(3)):
            for t in range(10):
                lam = random_params(q, rng.next_u64())
                for i in range(q.n):
                    assert reflect_param(q, i, reflect_param(q, i, lam)) == lam


class TestTransposeAction:
    def test_zero(self):
        q = example_double(2)
        z = zero_params(q)
        assert transpose_action(q, "i", z) == z

    def test_classical_when_multiplicity_free(self):
        q = QuiverMult.build(
            [("a", 1), ("b", 1), ("c", 1)],
            [("x", "a", "b"), ("y", "b", "c")],
        )
        kappa = (T(1, [2]), T(1, [3]), T(1, [5]))
        c = q.cartan.c
        for i in range(3):
            out = transpose_action(q, i, kappa)
            correction = sum(c[i][j] * kappa[j].coeffs[0].re for j in range(3))
            want = list(kappa)
            want[i] = T(1, [kappa[i].coeffs[0].re - correction])
            assert out == tuple(want)

    def test_duality_with_reflect_param(self):
        # <r_i(lam), kappa> == <lam, transpose(kappa)> summed over vertices
        rng = SplitMix64(8)
        for q in (example_chain(2), example_chain(3), example_double(2)):
            for t in range(10):
                lam = random_params(q, rng.next_u64())
                kappa = random_params(q, rng.next_u64())
                for i in range(q.n):
                    lhs = sum(
                        (residue_pair(a, b) for a, b in zip(reflect_param(q, i, lam), kappa)),
                        G(0),
                    )
                    rhs = sum(
                        (residue_pair(a, b) for a, b in zip(lam, transpose_action(q, i, kappa))),
                        G(0),
                    )
                    assert lhs == rhs

    def test_matrix_duality(self, corpus):
        for q in corpus.values():
            p = pairing_matrix(q)
            for i in range(q.n):
                mr = param_reflection_matrix(q, i)
                ms = transpose_action_matrix(q, i)
                assert int_mat_mul(int_transpose(mr), p) == int_mat_mul(p, ms)

    def test_matrices_match_actions(self):
        rng = SplitMix64(21)
        for q in (example_chain(3), example_double(2)):
            lam = random_params(q, rng.next_u64())
            for i in range(q.n):
                via_matrix = apply_int_matrix_to_params(
                    q, param_reflection_matrix(q, i), lam
                )
                assert via_matrix == reflect_param(q, i, lam)
                via_matrix = apply_int_matrix_to_params(
                    q, transpose_action_matrix(q, i), lam
                )
                assert via_matrix == transpose_action(q, i, lam)


class TestLiftedCartan:
    def test_multiplicity_free_is_plain(self):
        q = QuiverMult.build(
            [("a", 1), ("b", 1)], [("x", "a", "b")]
        )
        assert lift_cartan(q).c == q.cartan.c

    def test_diagonal_two(self, corpus):
        for q in corpus.values():
            lc = lift_cartan(q)
            n = len(lc.indices)
            assert all(lc.c[a][a] == 2 for a in range(n))

    def test_membership_rule_brute_force(self):
        # entry nonzero exactly when (k, l) are matched multiples for one m
        q = example_chain(2)
        c = q.cartan.c
        d = q.mults
        lc = lift_cartan(q)
        for a, (i, k) in enumerate(lc.indices):
            for b, (j, l) in enumerate(lc.indices):
                g = math.gcd(d[i], d[j])
                hit = any(
                    k == (d[i] // g) * m and l == (d[j] // g) * m
                    for m in range(g)
                )
                assert lc.c[a][b] == (c[i][j] if hit else 0)

    def test_symmetrizable(self, corpus):
        for q in corpus.values():
            lc = lift_cartan(q)
            n = len(lc.indices)
            dc = [[lc.d[a] * lc.c[a][b] for b in range(n)] for a in range(n)]
            assert dc == int_transpose(dc)
            assert all(
                lc.c[a][b] <= 0 for a in range(n) for b in range(n) if a != b
            )

    def test_product_of_lifted_reflections(self, corpus):
        for q in corpus.values():
            lc = lift_cartan(q)
            for i in range(q.n):
                prod = None
                for a, (vi, _) in enumerate(lc.indices):
                    if vi != i:
                        continue
                    refl = lc.reflection_matrix(a)
                    prod = refl if prod is None else int_mat_mul(prod, refl)
                assert prod == transpose_action_matrix(q, i)


class TestCoxeterOrder:
    def test_disconnected(self):
        q = QuiverMult.build([("a", 1), ("b", 1)])
        assert coxeter_order(q, "a", "b") == 2

    def test_chain_pairs(self):
        q = example_chain(2)
        assert coxeter_order(q, "i", "k") == 3
        assert coxeter_order(q, "i", "j") == 4
        assert coxeter_order(example_chain(3), "i", "j") == 6
        assert coxeter_order(example_chain(4), "i", "j") == math.inf

    def test_same_vertex(self):
        with pytest.raises(SameVertex):
            coxeter_order(example_chain(2), "i", "i")


class TestVerifyCoxeter:
    def test_single_vertex(self):
        rep, _ = verify_coxeter(QuiverMult.build([("a", 2)]))
        assert rep.ok and rep.checks == 2

    def test_chain(self):
        assert verify_coxeter(example_chain(2))[0].ok

    def test_double_d3(self):
        rep, _ = verify_coxeter(example_double(3))
        assert rep.ok
        cases = [case for case, _, _, _ in rep.verdicts]
        assert ("param", ("i", "j"), 3) in cases and ("dim", ("i", "j"), 3) in cases  # unit Cartan

    def test_infinite_pair_skipped(self, corpus):
        rep, skipped = verify_coxeter(corpus["kronecker"])
        assert rep.ok
        assert skipped == [(("p", "q"), 4)]


class TestRho:
    def test_top_coefficient(self):
        q = example_chain(3)
        lam = (T(1, [7]), T(3, [0, 0, 1]), T(1))
        assert rho(q, lam) == (G(7), G(1), G(0))

    def test_constant_at_higher_order(self):
        q = example_chain(2)
        lam = (T(1, [1]), T(2, [1]), T(1))
        assert rho(q, lam)[1] == G(0)

    def test_intertwining_matrix(self, corpus):
        for q in corpus.values():
            m_rho = rho_matrix(q)
            for i in range(q.n):
                lhs = int_mat_mul(m_rho, param_reflection_matrix(q, i))
                rhs = int_mat_mul(
                    int_transpose(dim_reflection_matrix(q, i)), m_rho
                )
                assert lhs == rhs

    def test_level_compatibility(self):
        rng = SplitMix64(19)
        for q in (example_chain(2), example_double(3)):
            for t in range(10):
                lam = random_params(q, rng.next_u64())
                v = tuple(rng.randint(-3, 3) for _ in range(q.n))
                base = sum((G(x) * r for x, r in zip(v, rho(q, lam))), G(0))
                for j in range(q.n):
                    moved = sum(
                        (G(x) * r for x, r in zip(
                            reflect_dim(q, j, v), rho(q, reflect_param(q, j, lam)))),
                        G(0),
                    )
                    assert moved == base


def test_flatten_roundtrip():
    q = example_double(3)
    lam = random_params(q, 5)
    assert unflatten_params(q, flatten_params(q, lam)) == lam
