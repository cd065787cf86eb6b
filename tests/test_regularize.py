import json

import pytest

from qschemes import regularize
from qschemes.errors import InvalidLeg
from qschemes.quiver import QuiverMult, bilinear, expected_dim
from qschemes.regularize import (
    LegDescriptor,
    PhiMap,
    check_theorem_hypotheses,
    find_legs,
    isometry_check,
    leg_from_names,
    param_map_matrix,
    phi_map,
    regularize_params,
    regularize_quiver,
    verify_param_equivariance,
    verify_semidirect,
)
from qschemes.rng import SplitMix64
from qschemes.scalars import TruncScalar
from qschemes.weyl import level_check, random_params

from helpers import example_star, example_two_legs

T = TruncScalar


def long_leg(d, length):
    """base(1) - x1(d) - ... - xlength(d), plus a spectator wing."""
    vertices = [("w", 1), ("b", 1)] + [(f"x{i}", d) for i in range(1, length + 1)]
    arrows = [("a0", "w", "b"), ("a1", "b", "x1")]
    for i in range(1, length):
        arrows.append((f"c{i}", f"x{i}", f"x{i+1}"))
    return QuiverMult.build(vertices, arrows)


class TestFindLegs:
    def test_multiplicity_free(self, corpus):
        assert find_legs(corpus["a3"]) == []
        assert find_legs(corpus["kronecker"]) == []

    def test_star_has_one(self):
        for n in (2, 3, 5):
            for d in (2, 3, 4):
                legs = find_legs(example_star(n, d))
                assert len(legs) == 1
                assert legs[0].length == 1 and legs[0].d == d

    def test_two_legs(self):
        for d in (2, 3):
            legs = find_legs(example_two_legs(4, d))
            assert len(legs) == 2
            assert all(l.length == 1 for l in legs)

    def test_longer_chain(self):
        q = long_leg(3, 2)
        legs = find_legs(q)
        assert len(legs) == 1 and legs[0].length == 2

    def test_multiple_arrows_break_leg(self):
        q = QuiverMult.build(
            [("b", 1), ("x", 2)],
            [("a", "b", "x"), ("a2", "b", "x")],
        )
        assert find_legs(q) == []

    def test_outside_attachment_breaks_leg(self):
        q = QuiverMult.build(
            [("b", 1), ("x", 2), ("w", 1)],
            [("a", "b", "x"), ("c", "w", "x")],
        )
        assert find_legs(q) == []

    def test_branching_chain_breaks_leg(self):
        q = QuiverMult.build(
            [("b", 1), ("v1", 2), ("v2", 2), ("v3", 2)],
            [("a", "b", "v1"), ("c", "v1", "v2"), ("e", "v1", "v3")],
        )
        assert find_legs(q) == []


class TestRegularizeQuiver:
    def test_star_n2(self):
        for d in (2, 3, 5):
            q = example_star(2, d)
            reg = regularize_quiver(q, find_legs(q)[0])
            assert reg.mults == (1, 1)
            assert len(reg.arrows) == d - 2

    def test_star_n3_structure(self):
        for d in (2, 3, 4):
            q = example_star(3, d)
            reg = regularize_quiver(q, find_legs(q)[0])
            a = reg.cartan.a
            leg_i, base_i, c1 = 0, 1, 2
            assert a[leg_i][c1] == 1       # duplicated neighbour attachment
            assert a[base_i][c1] == 1      # original attachment survives
            assert a[leg_i][base_i] == d - 2

    def test_d2_step4_empty(self):
        q = example_star(3, 2)
        reg = regularize_quiver(q, find_legs(q)[0])
        assert not any(ar.name.startswith("reg_") for ar in reg.arrows)

    def test_invalid_leg_rejected(self):
        q = example_star(3, 2)
        with pytest.raises(InvalidLeg):
            regularize_quiver(q, LegDescriptor(2, (0,), 2))
        with pytest.raises(InvalidLeg):
            leg_from_names(q, ["base", "c1"])

    def test_off_leg_subquiver_untouched(self):
        q = long_leg(3, 2)
        leg = find_legs(q)[0]
        reg = regularize_quiver(q, leg)
        # the spectator arrow w->b survives with its name and endpoints
        kept = [ar for ar in reg.arrows if ar.name == "a0"]
        assert len(kept) == 1
        assert reg.name(kept[0].source) == "w" and reg.name(kept[0].target) == "b"

    def test_taken_arrow_name_is_renamed(self):
        # the copy of a: c -> base onto the leg vertex would be a_to_leg,
        # which the kept arrow w -> c already uses
        q = QuiverMult.build(
            [("c", 1), ("base", 1), ("leg", 3), ("w", 1)],
            [("a", "c", "base"), ("a_to_leg", "w", "c"), ("t", "base", "leg")],
        )
        reg = regularize_quiver(q, find_legs(q)[0])
        assert [(ar.name, reg.name(ar.source), reg.name(ar.target)) for ar in reg.arrows] == [
            ("a", "c", "base"), ("a_to_leg", "w", "c"), ("a_to_leg_x", "c", "leg"),
            ("reg_base_leg_0", "base", "leg")]

    def test_arrow_count_for_longer_leg(self):
        # kept spectator + one duplicate per leg vertex + (l+1 choose 2)(d-2)
        for d in (2, 3, 4):
            q = long_leg(d, 2)
            leg = find_legs(q)[0]
            reg = regularize_quiver(q, leg)
            assert len(reg.arrows) == 1 + 2 + 3 * (d - 2)


class TestRegularizeParams:
    def test_zero_tail_keeps_v(self):
        q = example_star(3, 2)
        leg = find_legs(q)[0]
        _, vc = regularize_params(q, leg, (T(2), T(1), T(1)), (0, 2, 1))
        assert vc == (0, 2, 1)

    def test_length_one_lambda(self):
        q = example_star(3, 2)
        leg = find_legs(q)[0]
        lam = (T(2, [4, 7]), T(1, [5]), T(1, [9]))
        lamc, _ = regularize_params(q, leg, lam, (1, 1, 0))
        assert lamc[1] == T(1, [5])
        assert lamc[0] == T(1, [12])
        assert lamc[2] == T(1, [9])

    def test_length_two_lambda(self):
        q = long_leg(2, 2)
        leg = find_legs(q)[0]
        lam = (T(1, [1]), T(1, [10]), T(2, [2, 3]), T(2, [4, 5]))
        lamc, _ = regularize_params(q, leg, lam, (0, 2, 1, 1))
        assert lamc[1] == T(1, [10])
        assert lamc[2] == T(1, [13])   # lam_b + top of x1
        assert lamc[3] == T(1, [18])   # ... + top of x2
        assert lamc[0] == T(1, [1])


def units(rep, terms=None):
    """Verdicts of the unit conditions, of sums of ``terms`` parameters if given."""
    return [ok for case, ok, _, _ in rep.verdicts if case.startswith("unit ")
            and (terms is None or case.count("+") == terms - 1)]


class TestHypotheses:
    def test_zero_lambda_fails_units(self):
        q = example_star(3, 2)
        leg = find_legs(q)[0]
        rep = check_theorem_hypotheses(q, leg, (T(2), T(1), T(1)), (1, 1, 1))
        assert not rep.ok
        assert units(rep) == [False]

    def test_non_increasing_passes_dims(self):
        q = example_star(3, 2)
        leg = find_legs(q)[0]
        lam = (T(2, [1, 0]), T(1), T(1))
        rep = check_theorem_hypotheses(q, leg, lam, (1, 2, 0))
        assert all(ok for case, ok, _, _ in rep.verdicts if case.startswith("dim "))
        assert rep.ok and units(rep) == [True]

    def test_pair_sum_zero_fails(self):
        q = long_leg(2, 2)
        leg = find_legs(q)[0]
        lam = (T(1), T(1), T(2, [1, 0]), T(2, [-1, 0]))
        rep = check_theorem_hypotheses(q, leg, lam, (0, 1, 1, 1))
        assert units(rep, 1) == [True, True]
        assert units(rep, 2) == [False]


class TestPhiMap:
    def test_length_one_block(self):
        q = example_star(3, 2)
        leg = find_legs(q)[0]
        pm = phi_map(q, leg)
        # chain is (base, leg) = vertex indices (1, 0)
        assert pm.apply((5, 3, 9)) == (5, 3 - 5, 9)
        assert PhiMap(pm.inverse, pm.matrix).apply(pm.apply((5, 3, 9))) == (5, 3, 9)

    def test_identity_off_leg(self):
        q = long_leg(2, 2)
        leg = find_legs(q)[0]
        m = phi_map(q, leg).matrix
        assert m[0][0] == 1 and all(m[0][j] == 0 for j in range(1, q.n))

    def test_isometry_random_vectors(self):
        rng = SplitMix64(5)
        for d in (2, 3, 4):
            q = example_star(4, d)
            leg = find_legs(q)[0]
            reg = regularize_quiver(q, leg)
            pm = phi_map(q, leg)
            for t in range(10):
                v = tuple(rng.randint(-3, 3) for _ in range(q.n))
                w = tuple(rng.randint(-3, 3) for _ in range(q.n))
                assert bilinear(q, v, w) == bilinear(reg, pm.apply(v), pm.apply(w))

    def test_isometry_matrix_identity(self):
        for d in (2, 3, 4):
            for q in (example_star(3, d), example_two_legs(4, d), long_leg(d, 2)):
                for leg in find_legs(q):
                    assert isometry_check(q, leg, regularize_quiver(q, leg))


class TestGroupIdentities:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_semidirect(self, d):
        for q in (example_star(3, d), example_star(4, d),
                  example_two_legs(4, d), long_leg(d, 2)):
            for leg in find_legs(q):
                rep = verify_semidirect(q, leg, regularize_quiver(q, leg))
                assert rep.ok, rep.summary()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_param_equivariance(self, d):
        for q in (example_star(3, d), example_star(4, d),
                  example_two_legs(4, d), long_leg(d, 2)):
            for leg in find_legs(q):
                rep = verify_param_equivariance(q, leg, regularize_quiver(q, leg))
                assert rep.ok, rep.summary()

    def test_param_matrix_shape(self):
        q = example_star(3, 3)
        leg = find_legs(q)[0]
        reg = regularize_quiver(q, leg)
        m = param_map_matrix(q, leg, reg)
        assert len(m) == sum(reg.mults)
        assert len(m[0]) == sum(q.mults)


class TestTransferInvariance:
    def test_expected_dim_and_level(self):
        rng = SplitMix64(1)
        for d in (2, 3):
            q = long_leg(d, 2)
            leg = find_legs(q)[0]
            reg = regularize_quiver(q, leg)
            for t in range(15):
                v = [rng.randint(0, 4) for _ in range(q.n)]
                ch = leg.chain()
                for pos in range(1, len(ch)):
                    v[ch[pos]] = min(v[ch[pos]], v[ch[pos - 1]])
                v = tuple(v)
                lam = random_params(q, rng.next_u64())
                lamc, vc = regularize_params(q, leg, lam, v)
                assert expected_dim(q, v) == expected_dim(reg, vc)
                assert level_check(q, lam, v) == level_check(reg, lamc, vc)

    def test_double_regularization_reaches_multiplicity_free(self):
        for d in (2, 3):
            q = example_two_legs(5, d)
            leg1 = find_legs(q)[0]
            r1 = regularize_quiver(q, leg1)
            leg2 = find_legs(r1)[0]
            r2 = regularize_quiver(r1, leg2)
            assert all(m == 1 for m in r2.mults)

    def test_regularized_chain_not_a_leg(self):
        q = example_star(3, 3)
        leg = find_legs(q)[0]
        reg = regularize_quiver(q, leg)
        chain = set(leg.chain())
        for l2 in find_legs(reg):
            assert not set(l2.vertices) & chain


class TestValidatesOnce:
    """The leg is validated once, when ``regularize_quiver`` builds the
    rewrite; the verifiers take that rewrite and build none of their own, so
    ``qs reg-verify`` and the regularize suite build it once per leg.
    Counted by wrapping the module's functions."""

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        right = getattr(regularize, name)

        def wrapper(*args):
            calls.append(args)
            return right(*args)

        monkeypatch.setattr(regularize, name, wrapper)
        return calls

    @pytest.mark.parametrize("verifier", [isometry_check, verify_semidirect,
                                          verify_param_equivariance])
    def test_one_find_legs_call(self, monkeypatch, corpus, verifier):
        q = corpus["double_d3"]
        leg = leg_from_names(q, ["k", "i", "j"])
        calls = self.counted(monkeypatch, "find_legs")
        result = verifier(q, leg, regularize.regularize_quiver(q, leg))
        assert result is True or result.ok
        assert len(calls) == 1

    def test_equivariance_builds_the_rewrite_once(self, monkeypatch, corpus):
        q = corpus["double_d3"]
        leg = leg_from_names(q, ["k", "i", "j"])
        calls = self.counted(monkeypatch, "regularize_quiver")
        assert verify_param_equivariance(q, leg, regularize.regularize_quiver(q, leg)).ok
        assert len(calls) == 1

    def test_reg_verify_builds_the_rewrite_once(self, monkeypatch, capsys, corpus_dir):
        from qschemes.cli import main
        legs = self.counted(monkeypatch, "find_legs")
        rewrites = self.counted(monkeypatch, "regularize_quiver")
        path = str(corpus_dir / "double_d3.quiver")
        assert main(["--format", "json", "reg-verify", path, "--leg", "k,i,j"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]
        # one validation when the leg is parsed, one when the rewrite is built
        assert (len(legs), len(rewrites)) == (2, 1)

    def test_suite_builds_each_rewrite_once(self, monkeypatch, corpus):
        from qschemes.suites import suite_regularize
        n_legs = sum(len(find_legs(q)) for q in corpus.values())
        legs = self.counted(monkeypatch, "find_legs")
        rewrites = self.counted(monkeypatch, "regularize_quiver")
        assert suite_regularize(corpus, 1, 1).ok
        assert len(rewrites) == n_legs > 0
        # per quiver one search; per leg one validation and one search of the rewrite
        assert len(legs) == len(corpus) + 2 * n_legs
