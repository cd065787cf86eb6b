import pytest

from qschemes.errors import EmptyLevelSet, NotAUnit, NotInLevelSet
from qschemes.linalg import Matrix, hstack, rank, vstack
from qschemes.orbit import OrbitSpec, orbit_membership
from qschemes.quiver import QuiverMult
from qschemes.reflect import (
    phi,
    random_level_point,
    reflection_functor,
    split,
    tilde_dimension,
    unsplit,
)
from qschemes.repn import (
    Representation,
    gauge,
    moment_component,
    random_gauge,
    random_params,
    random_rep,
)
from qschemes.rmatrix import (
    ModShape,
    RMap,
    compose,
    invert_end,
    scale_end,
)
from qschemes.rng import SplitMix64
from qschemes.scalars import GaussQ, TruncScalar, trunc_inv
from qschemes.weyl import level_check, reflect_dim, reflect_param

from helpers import (
    braid_probe,
    example_chain,
    example_double,
    parameter_block,
    scalar_end,
    split_gauge,
    top_block,
    zero_rep,
)

G = GaussQ
T = TruncScalar


def gmat(rows):
    return Matrix([[G(x) for x in r] for r in rows])


@pytest.fixture
def a2():
    return QuiverMult.build([("1", 1), ("2", 1)], [("h", "1", "2")])


@pytest.fixture
def a2_rep(a2):
    return Representation(a2, (1, 1), {
        "h": RMap(ModShape(1, 1), ModShape(1, 1), 1, [gmat([[2]])]),
        "h~": RMap(ModShape(1, 1), ModShape(1, 1), 1, [gmat([[3]])]),
    })


class TestSplit:
    def test_zero_rep(self):
        q = example_chain(2)
        s = split(zero_rep(q, (1, 1, 1)), "i")
        assert s.into.is_zero() and s.outof.is_zero()
        assert s.into.src.rank == tilde_dimension(q, "i", (1, 1, 1)) == 3

    def test_a2_blocks(self, a2, a2_rep):
        s = split(a2_rep, "2")
        assert s.into.flat == gmat([[2]])   # sign +1 on the unreversed arrow
        assert s.outof.flat == gmat([[3]])
        s1 = split(a2_rep, "1")
        assert s1.into.flat == gmat([[-3]])  # reversed arrow carries sign -1
        assert s1.outof.flat == gmat([[2]])

    def test_into_outof_are_induced_to_the_vertex_ring(self, corpus):
        """into/outof are R_{d_i}-linear, and their base-field blocks are the
        signed stack of the per-arrow blocks, on points with non-real entries."""
        rng = SplitMix64(12)
        for name in ("double_d3", "nested"):
            q = corpus[name]
            v = tuple(1 + rng.randint(0, 1) for _ in range(q.n))
            a, b = (random_rep(q, v, rng.next_u64()) for _ in range(2))
            rep = Representation(q, v, {k: a.maps[k] + b.maps[k].scale(G(0, 1))
                                        for k in a.maps})
            assert all(f.flat.im is not None for f in rep.maps.values())
            for i in range(q.n):
                d_i = q.mults[i]
                s = split(rep, i)
                assert s.into.base == s.outof.base == d_i
                arrows = q.incoming[i]
                assert parameter_block(s.into, d_i) == hstack(
                    [parameter_block(rep.maps[h.name], h.base).scale(h.sign)
                     for h in arrows])
                assert top_block(s.outof, d_i) == vstack(
                    [top_block(rep.maps[h.reversed_name], h.base) for h in arrows])
                assert compose(s.into, s.outof) == moment_component(rep, i)
                assert unsplit(q, v, s) == rep

    def test_unsplit_inverts(self):
        rng = SplitMix64(3)
        for q in (example_chain(2), example_double(3)):
            for t in range(6):
                v = tuple(rng.randint(0, 2) for _ in range(q.n))
                rep = random_rep(q, v, rng.next_u64())
                for i in range(q.n):
                    assert unsplit(q, v, split(rep, i)) == rep


class TestPhi:
    def test_zero_rep(self):
        q = example_chain(2)
        a, _ = phi(zero_rep(q, (1, 1, 1)), "i")
        assert a.is_zero()

    def test_a2_scalar_case(self, a2, a2_rep):
        a, _ = phi(a2_rep, "2")
        assert a.flat == gmat([[-6]])
        # moment at 2 is 6 = -lambda_2, and A sits in the two-block orbit
        spec = OrbitSpec(1, ((0, T(1)), (1, T(1, [-6]))))
        assert orbit_membership(spec, a).ok

    def test_generator_lands_in_orbit(self):
        q = example_chain(2)
        v = (1, 1, 1)
        lam = random_params(q, 17, units=["i"])
        p = random_level_point(q, lam, v, "i", 4)
        a, _ = phi(p, "i")
        tilde = tilde_dimension(q, "i", v)
        spec = OrbitSpec(1, ((tilde - v[0], T(1)), (v[0], lam[0])))
        assert orbit_membership(spec, a).ok


class TestRandomLevelPoint:
    def test_zero_vertex_dimension(self):
        q = example_chain(2)
        lam = random_params(q, 5, units=["i"])
        p = random_level_point(q, lam, (0, 1, 1), "i", 8)
        assert moment_component(p, "i").is_zero()

    def test_moment_value_exact(self):
        rng = SplitMix64(2)
        for q in (example_chain(2), example_chain(3), example_double(2)):
            for t in range(6):
                lam = random_params(q, rng.next_u64(), units=["i"])
                v = (1, 1, 1)
                p = random_level_point(q, lam, v, "i", rng.next_u64())
                assert moment_component(p, "i") == scalar_end(-lam[0], v[0])

    def test_empty_level_set(self):
        q = example_chain(2)
        lam = random_params(q, 5, units=["i"])
        with pytest.raises(EmptyLevelSet):
            random_level_point(q, lam, (5, 0, 0), "i", 1)

    def test_non_unit_rejected(self):
        q = example_chain(2)
        lam = (T(1), T(2, [1]), T(1, [1]))
        with pytest.raises(NotAUnit):
            random_level_point(q, lam, (1, 1, 1), "i", 1)

    def test_determinism(self):
        q = example_double(2)
        lam = random_params(q, 5, units=["i"])
        assert random_level_point(q, lam, (1, 1, 1), "i", 3) == \
            random_level_point(q, lam, (1, 1, 1), "i", 3)


class TestReflectionFunctor:
    def test_a2_point(self, a2, a2_rep):
        lam = (T(1, [6]), T(1, [-6]))
        out = reflection_functor(a2_rep, "2", lam)
        assert out.v == reflect_dim(a2, "2", (1, 1))
        assert moment_component(out, "2") == scalar_end(lam[1], out.v[1])
        lam2 = reflect_param(a2, "2", lam)
        diff = moment_component(out, "1") - moment_component(a2_rep, "1")
        assert diff == scalar_end(-(lam2[0] - lam[0]), 1)
        # the input sits in the full level set, so the output sits in the
        # reflected one
        from qschemes.repn import mesh_check

        assert all(r.is_zero() for r in mesh_check(a2_rep, lam))
        assert all(r.is_zero() for r in mesh_check(out, lam2))

    def test_full_level_transport_on_chain(self):
        # joint full-level point on the chain: reflected point lands in the
        # full reflected level set
        from qschemes.repn import mesh_check

        q = example_chain(2)
        lam = (T(1, [1]), T(2, [0, -2]), T(1, [1]))
        maps = {
            "a": RMap(ModShape(1, 2), ModShape(1, 1), 1, [gmat([[1, 0]])]),
            "a~": RMap(ModShape(1, 1), ModShape(1, 2), 1, [gmat([[-2], [0]])]),
            "b": RMap(ModShape(1, 1), ModShape(1, 1), 1, [gmat([[1]])]),
            "b~": RMap(ModShape(1, 1), ModShape(1, 1), 1, [gmat([[-1]])]),
        }
        rep = Representation(q, (1, 1, 1), maps)
        assert level_check(q, lam, rep.v)
        assert all(r.is_zero() for r in mesh_check(rep, lam))
        out = reflection_functor(rep, "i", lam)
        assert all(r.is_zero() for r in mesh_check(out, reflect_param(q, "i", lam)))

    def test_vertex_zero_inflates(self):
        q = example_chain(2)
        v = (0, 1, 1)
        lam = random_params(q, 5, units=["i"])
        p = random_level_point(q, lam, v, "i", 4)
        out = reflection_functor(p, "i", lam)
        assert out.v[0] == tilde_dimension(q, "i", v) == 3
        assert moment_component(out, "i") == scalar_end(lam[0], 3)

    def test_postconditions_random(self):
        rng = SplitMix64(9)
        for q in (example_chain(2), example_double(2), example_chain(3)):
            for t in range(5):
                i = t % q.n
                lam = random_params(q, rng.next_u64(), units=[i])
                v = tuple(rng.randint(0, 2) for _ in range(q.n))
                if tilde_dimension(q, i, v) - v[i] < 0:
                    with pytest.raises(EmptyLevelSet):
                        random_level_point(q, lam, v, i, rng.next_u64())
                    continue
                p = random_level_point(q, lam, v, i, rng.next_u64())
                out = reflection_functor(p, i, lam)
                lam2 = reflect_param(q, i, lam)
                assert out.v == reflect_dim(q, i, v)
                assert moment_component(out, i) == scalar_end(lam[i], out.v[i])
                assert moment_component(out, i) == scalar_end(-lam2[i], out.v[i])
                for j in range(q.n):
                    if j == i:
                        continue
                    want = scalar_end(-(lam2[j] - lam[j]), v[j])
                    assert moment_component(out, j) - moment_component(p, j) == want

    def test_double_application_fixes_phi(self):
        rng = SplitMix64(12)
        q = example_chain(2)
        for t in range(5):
            lam = random_params(q, rng.next_u64(), units=["i"])
            p = random_level_point(q, lam, (1, 1, 1), "i", rng.next_u64())
            out = reflection_functor(p, "i", lam)
            back = reflection_functor(out, "i", reflect_param(q, "i", lam))
            assert back.v == p.v
            a0, s0 = phi(p, "i")
            a1, s1 = phi(back, "i")
            assert a0 == a1
            assert dict(s0.rest) == dict(s1.rest)

    def test_gauge_covariance(self):
        q = example_double(2)
        v = (1, 1, 1)
        lam = random_params(q, 3, units=["i"])
        p = random_level_point(q, lam, v, "i", 6)
        g = random_gauge(q, v, 7)
        gp = gauge(p, g)
        out = reflection_functor(p, "i", lam)
        out_g = reflection_functor(gp, "i", lam)
        induced = split_gauge(q, v, "i", g)
        a0, s0 = phi(out, "i")
        a1, s1 = phi(out_g, "i")
        assert a1 == compose(induced, compose(a0, invert_end(induced)))
        for name in s0.rest:
            assert s1.rest[name] == gp.maps[name]

    def test_error_paths(self, a2, a2_rep):
        with pytest.raises(NotAUnit):
            reflection_functor(a2_rep, "2", (T(1, [6]), T(1)))
        with pytest.raises(NotInLevelSet):
            reflection_functor(a2_rep, "2", (T(1, [6]), T(1, [5])))
        q = example_chain(2)
        lam = random_params(q, 5, units=["i"])
        big = zero_rep(q, (5, 0, 0))
        with pytest.raises(EmptyLevelSet):
            reflection_functor(big, "i", lam)


class TestImpliedByMomentCondition:
    """What reflection_functor no longer checks, because mu_i = -lam_i Id implies it."""

    @staticmethod
    def level_points(corpus):
        """(quiver, vertex, lam, v, point) over every corpus quiver and vertex."""
        rng = SplitMix64(31)
        for q in corpus.values():
            for i in range(q.n):
                for _ in range(2):
                    lam = random_params(q, rng.next_u64(), units=[i])
                    v = tuple(rng.randint(0, 2) for _ in range(q.n))
                    if tilde_dimension(q, i, v) < v[i]:
                        continue
                    yield q, i, lam, v, random_level_point(q, lam, v, i, rng.next_u64())

    def test_shifted_component_is_scaled_idempotent_of_reflected_rank(self, corpus):
        seen = 0
        for q, i, lam, v, p in self.level_points(corpus):
            a, _ = phi(p, i)
            e = scale_end(a - scalar_end(lam[i], a.src.rank), -trunc_inv(lam[i]))
            assert compose(e, e) == e
            assert rank(e.parts[0]) == reflect_dim(q, i, v)[i]
            seen += 1
        assert seen >= 40

    def test_two_composes_and_no_pr_cd_per_functor_call(self, corpus, monkeypatch):
        """The functor reads mu_i off its split as into . outof and then forms
        outof . into; a moment value summed per arrow would cost one compose
        and one pr_cd for each of the k double arrows into i."""
        import qschemes.reflect as reflect_mod
        import qschemes.repn as repn_mod

        calls = {"compose": 0, "pr_cd": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for module in (reflect_mod, repn_mod):
            monkeypatch.setattr(module, "compose", counting("compose", module.compose))
        monkeypatch.setattr(repn_mod, "pr_cd", counting("pr_cd", repn_mod.pr_cd))
        runs = several_arrows = 0
        for q, i, lam, v, p in self.level_points(corpus):
            calls.update(compose=0, pr_cd=0)
            reflection_functor(p, i, lam)
            assert calls["compose"] <= 2 and calls["pr_cd"] == 0, (q.name(i), calls)
            runs += 1
            several_arrows += len(q.incoming[i]) >= 2
        assert runs >= 40 and several_arrows >= 10

    def test_functor_calls_no_moment_component(self, corpus, monkeypatch):
        import qschemes.reflect as reflect_mod
        import qschemes.repn as repn_mod

        points = list(self.level_points(corpus))
        want = [reflection_functor(p, i, lam) for q, i, lam, v, p in points]

        def refuse(*args):
            raise AssertionError("moment_component called")

        monkeypatch.setattr(repn_mod, "moment_component", refuse)
        monkeypatch.setattr(reflect_mod, "moment_component", refuse, raising=False)
        for (q, i, lam, v, p), w in zip(points, want):
            got = reflection_functor(p, i, lam)
            assert got.v == w.v and dict(got.maps) == dict(w.maps)


class TestBraidProbe:
    """Exploratory only: the braid agreement is a conjecture, never asserted."""

    def _joint_level_chain_point(self):
        q = example_chain(2)
        lam = (T(1, [1]), T(2, [3, 1]), T(1, [1]))
        maps = {
            "a": RMap(ModShape(1, 2), ModShape(1, 1), 1, [gmat([[1, 0]])]),
            "a~": RMap(ModShape(1, 1), ModShape(1, 2), 1, [gmat([[-2], [0]])]),
            "b": RMap(ModShape(1, 1), ModShape(1, 1), 1, [gmat([[1]])]),
            "b~": RMap(ModShape(1, 1), ModShape(1, 1), 1, [gmat([[-1]])]),
        }
        return q, Representation(q, (1, 1, 1), maps), lam

    def test_probe_runs_and_reports(self):
        q, rep, lam = self._joint_level_chain_point()
        assert moment_component(rep, "i") == scalar_end(-lam[0], 1)
        assert moment_component(rep, "k") == scalar_end(-lam[2], 1)
        out = braid_probe(rep, lam, "i", "k")
        assert out["applicable"]
        assert out["words"] == [["i", "k", "i"], ["k", "i", "k"]]
        print(f"braid probe agreement (conjectural, not asserted): {out['agree']}")

    def test_probe_reports_dead_parameter(self, a2, a2_rep):
        lam = (T(1, [6]), T(1, [-6]))
        out = braid_probe(a2_rep, lam, "1", "2")
        assert out == {"applicable": False, "reason": "parameter became a non-unit"}

    def test_probe_infinite_pair(self, corpus):
        q = corpus["kronecker"]
        rep = zero_rep(q, (0, 0))
        lam = random_params(q, 1)
        out = braid_probe(rep, lam, "p", "q")
        assert not out["applicable"]
