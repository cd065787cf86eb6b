import pytest
from hypothesis import given, strategies as st

from qschemes.errors import (
    LengthMismatch,
    NegativeDimension,
    QuiverSyntaxError,
    UnknownVertex,
)
from qschemes.quiver import (
    QuiverMult,
    bilinear,
    expected_dim,
    parse_quiver,
    serialize_quiver,
    to_dot,
)
from qschemes.reflect import phi, random_level_point, reflection_functor
from qschemes.regularize import find_legs
from qschemes.repn import moment_map, random_params
from qschemes.weyl import reflect_param

from helpers import example_chain, example_double, scalar_end


class TestParser:
    def test_single_vertex(self):
        q = parse_quiver("quiver { vertex a mult 1 }")
        assert q.n == 1 and not q.arrows

    def test_chain_example(self):
        text = """
        quiver {
          vertex j mult 2
          vertex i mult 1
          vertex k mult 1
          arrow a : j -> i
          arrow b : i -> k   # tail
        }
        """
        q = parse_quiver(text)
        assert q.n == 3 and len(q.arrows) == 2
        assert q.mults == (2, 1, 1)

    def test_edge_loop_rejected(self):
        with pytest.raises(QuiverSyntaxError) as exc:
            parse_quiver("quiver { vertex a mult 1\n arrow x : a -> a }")
        assert "edge-loop" in str(exc.value)
        assert exc.value.line == 2

    def test_duplicate_vertex(self):
        with pytest.raises(QuiverSyntaxError) as exc:
            parse_quiver("quiver { vertex a mult 1 vertex a mult 2 }")
        assert "duplicate" in str(exc.value)

    def test_duplicate_arrow(self):
        text = """quiver {
          vertex a mult 1
          vertex b mult 1
          arrow x : a -> b
          arrow x : b -> a
        }"""
        with pytest.raises(QuiverSyntaxError) as exc:
            parse_quiver(text)
        assert exc.value.line == 5

    def test_unknown_vertex(self):
        with pytest.raises(QuiverSyntaxError) as exc:
            parse_quiver("quiver { vertex a mult 1\n arrow x : a -> zz }")
        assert "unknown vertex zz" in str(exc.value)

    def test_syntax_errors_positioned(self):
        with pytest.raises(QuiverSyntaxError) as exc:
            parse_quiver("quiver {\n  vertex a\n}")
        assert exc.value.line == 3  # the '}' where 'mult' was expected
        with pytest.raises(QuiverSyntaxError):
            parse_quiver("quiver { vertex a mult 0 }")
        with pytest.raises(QuiverSyntaxError):
            parse_quiver("")
        with pytest.raises(QuiverSyntaxError):
            parse_quiver("quiver { vertex a mult 1 } trailing")

    def test_build_unknown_endpoint(self):
        with pytest.raises(UnknownVertex):
            QuiverMult.build([("a", 1)], [("x", "a", "b")])


names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    min_size=1, max_size=5, unique=True,
)


@given(names, st.data())
def test_serialize_parse_roundtrip(vnames, data):
    mults = [data.draw(st.integers(1, 4)) for _ in vnames]
    arrows = []
    if len(vnames) > 1:
        n_arrows = data.draw(st.integers(0, 6))
        for k in range(n_arrows):
            s = data.draw(st.sampled_from(vnames))
            t = data.draw(st.sampled_from([x for x in vnames if x != s]))
            arrows.append((f"ar{k}", s, t))
    q = QuiverMult.build(list(zip(vnames, mults)), arrows)
    assert parse_quiver(serialize_quiver(q)) == q


class TestCartan:
    def test_chain_example(self):
        for d in (2, 3):
            assert example_chain(d).cartan.c == (
                (2, -d, -1), (-1, 2, 0), (-1, 0, 2))

    def test_double_example(self):
        for d in (2, 3):
            assert example_double(d).cartan.c == (
                (2, -1, -1), (-1, 2, 0), (-d, 0, 2))

    def test_single_vertex(self):
        assert QuiverMult.build([("a", 3)]).cartan.c == ((2,),)

    def test_symmetrizable(self, corpus):
        for q in corpus.values():
            cd = q.cartan
            dc = cd.dc_list()
            assert dc == [list(r) for r in zip(*dc)]
            assert all(cd.c[i][i] == 2 for i in range(q.n))
            assert all(
                cd.c[i][j] <= 0 for i in range(q.n) for j in range(q.n) if i != j
            )

    def test_orientation_independence(self, corpus):
        for q in corpus.values():
            # flipping any single arrow, or all of them, leaves C and D alone
            for flip in list(range(len(q.arrows))) + [None]:
                flipped = QuiverMult.build(
                    [(v.name, v.mult) for v in q.vertices],
                    [
                        (a.name, q.name(a.target), q.name(a.source))
                        if (flip is None or k == flip)
                        else (a.name, q.name(a.source), q.name(a.target))
                        for k, a in enumerate(q.arrows)
                    ],
                )
                assert flipped.cartan.c == q.cartan.c
                assert flipped.cartan.d == q.cartan.d


class TestDerivedData:
    """The double, incoming arrows and Cartan data are built once, at construction."""

    def test_incoming_arrows_in_double_order(self, corpus):
        for q in corpus.values():
            assert len(q.incoming) == q.n
            for i in range(q.n):
                assert q.incoming[i] == tuple(h for h in q.double if h.target == i)

    def test_adjacency_counts_arrows(self, corpus):
        for q in corpus.values():
            for i in range(q.n):
                for j in range(q.n):
                    assert q.cartan.a[i][j] == sum(
                        1 for ar in q.arrows if {ar.source, ar.target} == {i, j})

    def test_modules_read_the_built_data(self, corpus, monkeypatch):
        import qschemes.quiver as quiver_mod

        q = corpus["star_n3_d2"]

        def built_once(build):
            # a newly constructed quiver (the leg quiver of a chain point)
            # builds its data; q, constructed already, must not rebuild it
            def guarded(quiver):
                if quiver == q:
                    raise AssertionError("derived quiver data rebuilt after construction")
                return build(quiver)
            return guarded

        monkeypatch.setattr(quiver_mod, "_double", built_once(quiver_mod._double))
        monkeypatch.setattr(quiver_mod, "_cartan", built_once(quiver_mod._cartan))
        i, v = q.index("base"), (1, 1, 1)
        lam = random_params(q, 5, units=[i])
        p = random_level_point(q, lam, v, i, 7)
        back = reflection_functor(reflection_functor(p, i, lam), i, reflect_param(q, i, lam))
        assert back.v == v
        assert phi(back, i)[0] == phi(p, i)[0]
        assert moment_map(back)[i] == scalar_end(-lam[i], v[i])
        assert [leg.vertices for leg in find_legs(q)] == [(q.index("leg"),)]


class TestBilinear:
    def test_simple_root_norm(self):
        q = example_chain(2)
        for i, d_i in enumerate(q.mults):
            e = [0] * q.n
            e[i] = 1
            assert bilinear(q, e, e) == 2 * d_i

    def test_cross_term(self):
        q = example_chain(2)
        assert bilinear(q, [1, 0, 0], [0, 1, 0]) == -2

    def test_full_vector(self):
        q = example_chain(2)
        assert bilinear(q, [1, 1, 1], [1, 1, 1]) == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            bilinear(example_chain(2), [1, 1], [1, 1, 1])


class TestExpectedDim:
    def test_simple_root(self):
        q = example_chain(3)
        for i, d_i in enumerate(q.mults):
            e = [0] * q.n
            e[i] = 1
            assert expected_dim(q, e) == 2 - 2 * d_i

    def test_chain_imaginary_root(self):
        assert expected_dim(example_chain(2), [1, 1, 1]) == 0

    def test_zero(self):
        assert expected_dim(example_chain(2), [0, 0, 0]) == 2

    def test_negative_rejected(self):
        with pytest.raises(NegativeDimension):
            expected_dim(example_chain(2), [-1, 0, 0])


class TestDot:
    def test_empty(self):
        q = QuiverMult.build([])
        assert to_dot(q) == "digraph quiver {\n}\n"

    def test_single(self):
        q = QuiverMult.build([("a", 2)])
        assert '"a" [label="a (mult 2)"];' in to_dot(q)

    def test_chain_counts(self):
        out = to_dot(example_chain(2))
        assert out.count("label=") == 5  # 3 nodes + 2 edges
        assert out.count("->") == 2
