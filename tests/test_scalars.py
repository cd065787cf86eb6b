import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qschemes.errors import MismatchedOrder, NotAUnit, NotDivisible
from qschemes.linalg import Matrix
from qschemes.scalars import (
    GaussQ,
    TruncScalar,
    trunc_inv,
    trunc_mul,
)

from helpers import FracPair, embed_subring, eps, residue_pair

rationals = st.builds(
    Fraction, st.integers(-20, 20), st.integers(1, 9)
)
gaussians = st.builds(GaussQ, rationals, rationals)


def poly_mul_oracle(a, b, d):
    """Naive polynomial multiplication, truncated."""
    out = [GaussQ(0)] * d
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j < d:
                out[i + j] = out[i + j] + ca * cb
    return out


class TestGaussQ:
    def test_basic_ops(self):
        a = GaussQ(Fraction(1, 2), 1)
        b = GaussQ(3, Fraction(-1, 3))
        assert a + b == GaussQ(Fraction(7, 2), Fraction(2, 3))
        assert a * b == GaussQ(Fraction(1, 2) * 3 + Fraction(1, 3),
                               Fraction(-1, 6) + 3)
        assert (a / b) * b == a

    @given(gaussians, gaussians, gaussians)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a

    def test_parse_roundtrip(self):
        for text in ("3", "-1/2", "0", "3+4i", "1/2-7/3i", "0+1i"):
            assert str(GaussQ.parse(str(GaussQ.parse(text)))) == str(GaussQ.parse(text))
        assert GaussQ.parse("1/2-7/3i") == GaussQ(Fraction(1, 2), Fraction(-7, 3))

    def test_parse_rejects(self):
        for bad in ("", "i", "1+i", "1.5", "x", "1/0", "2+3/0i", "0/00"):
            with pytest.raises(ValueError):
                GaussQ.parse(bad)

    def test_hash_agrees_with_equality(self):
        assert len({GaussQ(1), 1}) == 1
        for g, x in ((GaussQ(1), 1), (GaussQ(-3), -3), (GaussQ(0), 0),
                     (GaussQ(Fraction(1, 2)), Fraction(1, 2)),
                     (GaussQ(Fraction(4, 2)), 2)):
            assert g == x and hash(g) == hash(x)
        assert GaussQ(1, 1) != 1
        assert len({GaussQ(1, 1), GaussQ(Fraction(2, 2), 1), 1}) == 2

    def test_other_operands_get_their_reflected_method(self):
        t = TruncScalar(2, [1, 2])
        assert GaussQ(2) * t == TruncScalar(2, [2, 4]) == 2 * t
        assert GaussQ(2) + t == TruncScalar(2, [3, 2]) == 2 + t
        with pytest.raises(TypeError):
            GaussQ(2) - t
        with pytest.raises(TypeError):
            Matrix([[t]])


def canonical(x):
    """GaussQ stores (num_re + num_im i) / den with ints, den > 0 and
    gcd(num_re, num_im, den) = 1."""
    a, b, n = x.num_re, x.num_im, x.den
    return {type(a), type(b), type(n)} == {int} and n > 0 and math.gcd(a, b, n) == 1


parts = st.one_of(st.integers(-50, 50), rationals)


class TestGaussQAgainstFractionPairs:
    """GaussQ on integer numerators agrees with a pair of Fractions."""

    @given(parts, parts, parts, parts)
    def test_field_operations(self, a, b, c, e):
        x, y = GaussQ(a, b), GaussQ(c, e)
        rx, ry = FracPair(a, b), FracPair(c, e)
        results = [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, -rx)]
        if y:
            results.append((x / y, rx / ry))
        for got, want in results:
            assert canonical(got)
            assert (got.re, got.im) == (want.re, want.im)
            assert str(got) == str(want) and repr(got) == repr(want)
            assert hash(got) == hash(want)

    @given(parts, parts, st.one_of(st.integers(-50, 50), rationals))
    def test_mixed_operands(self, a, b, k):
        x, rx, rk = GaussQ(a, b), FracPair(a, b), FracPair(k)
        for got, want in ((x + k, rx + rk), (k + x, rk + rx), (x - k, rx - rk),
                          (k - x, rk - rx), (x * k, rx * rk), (k * x, rk * rx)):
            assert canonical(got) and (got.re, got.im) == (want.re, want.im)
        if k:
            got, want = x / k, rx / rk
            assert canonical(got) and (got.re, got.im) == (want.re, want.im)
        if x:
            got, want = k / x, rk / rx
            assert canonical(got) and (got.re, got.im) == (want.re, want.im)

    @given(parts, parts)
    def test_equality_and_hash_with_int_and_fraction(self, a, b):
        x = GaussQ(a, b)
        assert canonical(x)
        assert (x.re, x.im) == (Fraction(a), Fraction(b))
        assert str(x) == str(FracPair(a, b)) and repr(x) == repr(FracPair(a, b))
        assert GaussQ.parse(str(x)) == x
        if b == 0:
            assert x == a and a == x and hash(x) == hash(a)
            assert x == Fraction(a) and hash(x) == hash(Fraction(a))
            assert len({x, a}) == 1
        else:
            assert x != a and x != Fraction(a) and x != x.re
        assert x == GaussQ(Fraction(a), Fraction(b)) and hash(x) == hash(GaussQ(a, b))

    def test_text_forms(self):
        cases = {GaussQ(Fraction(1, 2), 1): ("1/2+1i", "GaussQ(Fraction(1, 2), Fraction(1, 1))"),
                 GaussQ(0, Fraction(-2, 4)): ("0-1/2i", "GaussQ(Fraction(0, 1), Fraction(-1, 2))"),
                 GaussQ(Fraction(6, 4)): ("3/2", "GaussQ(Fraction(3, 2), Fraction(0, 1))"),
                 GaussQ(-7): ("-7", "GaussQ(Fraction(-7, 1), Fraction(0, 1))")}
        for x, (text, rep) in cases.items():
            assert (str(x), repr(x)) == (text, rep)
        # 1/2 + 1/3 i is 3/6 + 2/6 i: the numerators share den 6
        x = GaussQ(Fraction(1, 2), Fraction(1, 3))
        assert (x.num_re, x.num_im, x.den) == (3, 2, 6)

    def test_constructor_takes_ints_and_fractions_only(self):
        for bad in (0.1, 1.0, "1/2", Decimal("0.1"), 1j, None, GaussQ(1)):
            with pytest.raises(TypeError):
                GaussQ(bad)
            with pytest.raises(TypeError):
                GaussQ(1, bad)
        assert GaussQ(True) == 1 and type(GaussQ(True).num_re) is int

    def test_immutable(self):
        x = GaussQ(1, 2)
        for name in ("num_re", "num_im", "den", "re"):
            with pytest.raises(AttributeError):
                setattr(x, name, 3)


class TestTruncMul:
    def test_truncation_kills_square(self):
        one_plus = TruncScalar(2, [1, 1])
        one_minus = TruncScalar(2, [1, -1])
        assert trunc_mul(one_plus, one_minus) == TruncScalar(2, [1])

    def test_nilpotency(self):
        e = eps(2)
        assert trunc_mul(e, e) == TruncScalar(2)

    def test_against_poly_oracle(self):
        a = TruncScalar(3, [1, 2])
        b = TruncScalar(3, [3, 1])
        want = poly_mul_oracle(a.coeffs, b.coeffs, 3)
        assert trunc_mul(a, b) == TruncScalar(3, want)
        assert want == [GaussQ(3), GaussQ(7), GaussQ(2)]

    def test_order_mismatch(self):
        with pytest.raises(MismatchedOrder):
            trunc_mul(TruncScalar(2, [1]), TruncScalar(3, [1]))

    @given(st.integers(1, 5), st.data())
    def test_commutative_associative(self, d, data):
        coeffs = st.lists(rationals, min_size=d, max_size=d)
        a = TruncScalar(d, data.draw(coeffs))
        b = TruncScalar(d, data.draw(coeffs))
        c = TruncScalar(d, data.draw(coeffs))
        assert trunc_mul(a, b) == trunc_mul(b, a)
        assert trunc_mul(trunc_mul(a, b), c) == trunc_mul(a, trunc_mul(b, c))


class TestTruncInv:
    def test_one(self):
        one = TruncScalar(3, [1])
        assert trunc_inv(one) == one

    def test_geometric_series(self):
        a = TruncScalar(3, [1, 1])
        assert trunc_inv(a) == TruncScalar(3, [1, -1, 1])

    def test_multiply_back(self):
        a = TruncScalar(2, [2, 1])
        inv = trunc_inv(a)
        assert trunc_mul(a, inv) == TruncScalar(2, [1])
        assert inv == TruncScalar(2, [Fraction(1, 2), Fraction(-1, 4)])

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            trunc_inv(eps(2))

    @given(st.integers(1, 5), st.data())
    def test_units_invert_exactly(self, d, data):
        coeffs = data.draw(st.lists(rationals, min_size=d, max_size=d))
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1)
        a = TruncScalar(d, coeffs)
        assert trunc_mul(a, trunc_inv(a)) == TruncScalar(d, [1])


class TestTruncArithmetic:
    """The ring operations build their results from the GaussQ coefficients
    they hold; only the public constructor coerces and validates."""

    OPERANDS = (3, Fraction(-2, 5), GaussQ(Fraction(1, 3), -1))

    def test_results_without_the_constructor(self, monkeypatch):
        a = TruncScalar(3, [1, GaussQ(Fraction(1, 2), 2), -4])
        b = TruncScalar(3, [Fraction(-3, 7), 0, GaussQ(0, 1)])
        with monkeypatch.context() as m:
            def refuse(self, *args):
                raise AssertionError("TruncScalar.__init__ called")
            m.setattr(TruncScalar, "__init__", refuse)
            results = {
                "add": a + b, "sub": a - b, "neg": -a, "mul": trunc_mul(a, b),
                "inv": trunc_inv(a), "mul_op": a * b,
            }
            for x in self.OPERANDS:
                results[f"add {x}"] = (a + x, x + a)
                results[f"sub {x}"] = a - x
                results[f"mul {x}"] = (a * x, x * a)
        assert results["add"] == TruncScalar(3, [x + y for x, y in zip(a.coeffs, b.coeffs)])
        assert results["sub"] == TruncScalar(3, [x - y for x, y in zip(a.coeffs, b.coeffs)])
        assert results["neg"] == TruncScalar(3, [-x for x in a.coeffs])
        assert results["mul"] == results["mul_op"] == TruncScalar(
            3, poly_mul_oracle(a.coeffs, b.coeffs, 3))
        assert trunc_mul(a, results["inv"]) == TruncScalar(3, [1])
        for x in self.OPERANDS:
            assert results[f"add {x}"] == (a + TruncScalar(3, [x]),) * 2
            assert results[f"sub {x}"] == a - TruncScalar(3, [x])
            assert results[f"mul {x}"] == (TruncScalar(3, [c * x for c in a.coeffs]),) * 2
        for r in results.values():
            for t in r if isinstance(r, tuple) else (r,):
                assert type(t.coeffs) is tuple and len(t.coeffs) == 3
                assert all(type(c) is GaussQ for c in t.coeffs)

    def test_constructor_validates(self):
        with pytest.raises(TypeError):
            TruncScalar(2, ["1"])
        with pytest.raises(ValueError):
            TruncScalar(1, [1, 2])
        with pytest.raises(MismatchedOrder):
            TruncScalar(2, [1]) + TruncScalar(3, [1])
        with pytest.raises(TypeError):
            TruncScalar(2, [1]) - 1.5


class TestResiduePair:
    def test_monomials(self):
        for d in (1, 2, 3, 4):
            for i in range(d):
                for j in range(d):
                    value = residue_pair(eps(d, i), eps(d, j))
                    assert value == GaussQ(1 if i + j == d - 1 else 0)

    def test_order_one(self):
        one = TruncScalar(1, [1])
        assert residue_pair(one, one) == GaussQ(1)

    def test_coefficient_extraction(self):
        f = TruncScalar(2, [1, 2])
        g = TruncScalar(2, [3, 1])
        prod = poly_mul_oracle(f.coeffs, g.coeffs, 2)
        assert residue_pair(f, g) == prod[1] == GaussQ(7)

    @given(st.integers(1, 4), st.data())
    def test_symmetric_bilinear(self, d, data):
        coeffs = st.lists(rationals, min_size=d, max_size=d)
        f = TruncScalar(d, data.draw(coeffs))
        g = TruncScalar(d, data.draw(coeffs))
        h = TruncScalar(d, data.draw(coeffs))
        assert residue_pair(f, g) == residue_pair(g, f)
        assert residue_pair(f + g, h) == residue_pair(f, h) + residue_pair(g, h)


class TestEmbed:
    def test_const(self):
        assert embed_subring(TruncScalar(1, [1]), 3) == TruncScalar(3, [1])

    def test_substitution(self):
        assert embed_subring(eps(2), 4) == eps(4, 2)
        assert embed_subring(TruncScalar(2, [2, 3]), 6) == TruncScalar(6, [2, 0, 0, 3])

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            embed_subring(TruncScalar(2, [1]), 3)

    @given(st.data())
    def test_ring_homomorphism(self, data):
        c, mult = data.draw(st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]))
        d = c * mult
        coeffs = st.lists(rationals, min_size=c, max_size=c)
        a = TruncScalar(c, data.draw(coeffs))
        b = TruncScalar(c, data.draw(coeffs))
        assert embed_subring(trunc_mul(a, b), d) == trunc_mul(
            embed_subring(a, d), embed_subring(b, d)
        )


# -- integer storage of truncated scalars against GaussQ coefficients -----------

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
KINDS = {"int": st.integers(-9, 9), "real": rationals, "gauss": gaussians}


@st.composite
def coefficient_lists(draw, d):
    """Up to d coefficients of one kind: ints, real rationals with
    denominators, or Gaussian rationals; zeros are frequent."""
    kind = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    return draw(st.lists(st.one_of(st.just(0), kind), max_size=d))


def reference(d, cs):
    """The d coefficients as GaussQ values, as the ring operations define them."""
    return [c if isinstance(c, GaussQ) else GaussQ(c) for c in cs] + [GaussQ(0)] * (d - len(cs))


def inverse_oracle(cs):
    """The inverse series of GaussQ coefficients, degree by degree from a*x = 1."""
    inv0 = GaussQ(1) / cs[0]
    out = [inv0]
    for k in range(1, len(cs)):
        acc = GaussQ(0)
        for j in range(1, k + 1):
            acc = acc + cs[j] * out[k - j]
        out.append(-acc * inv0)
    return out


def assert_trunc_canonical(t, d):
    """Integer tuples of length d over den > 0 coprime to them; im None
    exactly when every coefficient is real."""
    assert t.d == d and type(t.re) is tuple and len(t.re) == d
    assert all(type(x) is int for x in t.re + (t.im or ()))
    if t.im is not None:
        assert type(t.im) is tuple and len(t.im) == d and any(t.im)
    assert type(t.den) is int and t.den > 0 and math.gcd(t.den, *t.re, *(t.im or ())) == 1


def fields_of(t):
    return t.d, t.re, t.im, t.den


class TestIntegerTruncParity:
    """Every operation on the integer numerators agrees with its definition
    on GaussQ coefficients, and every result is in canonical form."""

    @staticmethod
    def check(got, want):
        assert_trunc_canonical(got, len(want))
        assert got.coeffs == tuple(want)
        assert all(type(c) is GaussQ for c in got.coeffs)
        assert [got.coeff(k) for k in range(got.d)] == list(want)

    @SETTINGS
    @given(st.integers(1, 4), st.data())
    def test_constructor_and_view(self, d, data):
        cs = data.draw(coefficient_lists(d))
        self.check(TruncScalar(d, cs), reference(d, cs))

    @SETTINGS
    @given(st.integers(1, 4), st.data())
    def test_ring_operations(self, d, data):
        ca, cb = data.draw(coefficient_lists(d)), data.draw(coefficient_lists(d))
        a, b = TruncScalar(d, ca), TruncScalar(d, cb)
        ra, rb = reference(d, ca), reference(d, cb)
        self.check(a + b, [x + y for x, y in zip(ra, rb)])
        self.check(a - b, [x - y for x, y in zip(ra, rb)])
        self.check(-a, [-x for x in ra])
        self.check(trunc_mul(a, b), poly_mul_oracle(ra, rb, d))
        self.check(a * b, poly_mul_oracle(ra, rb, d))

    @SETTINGS
    @given(st.integers(1, 4), st.data(),
           st.one_of(st.integers(-6, 6), rationals, gaussians))
    def test_scalar_operands(self, d, data, x):
        cs = data.draw(coefficient_lists(d))
        a, ra = TruncScalar(d, cs), reference(d, cs)
        gx = x if isinstance(x, GaussQ) else GaussQ(x)
        for got in (a * x, x * a):
            self.check(got, [c * gx for c in ra])
        for got in (a + x, x + a):
            self.check(got, [ra[0] + gx] + ra[1:])
        self.check(a - x, [ra[0] - gx] + ra[1:])

    @SETTINGS
    @given(st.integers(1, 4), st.data())
    def test_inverse_round_trip(self, d, data):
        cs = reference(d, data.draw(coefficient_lists(d)))
        if not cs[0]:
            cs[0] = data.draw(st.one_of(st.just(GaussQ(1)), gaussians.filter(bool)))
        a = TruncScalar(d, cs)
        inv = trunc_inv(a)
        self.check(inv, inverse_oracle(cs))
        one = TruncScalar(d, [1])
        assert fields_of(trunc_mul(a, inv)) == fields_of(one)
        assert fields_of(trunc_inv(inv)) == fields_of(a)

    @SETTINGS
    @given(st.integers(1, 4), st.data())
    def test_equal_values_have_equal_fields(self, d, data):
        ca, cb = data.draw(coefficient_lists(d)), data.draw(coefficient_lists(d))
        a, b = TruncScalar(d, ca), TruncScalar(d, cb)
        same = [TruncScalar(d, reference(d, ca)), (a + b) - b, -(-a), a * 1,
                trunc_mul(a, TruncScalar(d, [1])), a * GaussQ(0, 1) * GaussQ(0, -1)]
        for t in same:
            assert t == a and fields_of(t) == fields_of(a)
        zero = a - a
        assert fields_of(zero) == fields_of(TruncScalar(d)) == (d, (0,) * d, None, 1)

    @SETTINGS
    @given(st.integers(1, 4), st.data())
    def test_equality_text_and_hash(self, d, data):
        ca, cb = data.draw(coefficient_lists(d)), data.draw(coefficient_lists(d))
        a, b = TruncScalar(d, ca), TruncScalar(d, cb)
        ra, rb = reference(d, ca), reference(d, cb)
        assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
        assert str(a) == "[" + ", ".join(str(c) for c in ra) + "]"
        assert repr(a) == f"TruncScalar({d}, {[str(c) for c in ra]})"
        assert hash(a) == hash((d, tuple(ra)))
        assert bool(a) == any(ra) and a.is_unit() == bool(ra[0])
        assert a != TruncScalar(d + 1, ca)
