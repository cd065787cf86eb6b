"""Exact scalars: Gaussian rationals and truncated polynomials.

``GaussQ`` is the field QQ(i), stored as integer numerators over one
denominator, the form ``linalg.Matrix`` uses for its entries: the value
(a + b i) / n is held as ``num_re`` = a, ``num_im`` = b and ``den`` = n, in
canonical form (n > 0 and gcd(a, b, n) = 1).  Equal values therefore have
equal fields, and arithmetic and ``==`` work on the integers.  ``re`` and
``im`` are read-only ``Fraction`` views for the boundary (text form, hash),
built on each read.  Equality is exact; there is no floating-point mode, so
the constructor takes int and ``Fraction`` parts only.

``TruncScalar`` is an element of the truncated polynomial ring R_d =
QQ(i)[eps]/(eps^d), stored the same way: coefficient k is (re[k] + i im[k])
/ den for integer tuples ``re`` and ``im`` of length d and one denominator,
in canonical form (den > 0, gcd(den, every numerator) = 1, and ``im`` None
exactly when every coefficient is real).  ``coeffs`` is a read-only view,
the tuple of ``GaussQ`` coefficients built on each read for the boundary
(text form, hash, serialization); ``coeff(k)`` builds one of them.  The
constructor coerces and checks its coefficients, with a fast path for ints;
sums, multiples, ``trunc_mul`` and ``trunc_inv`` work on the numerators and
build their results without it.  A truncated scalar is a unit exactly when
its constant coefficient is nonzero.

Arithmetic never coerces across truncation orders: combining values of
different order d raises ``MismatchedOrder``.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub

from .errors import MismatchedOrder, NotAUnit

_FRAC = r"-?\d+(?:/\d+)?"
_GQ_RE = _re.compile(rf"^({_FRAC})(?:\s*([+-])\s*({_FRAC})i)?$")


class GaussQ:
    """A Gaussian rational (num_re + num_im * i) / den in canonical form."""

    __slots__ = ("num_re", "num_im", "den")

    def __init__(self, re=0, im=0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError("GaussQ parts must be int or Fraction, not "
                            f"{type(re).__name__} and {type(im).__name__}")
        # the lcm of reduced denominators leaves gcd(a, b, n) = 1
        n = lcm(re.denominator, im.denominator)
        _SET_RE(self, re.numerator * (n // re.denominator))
        _SET_IM(self, im.numerator * (n // im.denominator))
        _SET_DEN(self, n)

    def __setattr__(self, name, value):
        raise AttributeError("GaussQ is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.num_re, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.num_im, self.den)

    # arithmetic on the numerators.  An operand that is no Gaussian rational
    # gets NotImplemented, so that Python tries its reflected method
    # (TruncScalar.__rmul__, say).

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        n, m = self.den, other.den
        if n == m:
            return _reduced(self.num_re + other.num_re, self.num_im + other.num_im, n)
        return _reduced(self.num_re * m + other.num_re * n,
                        self.num_im * m + other.num_im * n, n * m)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        n, m = self.den, other.den
        if n == m:
            return _reduced(self.num_re - other.num_re, self.num_im - other.num_im, n)
        return _reduced(self.num_re * m - other.num_re * n,
                        self.num_im * m - other.num_im * n, n * m)

    def __rsub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        a, b, c, e = self.num_re, self.num_im, other.num_re, other.num_im
        if not b and not e:
            # the imaginary parts are usually zero
            return _reduced(a * c, 0, self.den * other.den)
        return _reduced(a * c - b * e, a * e + b * c, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        # (a + b i)/n divided by (c + e i)/m is m (a + b i)(c - e i) / (n (c^2 + e^2))
        a, b, c, e, m = self.num_re, self.num_im, other.num_re, other.num_im, other.den
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero GaussQ")
            if c < 0:
                a, b, c = -a, -b, -c
            return _reduced(a * m, b * m, self.den * c)
        return _reduced((a * c + b * e) * m, (b * c - a * e) * m, self.den * (c * c + e * e))

    def __rtruediv__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other / self

    def __neg__(self):
        return _gq(-self.num_re, -self.num_im, self.den)

    def __eq__(self, other):
        if isinstance(other, GaussQ):
            return (self.num_re == other.num_re and self.num_im == other.num_im
                    and self.den == other.den)
        if isinstance(other, int):
            return self.den == 1 and not self.num_im and self.num_re == other
        if isinstance(other, Fraction):
            return (not self.num_im and self.num_re == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        # equal to the hash of the int or Fraction it equals when real
        if self.num_im:
            return hash((self.re, self.im))
        return hash(self.num_re) if self.den == 1 else hash(self.re)

    def __bool__(self):
        return bool(self.num_re or self.num_im)

    # text form ---------------------------------------------------------------

    def __str__(self):
        if not self.num_im:
            return str(self.re)
        sign = "+" if self.num_im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"GaussQ({self.re!r}, {self.im!r})"

    @staticmethod
    def parse(text: str) -> "GaussQ":
        """Parse "a/b" or "a/b+c/di" (also with '-' before the imaginary part)."""
        m = _GQ_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a GaussQ literal: {text!r}")
        try:
            re_part = Fraction(m.group(1))
            im_part = Fraction(m.group(3) or 0)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in GaussQ literal: {text!r}") from None
        if m.group(2) == "-":
            im_part = -im_part
        return GaussQ(re_part, im_part)


_SET_RE = GaussQ.num_re.__set__
_SET_IM = GaussQ.num_im.__set__
_SET_DEN = GaussQ.den.__set__
_NEW = object.__new__


def _gq(a, b, n) -> GaussQ:
    """(a + b i) / n from ints already in canonical form (no checks)."""
    self = _NEW(GaussQ)
    _SET_RE(self, a)
    _SET_IM(self, b)
    _SET_DEN(self, n)
    return self


def _reduced(a, b, n) -> GaussQ:
    """(a + b i) / n for ints a, b and n > 0, brought to canonical form."""
    if n != 1:
        g = gcd(a, b, n)
        if g != 1:
            a, b, n = a // g, b // g, n // g
    return _gq(a, b, n)


def _operand(x):
    """x as a GaussQ, or NotImplemented when it is no Gaussian rational."""
    if isinstance(x, GaussQ):
        return x
    if isinstance(x, int):
        return _gq(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _gq(x.numerator, 0, x.denominator)
    return NotImplemented


def _coerce(x) -> GaussQ:
    """x as a GaussQ; anything else is an error (a matrix or polynomial entry)."""
    y = _operand(x)
    if y is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussQ")
    return y


GQ_ZERO = GaussQ(0)


def _entry(re, im, den) -> GaussQ:
    """The GaussQ (re + i im) / den of integer numerators and denominator."""
    return _reduced(re, im, den) if re or im else GQ_ZERO


class TruncScalar:
    """Element of R_d = QQ(i)[eps]/(eps^d): the coefficient of eps^k is
    (re[k] + i im[k]) / den, and ``coeffs`` lists them as GaussQ values."""

    __slots__ = ("d", "re", "im", "den")

    def __init__(self, d, coeffs=()):
        if d < 1:
            raise ValueError("truncation order must be positive")
        cs = tuple(coeffs)
        if {int}.issuperset(map(type, cs)):
            # integer coefficients are canonical over den = 1 as they stand
            re, im, den = cs, None, 1
        else:
            xs = list(map(_coerce, cs))
            # the lcm of canonical denominators leaves gcd(den, numerators) = 1
            den = lcm(*[x.den for x in xs])
            re = tuple([x.num_re * (den // x.den) for x in xs])
            im = tuple([x.num_im * (den // x.den) for x in xs]) if any(
                x.num_im for x in xs) else None
        if len(cs) > d:
            raise ValueError(f"{len(cs)} coefficients exceed order {d}")
        pad = (0,) * (d - len(cs))
        _SET_D(self, d)
        _SET_TRE(self, re + pad)
        _SET_TIM(self, im and im + pad)
        _SET_TDEN(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("TruncScalar is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ``GaussQ``, eps^0 first (built on each read)."""
        return tuple(map(_entry, self.re, self.im or repeat(0), repeat(self.den)))

    def coeff(self, k) -> GaussQ:
        """The coefficient of eps^k alone."""
        return _entry(self.re[k], self.im[k] if self.im else 0, self.den)

    # ring structure -----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, TruncScalar):
            raise TypeError("expected a TruncScalar")
        if self.d != other.d:
            raise MismatchedOrder(f"orders differ: {self.d} vs {other.d}")

    def __add__(self, other, sign=1):
        """self + sign * other."""
        if isinstance(other, (int, Fraction, GaussQ)):
            other = _const(self.d, _operand(other))
        else:
            self._check(other)
        n, m = self.den, other.den
        den = n if n == m else lcm(n, m)
        fa, fb = den // n, sign * (den // m)
        return _trunc_canon(self.d, _lin(self.re, fa, other.re, fb),
                            _lin(self.im, fa, other.im, fb), den)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        im = self.im
        return _trunc(self.d, tuple([-x for x in self.re]), im and tuple([-x for x in im]),
                      self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussQ)):
            return _scaled(self, _operand(other))
        return trunc_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussQ)):
            return _scaled(self, _operand(other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TruncScalar):
            return NotImplemented
        return (self.d == other.d and self.den == other.den and self.re == other.re
                and self.im == other.im)

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def __bool__(self):
        return self.im is not None or any(self.re)

    def is_unit(self) -> bool:
        return bool(self.re[0] or self.im and self.im[0])

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"TruncScalar({self.d}, {[str(c) for c in self.coeffs]})"


_SET_D = TruncScalar.d.__set__
_SET_TRE = TruncScalar.re.__set__
_SET_TIM = TruncScalar.im.__set__
_SET_TDEN = TruncScalar.den.__set__


def _trunc(d, re, im, den) -> TruncScalar:
    """A TruncScalar from numerator tuples of length d already in canonical
    form (no checks): the arithmetic builds its results on the integers, and
    only the public constructor coerces its input."""
    self = _NEW(TruncScalar)
    _SET_D(self, d)
    _SET_TRE(self, re)
    _SET_TIM(self, im)
    _SET_TDEN(self, den)
    return self


def _trunc_canon(d, re, im, den) -> TruncScalar:
    """A TruncScalar from numerator tuples of length d over den > 0, brought
    to canonical form: a zero imaginary part is dropped, and den and the
    numerators are divided by their gcd."""
    if im is not None and not any(im):
        im = None
    if den != 1:
        g = gcd(den, *re, *(im or ()))
        if g != 1:
            re, im, den = tuple([x // g for x in re]), im and tuple([x // g for x in im]), den // g
    return _trunc(d, re, im, den)


def _const(d, x: GaussQ) -> TruncScalar:
    """x as a constant of R_d."""
    pad = (0,) * (d - 1)
    return _trunc(d, (x.num_re,) + pad, (x.num_im,) + pad if x.num_im else None, x.den)


def _lin(a, fa, b, fb):
    """fa * a + fb * b for numerator tuples of one length; None is zero."""
    if b is None or not fb:
        return a if a is None or fa == 1 else tuple([x * fa for x in a])
    if a is None or not fa:
        return b if fb == 1 else tuple([y * fb for y in b])
    if fa == 1 and fb in (1, -1):
        return tuple(map(add if fb == 1 else sub, a, b))
    return tuple([x * fa + y * fb for x, y in zip(a, b)])


def _scaled(a: TruncScalar, x: GaussQ) -> TruncScalar:
    """x a for a Gaussian rational x = (u + i v) / w."""
    u, v, w = x.num_re, x.num_im, x.den
    # (u + i v)(re + i im) = (u re - v im) + i (v re + u im)
    return _trunc_canon(a.d, _lin(a.re, u, a.im, -v), _lin(a.im, u, a.re if v else None, v),
                        a.den * w)


def trunc_mul(a: TruncScalar, b: TruncScalar) -> TruncScalar:
    """Product in R_d: coefficient convolution truncated at degree d, on the
    numerators over the product of the denominators."""
    a._check(b)
    d, ar, ai, br, bi = a.d, a.re, a.im, b.re, b.im
    re = [0] * d
    if ai is None and bi is None:
        for i, x in enumerate(ar):
            if x:
                for j in range(d - i):
                    re[i + j] += x * br[j]
        return _trunc_canon(d, tuple(re), None, a.den * b.den)
    zero = (0,) * d
    ai, bi, im = ai or zero, bi or zero, [0] * d
    for i, x in enumerate(ar):
        y = ai[i]
        if x or y:
            # (x + i y)(u + i v) = (x u - y v) + i (x v + y u)
            for j in range(d - i):
                u, v = br[j], bi[j]
                re[i + j] += x * u - y * v
                im[i + j] += x * v + y * u
    return _trunc_canon(d, tuple(re), tuple(im), a.den * b.den)


def trunc_inv(a: TruncScalar) -> TruncScalar:
    """Multiplicative inverse of a unit of R_d, on the integers.

    With a = A / n, multiply A by conj(A_0) when A_0 is not real: B = A
    conj(A_0) has the real constant term b = |A_0|^2, and a^-1 = n conj(A_0)
    B^-1.  B^-1 = Z / b^d, where Z_0 = b^(d-1) and b Z_k = -sum_{1<=j<=k}
    B_j Z_(k-j) is recovered degree by degree from B Z = b^d; the division
    is exact, as Z_(k-j) is a multiple of b^(d-k+j-1).
    """
    if not a.is_unit():
        raise NotAUnit("constant term is zero")
    d, br, bi = a.d, a.re, a.im
    # the result is (cr + i ci) Z / b^d
    cr, ci = a.den, 0
    if bi is not None and bi[0]:
        p, q = br[0], bi[0]
        # (x + i y)(p - i q) = (x p + y q) + i (y p - x q)
        br, bi = (tuple([x * p + y * q for x, y in zip(br, bi)]),
                  tuple([y * p - x * q for x, y in zip(br, bi)]))
        cr, ci = cr * p, -cr * q
    b = br[0]
    zr, zi = [b ** (d - 1)], [0] if bi else None
    for k in range(1, d):
        back = zr[k - 1::-1]
        if bi is None:
            zr.append(-sum(map(mul, br[1:k + 1], back)) // b)
            continue
        back_i = zi[k - 1::-1]
        zr.append((sum(map(mul, bi[1:k + 1], back_i)) - sum(map(mul, br[1:k + 1], back))) // b)
        zi.append(-(sum(map(mul, br[1:k + 1], back_i)) + sum(map(mul, bi[1:k + 1], back))) // b)
    den = b ** d
    if den < 0:
        cr, ci, den = -cr, -ci, -den
    # (cr + i ci)(zr + i zi) = (cr zr - ci zi) + i (cr zi + ci zr)
    zr, zi = tuple(zr), zi and tuple(zi)
    return _trunc_canon(d, _lin(zr, cr, zi, -ci), _lin(zi, cr, zr if ci else None, ci), den)
