"""Exact scalars: Gaussian rationals and truncated polynomials.

``GaussQ`` is the field QQ(i), stored as integer numerators over one
denominator, the form ``linalg.Matrix`` uses for its entries: the value
(a + b i) / n is held as ``num_re`` = a, ``num_im`` = b and ``den`` = n, in
canonical form (n > 0 and gcd(a, b, n) = 1).  Equal values therefore have
equal fields, and arithmetic and ``==`` work on the integers.  ``re`` and
``im`` are read-only ``Fraction`` views for the boundary (text form, hash),
built on each read.  Equality is exact; there is no floating-point mode, so
the constructor takes int and ``Fraction`` parts only.  ``TruncScalar`` is
an element of the truncated polynomial ring R_d = QQ(i)[eps]/(eps^d), stored
as the tuple of its d coefficients.  A truncated scalar is a unit exactly
when its constant coefficient is nonzero.  The constructor coerces and
checks its coefficients; the ring operations build their results from the
``GaussQ`` coefficients they already hold.

Arithmetic never coerces across truncation orders: combining values of
different order d raises ``MismatchedOrder``.
"""

from __future__ import annotations

import operator
import re as _re
from fractions import Fraction
from math import gcd, lcm

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
GQ_ONE = GaussQ(1)


class TruncScalar:
    """Element of R_d = QQ(i)[eps]/(eps^d); coeffs[k] multiplies eps^k."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d, coeffs=()):
        if d < 1:
            raise ValueError("truncation order must be positive")
        cs = [_coerce(c) for c in coeffs]
        if len(cs) > d:
            raise ValueError(f"{len(cs)} coefficients exceed order {d}")
        cs.extend([GQ_ZERO] * (d - len(cs)))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncScalar is immutable")

    @staticmethod
    def const(d, value) -> "TruncScalar":
        return TruncScalar(d, [value])

    # ring structure -----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, TruncScalar):
            raise TypeError("expected a TruncScalar")
        if self.d != other.d:
            raise MismatchedOrder(f"orders differ: {self.d} vs {other.d}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussQ)):
            return _trunc(self.d, (self.coeffs[0] + other,) + self.coeffs[1:])
        self._check(other)
        return _trunc(self.d, tuple(map(operator.add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussQ)):
            return _trunc(self.d, (self.coeffs[0] - other,) + self.coeffs[1:])
        self._check(other)
        return _trunc(self.d, tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return _trunc(self.d, tuple(map(operator.neg, self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussQ)):
            return _trunc(self.d, tuple([a * other for a in self.coeffs]))
        return trunc_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussQ)):
            return _trunc(self.d, tuple([a * other for a in self.coeffs]))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TruncScalar):
            return NotImplemented
        return self.d == other.d and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def is_unit(self) -> bool:
        return bool(self.coeffs[0])

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"TruncScalar({self.d}, {[str(c) for c in self.coeffs]})"


_SET_D = TruncScalar.d.__set__
_SET_COEFFS = TruncScalar.coeffs.__set__


def _trunc(d, coeffs) -> TruncScalar:
    """A TruncScalar from a tuple of d GaussQ coefficients (no checks): the
    arithmetic builds its results from coefficients it already holds, and
    only the public constructor coerces its input."""
    self = object.__new__(TruncScalar)
    _SET_D(self, d)
    _SET_COEFFS(self, coeffs)
    return self


def trunc_mul(a: TruncScalar, b: TruncScalar) -> TruncScalar:
    """Product in R_d: coefficient convolution truncated at degree d."""
    a._check(b)
    d = a.d
    out = [GQ_ZERO] * d
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j in range(d - i):
            cb = b.coeffs[j]
            if cb:
                out[i + j] = out[i + j] + ca * cb
    return _trunc(d, tuple(out))


def trunc_inv(a: TruncScalar) -> TruncScalar:
    """Multiplicative inverse of a unit of R_d.

    Coefficients are recovered degree by degree from a*x = 1.
    """
    if not a.is_unit():
        raise NotAUnit("constant term is zero")
    d = a.d
    inv0 = GQ_ONE / a.coeffs[0]
    out = [inv0] + [GQ_ZERO] * (d - 1)
    for k in range(1, d):
        acc = GQ_ZERO
        for j in range(1, k + 1):
            acc = acc + a.coeffs[j] * out[k - j]
        out[k] = -acc * inv0
    return _trunc(d, tuple(out))
