"""Exact scalars: Gaussian rationals and truncated polynomials.

``GaussQ`` is the field QQ(i) with exact rational real and imaginary parts;
equality is exact, there is no floating-point mode.  ``TruncScalar`` is an
element of the truncated polynomial ring R_d = QQ(i)[eps]/(eps^d), stored as
the tuple of its d coefficients.  A truncated scalar is a unit exactly when
its constant coefficient is nonzero.  The constructor coerces and checks its
coefficients; the ring operations build their results from the ``GaussQ``
coefficients they already hold.

Arithmetic never coerces across truncation orders: combining values of
different order d raises ``MismatchedOrder``.
"""

from __future__ import annotations

import operator
import re as _re
from fractions import Fraction

from .errors import MismatchedOrder, NotAUnit

_FRAC = r"-?\d+(?:/\d+)?"
_GQ_RE = _re.compile(rf"^({_FRAC})(?:\s*([+-])\s*({_FRAC})i)?$")


class GaussQ:
    """A Gaussian rational a + b*i with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussQ is immutable")

    # arithmetic; the imaginary parts are usually zero, so short-circuit them.
    # An operand that is no Gaussian rational gets NotImplemented, so that
    # Python tries its reflected method (TruncScalar.__rmul__, say).

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return GaussQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return GaussQ(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        if not self.im and not other.im:
            return GaussQ(self.re * other.re)
        return GaussQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        if not self.im and not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero GaussQ")
            return GaussQ(self.re / other.re)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero GaussQ")
        return GaussQ(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other / self

    def __neg__(self):
        return GaussQ(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussQ(other)
        if not isinstance(other, GaussQ):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # equal to the hash of the int or Fraction it equals when real
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # text form ---------------------------------------------------------------

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
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


def _operand(x):
    """x as a GaussQ, or NotImplemented when it is no Gaussian rational."""
    if isinstance(x, GaussQ):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussQ(x)
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

    def constant_term(self) -> GaussQ:
        return self.coeffs[0]

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
