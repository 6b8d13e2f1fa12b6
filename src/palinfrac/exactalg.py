"""Exact rational polynomials, 2x2 polynomial matrices, and Moebius maps.

Scalars are `fractions.Fraction`, which already guarantees lowest terms and
a positive denominator, so it serves directly as the rational type.  A
polynomial is a dense tuple of Fractions in ascending degree with no trailing
zeros; the zero polynomial is the empty tuple.  Degrees stay small here
(bounded by the coefficient block lengths), so the dense representation is
the simplest thing that works.

Everything in this module is immutable and every operation is a pure
function, so values can be shared freely between threads.

Numeric evaluation depends on the type of the point.  At a builtin float
or complex point, `Poly.__call__` (and so `mobius_apply`) runs Horner over
the coefficients converted to float once per polynomial and cached on it
(a race can only compute the same tuple twice); the result is
bit-for-bit what Fraction's mixed-type fallback gives, since that fallback
converts each coefficient to float too.  Every other point type stays
exact: an int or Fraction point gives a Fraction, and an mpmath value keeps
its working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence, Union

from .errors import DivisionByZero

RationalLike = Union[Fraction, int, str]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, or strings like "3/2" to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial in z with exact rational coefficients.

    `coeffs[i]` is the coefficient of z**i.  The highest stored coefficient
    is nonzero unless the polynomial is zero (empty tuple).
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(values: Iterable[RationalLike]) -> "Poly":
        """Build a polynomial from ascending coefficients, trimming zeros."""
        cs = [as_rational(v) for v in values]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def const(value: RationalLike) -> "Poly":
        return Poly.from_coeffs([value])

    @staticmethod
    def x() -> "Poly":
        """The monomial z."""
        return Poly((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_coeffs(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_coeffs(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly | RationalLike") -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Poly(())
        # Convolve over the integers (one gcd per output coefficient instead
        # of one per partial product).
        d1 = lcm(*(c.denominator for c in self.coeffs)) if len(self.coeffs) > 1 else self.coeffs[0].denominator
        d2 = lcm(*(c.denominator for c in other.coeffs)) if len(other.coeffs) > 1 else other.coeffs[0].denominator
        a = [c.numerator * (d1 // c.denominator) for c in self.coeffs]
        b = [c.numerator * (d2 // c.denominator) for c in other.coeffs]
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        den = d1 * d2
        return Poly(tuple(Fraction(v, den) for v in out))

    def __rmul__(self, other: RationalLike) -> "Poly":
        return self.scale(other)

    def scale(self, factor: RationalLike) -> "Poly":
        """Multiply every coefficient by an exact rational factor."""
        f = as_rational(factor)
        if f == 0:
            return Poly(())
        return Poly(tuple(c * f for c in self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial long division."""
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        quot = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            factor = rem[-1] / lead
            quot[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
        return Poly.from_coeffs(quot), Poly.from_coeffs(rem)

    @cached_property
    def _float_coeffs(self) -> tuple[float, ...]:
        """The coefficients converted to float, in ascending degree."""
        return tuple(float(c) for c in self.coeffs)

    def __call__(self, z):
        """Evaluate by Horner's rule in the field of the point z.

        Builtin float and complex points use `_float_coeffs`; any other
        point type gets the exact coefficients.
        """
        coeffs = self._float_coeffs if type(z) in (float, complex) else self.coeffs
        acc = z * 0
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(reversed(parts))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rationals (Euclid).

    Remainders are made monic at every step to keep coefficient growth in
    check.  gcd(0, 0) is the zero polynomial.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    x, y = a.monic(), b.monic()
    while not y.is_zero():
        _, r = divmod(x, y)
        x, y = y, r.monic()
    return x


def rational_content(polys: Sequence[Poly]) -> Fraction:
    """Positive rational content of a family of polynomials.

    gcd of all numerators over lcm of all denominators; 0 if every
    polynomial is zero.
    """
    num = 0
    den = 1
    for poly in polys:
        for c in poly.coeffs:
            num = gcd(num, abs(c.numerator))
            den = lcm(den, c.denominator)
    if num == 0:
        return Fraction(0)
    return Fraction(num, den)


def poly_is_square(poly: Poly) -> bool:
    """Exact test: is poly the square of a polynomial with rational coefficients?"""
    if poly.is_zero():
        return True
    if poly.degree % 2 != 0:
        return False
    if not _is_rational_square(poly.leading):
        return False
    root = _poly_sqrt(poly)
    return root is not None


def _is_rational_square(value: Fraction) -> bool:
    if value < 0:
        return False
    n, d = value.numerator, value.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def _rational_sqrt(value: Fraction) -> Fraction:
    return Fraction(isqrt(value.numerator), isqrt(value.denominator))


def _poly_sqrt(poly: Poly) -> Poly | None:
    """Square root of an even-degree polynomial, or None if it is not a square."""
    half = poly.degree // 2
    s = [Fraction(0)] * (half + 1)
    s[half] = _rational_sqrt(poly.leading)
    for i in range(half - 1, -1, -1):
        acc = poly.coefficient(i + half)
        for j in range(i + 1, half):
            acc -= s[j] * s[i + half - j]
        s[i] = acc / (2 * s[half])
    candidate = Poly.from_coeffs(s)
    if candidate * candidate == poly:
        return candidate
    return None


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix of polynomials, acting on values by Moebius maps."""

    a11: Poly
    a12: Poly
    a21: Poly
    a22: Poly

    @staticmethod
    def identity() -> "Mat2":
        one, zero = Poly.const(1), Poly.zero()
        return Mat2(one, zero, zero, one)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def det(self) -> Poly:
        return self.a11 * self.a22 - self.a12 * self.a21

    def entries(self) -> tuple[Poly, Poly, Poly, Poly]:
        return (self.a11, self.a12, self.a21, self.a22)


def mobius_apply(transform: Mat2, w, z):
    """Apply the linear-fractional map of `transform`, evaluated at z, to w.

    Returns (a11(z)*w + a12(z)) / (a21(z)*w + a22(z)).

    Raises:
        DivisionByZero: the denominator vanishes at the evaluation point.
    """
    num = transform.a11(z) * w + transform.a12(z)
    den = transform.a21(z) * w + transform.a22(z)
    if den == 0:
        raise DivisionByZero("Moebius denominator vanished at evaluation point")
    return num / den
