"""Exact rational polynomials, 2x2 polynomial matrices, and Moebius maps.

Scalars are `fractions.Fraction`, which already guarantees lowest terms and
a positive denominator, so it serves directly as the rational type.  A
polynomial is fraction-free: a dense tuple of integer numerators in
ascending degree over one shared positive denominator (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 6).  It is kept in one canonical
form, so equal polynomials have equal fields: no trailing zero numerator,
the denominator coprime to all numerators together, and the zero
polynomial is ((), 1).  `_canonical` brings integer numerators over a
denominator to that form by one gcd reduction; sums and products work on
the integer numerators and end in it, instead of one Fraction per
coefficient, and so does the pullback in `quadratic`, which runs on
integer lists over one shared denominator.  Degrees stay small here
(bounded by the coefficient block lengths), so the dense representation
is the simplest thing that works.

The exact transfer walks (`orthopoly.packed_walk`) and `poly_gcd` use a
second form, Kronecker substitution
(Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44, 2009): an integer polynomial is one
Python int, its value at 2^w.  `pack` and `unpack` convert between the two
through `int.to_bytes` (`decode` also divides by a denominator), and
`packed_degree` reads the degree off `int.bit_length`; all are exact while
every coefficient stays below 2^(w-2) in absolute value, which the walks'
choice of w guarantees.  `poly_gcd` is the heuristic gcd of Char, Geddes
and Gonnet on any number of integer numerator lists at a point 2^w: it
packs every list, reads a candidate off one integer gcd with `unpack`,
and certifies it by exact division.

Everything in this module is immutable and every operation is a pure
function, so values can be shared freely between threads.

Numeric evaluation depends on the type of the point.  At a builtin float
or complex point, `Poly.__call__` (and so `mobius_apply`) runs Horner over
the coefficients converted to float once per polynomial and cached on it
(a race can only compute the same tuple twice).  Each is n / den, which
int true division rounds correctly, so the result is bit-for-bit what
Fraction's mixed-type fallback gives, since that fallback converts each
coefficient to float too.  Every other point type stays exact: an int or
Fraction point gives a Fraction, and an mpmath value keeps its working
precision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, zip_longest
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence, Union

from ._value import frozen
from .errors import DivisionByZero

RationalLike = Union[Fraction, int, str]


def _canonical(num: list[int], den: int) -> "Poly":
    """The polynomial num/den in canonical form, for den > 0; `num` may be modified."""
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return Poly((), 1)
    g = gcd(den, *num)
    if g != 1:
        num = [n // g for n in num]
        den //= g
    return Poly(tuple(num), den)


@frozen
class Poly:
    """Univariate polynomial in z with exact rational coefficients.

    The coefficient of z**i is `num[i] / den`.  Canonical form: `den > 0`,
    gcd(den, *num) == 1, and `num[-1] != 0` unless the polynomial is zero,
    which is ((), 1).  Build polynomials with the static constructors or
    the arithmetic, which keep that form; `coeffs` gives the coefficients
    as Fractions.
    """

    num: tuple[int, ...]
    den: int

    @staticmethod
    def from_coeffs(values: Iterable[RationalLike]) -> "Poly":
        """Build a polynomial from ascending coefficients, trimming zeros."""
        cs = [Fraction(v) for v in values]
        den = lcm(*(c.denominator for c in cs))
        return _canonical([c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def zero() -> "Poly":
        return Poly((), 1)

    @staticmethod
    def const(value: RationalLike) -> "Poly":
        return Poly.from_coeffs([value])

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, in ascending degree."""
        return tuple(Fraction(n, self.den) for n in self.num)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    @property
    def leading(self) -> Fraction:
        if not self.num:
            return Fraction(0)
        return self.coeffs[-1]

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other over the product of the denominators."""
        da, db = self.den, other.den
        num = [x * db + sign * y * da for x, y in zip_longest(self.num, other.num, fillvalue=0)]
        return _canonical(num, da * db)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-n for n in self.num), self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        """The product of two polynomials; a scalar c multiplies as `Poly.const(c)`."""
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.num, other.num
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return _canonical(out, self.den * other.den)

    @cached_property
    def _float_coeffs(self) -> tuple[float, ...]:
        """The coefficients converted to float, in ascending degree."""
        den = self.den
        return tuple(n / den for n in self.num)

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


def pack(num: Sequence[int], w: int) -> int:
    """The integer polynomial with ascending coefficients `num` at 2^w.

    Each coefficient plus 2^(w-1) is one unsigned w-bit digit, w a multiple
    of 8; the offset comes off the joined digits at once.
    """
    half, size = 1 << (w - 1), w // 8
    digits = b"".join((n + half).to_bytes(size, "little") for n in num)
    return int.from_bytes(digits, "little") - _offset(len(num), w)


def packed_degree(v: int, w: int) -> int:
    """The degree of the polynomial packed as v, -1 when v is zero."""
    return abs(v).bit_length() // w if v else -1


def unpack(v: int, w: int) -> list[int]:
    """The ascending integer coefficients packed as v, with no trailing zero."""
    n, size = packed_degree(v, w) + 1, w // 8
    digits = (v + _offset(n, w)).to_bytes(n * size, "little")
    half = 1 << (w - 1)
    return [int.from_bytes(digits[i : i + size], "little") - half for i in range(0, n * size, size)]


def decode(v: int, den: int, w: int) -> Poly:
    """The polynomial packed as v, over the denominator den, in canonical form."""
    return _canonical(unpack(v, w), den)


def _offset(n: int, w: int) -> int:
    """The sum of 2^(w-1) * 2^(w*i) for i < n."""
    return int.from_bytes((1 << (w - 1)).to_bytes(w // 8, "little") * n, "little")


def _divide(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """The integer polynomial a/b, or None if b does not divide a over the integers.

    Long division from the top: each step divides the running leading
    coefficient by lc(b) and fails on a remainder, and the remainder left
    below deg b must be zero.
    """
    n = len(b) - 1
    rem = list(a)
    quot = [0] * max(len(a) - n, 0)
    for shift in range(len(a) - 1 - n, -1, -1):
        f, r = divmod(rem[shift + n], b[-1])
        if r:
            return None
        quot[shift] = f
        for i, bi in enumerate(b):
            rem[shift + i] -= f * bi
    return None if any(rem[:n]) else quot


def _primitive_part(num: Sequence[int]) -> list[int]:
    """The integer coefficients over their content, leading coefficient positive."""
    g = gcd(*num)
    if num[-1] < 0:
        g = -g
    return [n // g for n in num]


def poly_gcd(*nums: Sequence[int]) -> list[int]:
    """Greatest common divisor over the rationals, by heuristic gcd.

    Each argument is the ascending integer numerators of a polynomial, no
    trailing zero; the gcd is primitive with a positive leading
    coefficient, [] if all are zero.  The heuristic gcd of Char, Geddes and
    Gonnet ("GCDHEU: heuristic polynomial GCD algorithm based on integer GCD
    computation", J. Symbolic Comput. 7, 1989; Geddes, Czapor and Labahn,
    *Algorithms for Computer Algebra*, sec. 7.7) runs one pass over the
    primitive parts A_i of the nonzero arguments, by ascending max-norm, at
    xi = 2^w, w a multiple of 8 with xi > 2*|A_i|_inf + 2 for every i, so
    that every A_i packs.  It folds h = gcd(pack(A_1, w), pack(A_2, w), ...)
    as Python ints and reads a candidate off h's balanced digits with
    `unpack`.  h only shrinks as values fold in, so the fold stops at the
    constant candidate 1 once 2h <= xi.  Any other candidate's primitive
    part G is the gcd exactly when it divides every A_i, which exact
    division (`_divide`) certifies.  An h whose balanced digits need one digit
    more than its bit length shows makes `unpack` raise OverflowError; that
    candidate is rejected too, and a rejected candidate retries at w + 8.

    The loop ends.  With D = gcd(A_1, A_2, ...), Bezout with denominators
    cleared gives sum U_i*A_i/D = N for integer polynomials U_i and a
    nonzero integer N independent of xi.  h = |D(xi)*s| for an s dividing
    N, and once xi > 4*|s*D|_inf the digits of h are those of +-s*D, whose
    bit length shows their number (see `quadratic`): G = D.
    """
    parts = sorted((_primitive_part(num) for num in nums if num), key=lambda x: max(map(abs, x)))
    if len(parts) < 2:
        return parts[0] if parts else []
    w = ((2 * max(map(abs, parts[-1])) + 2).bit_length() + 7) // 8 * 8
    while True:
        for h in accumulate((abs(pack(x, w)) for x in parts), gcd):
            if 2 * h <= 1 << w:
                return [1]
        try:
            g = _primitive_part(unpack(h, w))
        except OverflowError:
            pass
        else:
            if all(_divide(x, g) is not None for x in parts):
                return g
        w += 8


def poly_is_square(poly: Poly) -> bool:
    """Exact test: is poly the square of a polynomial with rational coefficients?

    An odd degree settles it; otherwise the square-root solve decides.
    """
    return poly.is_zero() or (poly.degree % 2 == 0 and _poly_sqrt(poly) is not None)


def rational_sqrt(value: Fraction) -> Fraction | None:
    """The exact square root of value, or None if value is not a rational square."""
    n, d = value.numerator, value.denominator
    if n < 0 or isqrt(n) ** 2 != n or isqrt(d) ** 2 != d:
        return None
    return Fraction(isqrt(n), isqrt(d))


def _poly_sqrt(poly: Poly) -> Poly | None:
    """Square root of an even-degree polynomial, or None if it is not a square."""
    half = poly.degree // 2
    lead = rational_sqrt(poly.leading)
    if lead is None:
        return None
    s = [Fraction(0)] * half + [lead]
    for i in range(half - 1, -1, -1):
        acc = poly.coeffs[i + half]
        for j in range(i + 1, half):
            acc -= s[j] * s[i + half - j]
        s[i] = acc / (2 * s[half])
    candidate = Poly.from_coeffs(s)
    if candidate * candidate == poly:
        return candidate
    return None


@frozen
class Mat2:
    """A 2x2 matrix of polynomials, acting on values by Moebius maps."""

    a11: Poly
    a12: Poly
    a21: Poly
    a22: Poly

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

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
