"""Exact rational polynomials, 2x2 polynomial matrices, and Moebius maps.

Scalars are `fractions.Fraction`, which already guarantees lowest terms and
a positive denominator, so it serves directly as the rational type.  A
polynomial is fraction-free: a dense tuple of integer numerators in
ascending degree over one shared positive denominator (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 6).  It is kept in one canonical
form, so equal polynomials have equal fields: no trailing zero numerator,
the denominator coprime to all numerators together, and the zero
polynomial is ((), 1).  Sums, products and `shift_add`, the fused step
((z - b)*x + y)/a that pulls a quadratic relation back by one pair, work on
the integer numerators and end in one gcd reduction, instead of one Fraction per coefficient; a
scaling reads its common factor off two small gcds and needs no reduction
at all; division is integer pseudo-division, and `poly_gcd` is the
heuristic gcd of Char, Geddes and Gonnet on any number of integer
numerator lists, which reads a candidate off one integer gcd and certifies
it by exact pseudo-division.  Degrees stay small
here (bounded by the coefficient block lengths), so the dense
representation is the simplest thing that works.

The exact transfer walks (`orthopoly.packed_walk`) use a second form,
Kronecker substitution
(Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44, 2009): an integer polynomial is one
Python int, its value at 2^w.  `pack` and `unpack` convert between the two
through `int.to_bytes` (`decode` also divides by a denominator), and
`packed_degree` reads the degree off `int.bit_length`; all are exact while
every coefficient stays below 2^(w-2) in absolute value, which the
caller's choice of w guarantees.

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
from itertools import zip_longest
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence, Union

from ._value import frozen
from .errors import DivisionByZero

RationalLike = Union[Fraction, int, str]


def _canonical(num: list[int], den: int) -> "Poly":
    """The polynomial num/den in canonical form; `num` may be modified."""
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return Poly((), 1)
    g = gcd(den, *num)
    if den < 0:
        g = -g
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

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.num):
            return self.coeffs[power]
        return Fraction(0)

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other over the least common denominator."""
        da, db = self.den, other.den
        if da == db:
            ma, mb = 1, sign
        else:
            g = gcd(da, db)
            ma, mb = db // g, sign * (da // g)
            da *= ma
        return _canonical(
            [x * ma + y * mb for x, y in zip_longest(self.num, other.num, fillvalue=0)],
            da,
        )

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-n for n in self.num), self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        """The product of two polynomials; a scalar multiplies through `scale`."""
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.num, other.num
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return _canonical(out, self.den * other.den)

    def scale(self, factor: int | Fraction) -> "Poly":
        """Multiply every coefficient by an exact rational factor.

        With factor = fn/fd in lowest terms and self canonical, the common
        factor of fn*num over den*fd is exactly gcd(fn, den) * gcd(fd, *num),
        so the result needs no gcd sweep over the product numerators.
        """
        fn, fd = factor.numerator, factor.denominator
        if fn == 0 or not self.num:
            return Poly((), 1)
        g_den = gcd(fn, self.den)
        g_num = gcd(fd, *self.num)
        num = self.num if g_num == 1 else [n // g_num for n in self.num]
        fn //= g_den
        return Poly(tuple([n * fn for n in num]), (self.den // g_den) * (fd // g_num))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        # num[i]/den divided by num[-1]/den is num[i]/num[-1]
        return _canonical(list(self.num), self.num[-1])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial long division, by integer pseudo-division."""
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        mult, quot, rem = _pseudo_divmod(self.num, other.num)
        # mult*self.num = quot*other.num + rem, and other = other.num/other.den
        den = mult * self.den
        return _canonical([q * other.den for q in quot], den), _canonical(rem, den)

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


def shift_add(x: Poly, y: Poly, a: Fraction, b: Fraction) -> Poly:
    """((z - b)*x + y)/a, from the integer numerators in one pass.

    With b = bn/bd, (z - b)*x has the numerators bd*X[i-1] - bn*X[i] over
    bd*x.den.  They and y's numerators are brought over the least common
    denominator, with a's denominator folded into the same two integer
    multipliers, so each coefficient costs three products of a big
    numerator by a small factor, and the result a single gcd reduction.

    Raises:
        DivisionByZero: a is zero.
    """
    if a == 0:
        raise DivisionByZero("shift_add by a zero divisor")
    bn, bd = b.numerator, b.denominator
    den_x = x.den * bd
    g = gcd(den_x, y.den)
    mx, my = y.den // g, den_x // g
    # ad * (mx*((z - b)*X) + my*Y) over lcm(den_x, y.den) * an
    cx, cy = mx * a.denominator, my * a.denominator
    up, keep = cx * bd, cx * bn
    xs = x.num
    out = [
        up * u - keep * v + cy * w
        for u, v, w in zip_longest((0, *xs), xs, y.num, fillvalue=0)
    ]
    return _canonical(out, den_x * mx * a.numerator)


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


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """Integer pseudo-division: (mult, quot, rem) with mult*a = quot*b + rem.

    deg rem < deg b.  Before each step the running remainder is multiplied
    by lc(b)/gcd(lc(b), leading term) only, so that the step divides
    exactly; when b divides a over the integers, mult stays 1.
    """
    n = len(b) - 1
    lc = b[-1]
    rem = list(a)
    quot = [0] * max(len(a) - n, 0)
    mult = 1
    for shift in range(len(a) - 1 - n, -1, -1):
        top = rem[shift + n]
        if top == 0:
            continue
        s = lc // gcd(top, lc)
        if s != 1:
            rem = [r * s for r in rem[: shift + n + 1]]
            quot = [q * s for q in quot]
            mult *= s
            top *= s
        f = top // lc
        quot[shift] = f
        for i, bi in enumerate(b):
            rem[shift + i] -= f * bi
    return mult, quot, rem[:n]


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
    primitive parts A_i of the nonzero arguments.  At an integer
    xi > 2*min_i |A_i|_inf + 2 it takes h = gcd(A_1(xi), A_2(xi), ...) as
    Python ints and reads a candidate off h's balanced xi-adic digits (each
    in (-xi/2, xi/2]).  The candidate's primitive part G is the gcd exactly
    when it divides every A_i, which holds trivially when G is constant and
    is otherwise certified by exact pseudo-division; a rejected candidate
    grows xi geometrically.

    The loop ends.  With D = gcd(A_1, A_2, ...), Bezout with denominators
    cleared gives sum U_i*A_i/D = N for integer polynomials U_i and a
    nonzero integer N independent of xi.  h = |D(xi)*s| for an s dividing
    N, and once xi > 2*|s*D|_inf the digits of h are those of +-s*D: G = D.
    """
    parts = [_primitive_part(num) for num in nums if num]
    if len(parts) < 2:
        return parts[0] if parts else []
    xi = 2 * min(max(map(abs, x)) for x in parts) + 29
    while True:
        h = gcd(*(_eval_int(x, xi) for x in parts))
        digits = []
        while h:
            d = h % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        g = _primitive_part(digits)
        if len(g) == 1:
            return [1]
        if not any(any(_pseudo_divmod(x, g)[2]) for x in parts):
            return g
        xi = xi * 73794 // 27011  # the growth factor of Geddes et al., about 2.73


def _eval_int(num: Sequence[int], xi: int) -> int:
    """The integer polynomial with ascending coefficients `num` at xi.

    Adjacent values fold to lo + hi*xi while xi squares: Horner's integer
    from balanced products, not one product by xi per coefficient.
    """
    values = list(num) or [0]
    while True:
        values = [lo + hi * xi for lo, hi in zip_longest(values[::2], values[1::2], fillvalue=0)]
        if len(values) == 1:
            return values[0]
        xi *= xi


def rational_content(polys: Sequence[Poly]) -> Fraction:
    """Positive rational content of a family of polynomials.

    gcd of all numerators over lcm of all denominators; 0 if every
    polynomial is zero.  In canonical form each denominator is coprime to
    its numerators, so no coefficient needs reducing first.
    """
    num = gcd(*(n for poly in polys for n in poly.num))
    return Fraction(num, lcm(*(poly.den for poly in polys)))


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
        acc = poly.coefficient(i + half)
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
