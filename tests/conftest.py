"""Shared helpers: independent oracles and instance generators.

The oracles here deliberately use different machinery from the library
(string slicing instead of index loops, scalar recurrences instead of
symbolic polynomials, stream unrolling instead of representation surgery) so
that agreement between the two is meaningful.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, islice
from math import gcd, lcm

from palinfrac import (
    IndexOutOfRange,
    InsufficientOrder,
    JacobiPair,
    JacobiSequence,
    Mat2,
    Poly,
    Prepared,
    QuadraticRelation,
    eval_m,
    mobius_apply,
    pair,
    periodic_quadratic,
    pullback_quadratic,
)
from palinfrac.orthopoly import conj_transfer


def brute_splits(periodic) -> list[int]:
    """Palindrome-split oracle by direct slice reversal."""
    p = len(periodic)
    a = [q.a for q in periodic]
    b = [q.b for q in periodic]
    out = []
    for ell in range(1, p - 1):
        if (
            a[:ell] == a[:ell][::-1]
            and a[ell:] == a[ell:][::-1]
            and b[: ell + 1] == b[: ell + 1][::-1]
            and b[ell + 1 :] == b[ell + 1 :][::-1]
        ):
            out.append(ell)
    return out


def det(m: Mat2) -> Poly:
    """The determinant a11*a22 - a12*a21 of a polynomial matrix."""
    return m.a11 * m.a22 - m.a12 * m.a21


IDENTITY = Mat2(Poly.const(1), Poly.zero(), Poly.zero(), Poly.const(1))


def composed_step(t: Mat2, q: JacobiPair) -> Mat2:
    """S(q.a, q.b) @ t as a general 2x2 product of polynomial matrices.

    The reference transfer step: it shares no code with the packed walk.
    """
    inv_a = 1 / q.a
    s = Mat2(
        Poly.from_coeffs([-q.b * inv_a, inv_a]),
        Poly.const(inv_a),
        Poly.const(-q.a),
        Poly.zero(),
    )
    return s @ t


# Fraction Euclid on plain tuples of Fractions in ascending degree, with no
# trailing zero: the reference for `poly_gcd` and for canonical relations.


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_divmod(a, b):
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        factor = rem[shift + len(b) - 1] / b[-1]
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
    return trim(quot), trim(rem)


def ref_monic(a):
    return tuple(c / a[-1] for c in a) if a else ()


def ref_gcd(*polys):
    """The monic gcd of any number of polynomials, () when all are zero."""
    a = ()
    for b in polys:
        a, b = ref_monic(a), ref_monic(b)
        while b:
            a, b = b, ref_monic(ref_divmod(a, b)[1])
    return a


def ref_content(family):
    num, den = 0, 1
    for cs in family:
        for c in cs:
            num = gcd(num, abs(c.numerator))
            den = lcm(den, c.denominator)
    return Fraction(num, den)


def ref_canonical(relation: QuadraticRelation) -> QuadraticRelation:
    """The relation over its monic gcd and then over its positive rational
    content, by Fraction Euclid."""
    triple = [t.coeffs for t in (relation.alpha, relation.beta, relation.gamma)]
    g = ref_gcd(*triple)
    triple = [ref_divmod(t, g)[0] for t in triple]
    content = ref_content(triple)
    return QuadraticRelation(*(Poly.from_coeffs([c / content for c in t]) for t in triple))


def whole_period_prepared(seq: JacobiSequence) -> Prepared:
    """What `prepare` builds, from the whole period and by the definitions.

    The tail is the whole period's relation, canonicalised by Fraction
    Euclid, and it is pulled back through the whole block, trailing periods
    included; each Q cofactor comes from its own prefix of `composed_step`s.
    """
    tail = ref_canonical(periodic_quadratic(seq.periodic))
    relation, content = pullback_quadratic(tail, seq.preperiodic).primitive()
    ak2 = (seq.preperiodic or seq.periodic)[-1].a ** 2
    prefixes = accumulate(seq.periodic, composed_step, initial=IDENTITY)
    degrees = tuple((t.a21 + t.a12.scale(ak2)).degree for t in islice(prefixes, 2, seq.p))
    return Prepared(seq, degrees, relation, tail.scale(1 / content), ak2)


def reversed_periodic(periodic) -> list[JacobiPair]:
    """One period of the index-reversed stream, by index arithmetic.

    The j-th output pair (1-based) is (a_{p-j}, b_{p-j+1}), reading the a
    index modulo p so that a_0 means a_p.  For p = 1 this degenerates to
    the single pair (a_1, b_1).  Folded by `composed_step` over a
    preperiodic block, it is the reference for T3.
    """
    p = len(periodic)
    return [JacobiPair(periodic[(p - j - 1) % p].a, periodic[p - j].b) for j in range(1, p + 1)]


def mirror(values: list[Fraction]) -> list[Fraction]:
    """Overwrite the second half of a list with the reversal of the first."""
    n = len(values)
    return [values[i] if i < (n + 1) // 2 else values[n - 1 - i] for i in range(n)]


def random_rational(rng: random.Random, lo: int, hi: int, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_periodic(rng: random.Random, p: int, max_mag: int = 9) -> list[JacobiPair]:
    """A random period with positive a-entries and small rational values."""
    return [
        pair(random_rational(rng, 1, max_mag), random_rational(rng, -max_mag, max_mag))
        for _ in range(p)
    ]


def doubly_palindromic_period(
    rng: random.Random, p: int, ell: int, max_mag: int = 5, max_den: int = 9
) -> list[JacobiPair]:
    """Generator recipe: a = pal(ell) ++ pal(p-ell), b = pal(ell+1) ++ pal(p-ell-1)."""
    assert 1 <= ell <= p - 2
    a = mirror([random_rational(rng, 1, max_mag, max_den) for _ in range(ell)]) + mirror(
        [random_rational(rng, 1, max_mag, max_den) for _ in range(p - ell)]
    )
    b = mirror(
        [random_rational(rng, -max_mag, max_mag, max_den) for _ in range(ell + 1)]
    ) + mirror(
        [random_rational(rng, -max_mag, max_mag, max_den) for _ in range(p - ell - 1)]
    )
    return [pair(x, y) for x, y in zip(a, b)]


def purely_periodic(periodic) -> JacobiSequence:
    """A purely periodic sequence (empty preperiodic block)."""
    return JacobiSequence((), tuple(periodic))


def strip(seq: JacobiSequence, count: int) -> JacobiSequence:
    """Remove the first `count` pairs of the stream.

    When the cut lands inside the periodic part, the representation becomes
    purely periodic with a rotated period.
    """
    if count < 0:
        raise IndexOutOfRange(f"strip count must be nonnegative, got {count}")
    if count <= seq.k:
        return JacobiSequence(seq.preperiodic[count:], seq.periodic)
    r = (count - seq.k) % seq.p
    return JacobiSequence((), seq.periodic[r:] + seq.periodic[:r])


def strip_identity_check(seq: JacobiSequence, count: int, z) -> float:
    """|direct - Moebius| for the stripped function at z.

    The stream with its first `count` pairs removed is evaluated two ways:
    directly via `eval_m` on the stripped sequence, and as the Moebius image
    of eval_m(seq, z) under the transfer matrix of the removed pairs.
    """
    if count < 1:
        raise InsufficientOrder(f"strip count must be at least 1, got {count}")
    removed = seq.pairs(count)
    direct = eval_m(strip(seq, count), z)
    image = mobius_apply(conj_transfer(removed, count), eval_m(seq, z), z)
    return abs(direct - image)


def unrolled(seq: JacobiSequence, n: int) -> list[tuple[Fraction, Fraction]]:
    """Stream oracle: unroll by hand rather than via JacobiSequence.pairs."""
    flat = [(q.a, q.b) for q in seq.preperiodic]
    period = [(q.a, q.b) for q in seq.periodic]
    while len(flat) < n:
        flat.extend(period)
    return flat[:n]


def scalar_first_kind(coeffs, n: int, z: complex) -> list[complex]:
    """Float recurrence oracle for the first-kind polynomial values at z."""
    values = [1.0 + 0j]
    prev = 0.0 + 0j
    for j in range(n):
        a_next = float(coeffs[j].a)
        b_next = float(coeffs[j].b)
        a_prev = float(coeffs[j - 1].a) if j >= 1 else 0.0
        nxt = ((z - b_next) * values[-1] - a_prev * prev) / a_next
        prev = values[-1]
        values.append(nxt)
    return values


def scalar_second_kind(coeffs, n: int, z: complex) -> list[complex]:
    """Float recurrence oracle for the second-kind values: q_0 = 0, q_1 = 1/a_1."""
    if n == 0:
        return [0.0 + 0j]
    values = [0.0 + 0j, 1.0 / float(coeffs[0].a) + 0j]
    for j in range(1, n):
        a_next = float(coeffs[j].a)
        b_next = float(coeffs[j].b)
        a_prev = float(coeffs[j - 1].a)
        values.append(((z - b_next) * values[-1] - a_prev * values[-2]) / a_next)
    return values
