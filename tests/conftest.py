"""Shared helpers: independent oracles and instance generators.

The oracles here deliberately use different machinery from the library
(string slicing instead of index loops, scalar recurrences instead of
symbolic polynomials, stream unrolling instead of representation surgery) so
that agreement between the two is meaningful.
"""

from __future__ import annotations

import random
from fractions import Fraction

from palinfrac import JacobiPair, JacobiSequence, Mat2, Poly, pair


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
