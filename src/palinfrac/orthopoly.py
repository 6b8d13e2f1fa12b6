"""Conjugated transfer matrices and the orthogonal polynomials they carry.

Everything here is one recurrence.  The conjugated transfer matrix over the
first n pairs of a stream is T_n = S(a_n, b_n) * T_{n-1}, with T_0 the
identity and the one-step matrix

    S(a, b) = [[ (z - b)/a, 1/a ],
               [ -a,        0   ]],

so that T_n = [[p_n, q_n], [-a_n*p_{n-1}, -a_n*q_{n-1}]] holds the first-
and second-kind polynomials of the three-term recurrence

    z*p_n = a_{n+1}*p_{n+1} + b_{n+1}*p_n + a_n*p_{n-1},    p_0 = 1, p_{-1} = 0,

with q_0 = 0 and q_1 = 1/a_1.  Exact rational arithmetic makes it free of
cancellation.  The Moebius action of T_n removes the first n pairs of a
stream: if s has a coefficient stream starting with those pairs, the
stripped function s_n equals f_T(s).  Its determinant is identically 1.

One step is fused, fraction-free: each new first-row entry is one
`exactalg.shift_add` on the integer numerators and each second-row entry a
`Poly.scale`, so a step forms no polynomial product and each result is
reduced once.  Started at any matrix X instead of the identity, n steps
give T_n * X; the verifier steps its P kernel that way.  `column_step` is
the same step from the right, X -> X * S(a, b), again with no product.

The verifier walks the period with `packed_step` instead: the same step on
integer numerator polynomials packed at 2^w (see `exactalg`) over one shared
denominator, with no gcd.  `packed_width` picks w by a scalar pre-pass that
bounds every coefficient of the walk (the proof is in `quadratic`).

The verifier's T2(ell) are the prefixes of the recurrence over the period,
and its T1 the recurrence over the preperiodic block: when that block ends
with one whole period, T1 = T_P * T_pre, which `column_step` builds by
right-multiplying the period transfer T_P.  Its T3 is D * T1^T * D^-1 (see
`quadratic`), which `build_T3` rebuilds from the reversed pairs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Sequence

from .errors import IndexOutOfRange, InsufficientCoefficients
from .exactalg import Mat2, shift_add
from .jacobi import JacobiPair, JacobiSequence, require_kp_normalized, reversed_periodic


def transfer_step(t: Mat2, q: JacobiPair) -> Mat2:
    """S(q.a, q.b) * t, one step of the recurrence.

    Applied row by row: the new first row is ((z - b)*row1 + row2)/a, each
    entry one fused `shift_add` on the integer numerators, and the new
    second row is -a*row1, a `scale` whose common factor is read off two
    small gcds.  No polynomial product is formed, so a step costs O(deg)
    big-integer operations where a general 2x2 product costs O(deg^2).
    """
    neg_a = -q.a
    return Mat2(
        shift_add(t.a11, t.a21, q.a, q.b),
        shift_add(t.a12, t.a22, q.a, q.b),
        t.a11.scale(neg_a),
        t.a12.scale(neg_a),
    )


def column_step(t: Mat2, q: JacobiPair) -> Mat2:
    """t * S(q.a, q.b), one step of the recurrence applied from the right.

    Applied column by column: the new first column is
    ((z - b)*col1 - a^2*col2)/a, one fused `shift_add` per entry over a
    scaled second column, and the new second column is col1/a, a `scale`.
    Folding it over reversed pairs right-multiplies t by their transfer
    matrix, still without a polynomial product.
    """
    neg_a2 = -q.a * q.a
    inv_a = 1 / q.a
    return Mat2(
        shift_add(t.a11, t.a12.scale(neg_a2), q.a, q.b),
        t.a11.scale(inv_a),
        shift_add(t.a21, t.a22.scale(neg_a2), q.a, q.b),
        t.a21.scale(inv_a),
    )


def packed_step(t: tuple, q: JacobiPair, w: int) -> tuple:
    """S(q.a, q.b) * t on a packed matrix t = (x11, x12, x21, x22, den).

    Each x is an integer polynomial packed at 2^w over the shared den.  With
    a = an/ad and b = bn/bd, and `<< w` multiplying by z:

        row 1 <- ad^2 * (bd * (row1 << w) - bn * row1 + bd * row2),
        row 2 <- -an^2 * bd * row1,        den <- den * an * bd * ad.
    """
    x11, x12, x21, x22, den = t
    an, ad, bn, bd = q.a.numerator, q.a.denominator, q.b.numerator, q.b.denominator
    up, keep, low = ad * ad * bd, ad * ad * bn, -an * an * bd
    return (
        up * ((x11 << w) + x21) - keep * x11,
        up * ((x12 << w) + x22) - keep * x12,
        low * x11,
        low * x12,
        den * an * bd * ad,
    )


def packed_width(pairs: Sequence[JacobiPair], h1: int, h2: int, ak2: Fraction) -> int:
    """The width w, a multiple of 8, that the walk over `pairs` decodes at.

    h1 and h2 bound the coefficients of the start's rows.  Each pair steps
    them to ad^2 * ((bd + |bn|)*h1 + bd*h2) and an^2 * bd * h1, and w
    puts every kd*h2 + kn*h1 (ak2 = kn/kd) below 2^(w-2): that bounds the
    entries, the trace and the Q cofactor (see `quadratic`).
    """
    kn, kd = ak2.numerator, ak2.denominator
    top = kd * h2 + kn * h1
    for q in pairs:
        an, ad, bn, bd = q.a.numerator, q.a.denominator, q.b.numerator, q.b.denominator
        h1, h2 = ad * ad * ((bd + abs(bn)) * h1 + bd * h2), an * an * bd * h1
        top = max(top, kd * h2 + kn * h1)
    return (top.bit_length() + 9) // 8 * 8


def transfer_step_at(t: tuple, q: JacobiPair, z) -> tuple:
    """transfer_step at the point z, on the values (a11, a12, a21, a22).

    The pair enters as floats at a builtin float or complex point, so the
    values follow double precision there, and exactly at any other point.
    """
    t11, t12, t21, t22 = t
    a, b = (float(q.a), float(q.b)) if type(z) in (float, complex) else (q.a, q.b)
    shift = z - b
    return ((shift * t11 + t21) / a, (shift * t12 + t22) / a, -a * t11, -a * t12)


def conj_transfer(coeffs: Sequence[JacobiPair], n: int) -> Mat2:
    """The conjugated transfer matrix over the first n pairs (n >= 1)."""
    if n < 1:
        raise IndexOutOfRange(f"transfer matrix needs n >= 1, got {n}")
    if len(coeffs) < n:
        raise InsufficientCoefficients(f"need {n} pairs, have {len(coeffs)}")
    return reduce(transfer_step, coeffs[:n], Mat2.identity())


def build_T1(seq: JacobiSequence) -> Mat2:
    """Transfer matrix over the whole preperiodic block of a normalized sequence.

    Its Moebius action maps the full function to the purely periodic tail
    function.
    """
    require_kp_normalized(seq)
    return conj_transfer(seq.preperiodic, seq.k)


def build_T2(periodic: Sequence[JacobiPair], ell: int) -> Mat2:
    """Transfer matrix over the first ell+1 periodic pairs.

    Accepts any ell >= 0 with ell+1 <= p; the double-palindrome verifier
    restricts ell further to 1 .. p-2.
    """
    if ell < 0 or ell + 1 > len(periodic):
        raise IndexOutOfRange(
            f"need 0 <= ell <= p-1 = {len(periodic) - 1}, got ell={ell}"
        )
    return conj_transfer(periodic, ell + 1)


def build_T3(seq: JacobiSequence) -> Mat2:
    """Transfer matrix over the index-reversed preperiodic block.

    The pair list is materialized explicitly: its j-th pair (1-based) is
    (alpha_{k-j}, beta_{k-j+1}) with alpha_0 read as alpha_k, which is
    exactly one period of the reversed stream of the preperiodic block.
    """
    require_kp_normalized(seq)
    return conj_transfer(reversed_periodic(seq.preperiodic), seq.k)
