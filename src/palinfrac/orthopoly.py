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

Every exact transfer matrix comes from one walk, `packed_walk`, on packed
integers: the start matrix's entries are integer numerator polynomials over
one shared denominator, each held as the single int X(2^w) (see
`exactalg`), and `packed_step` applies S(a, b) by integer products and one
shift, with no gcd and no polynomial product.  `packed_width` picks w by a
scalar pre-pass that bounds every coefficient of the walk (the proof is in
`quadratic`), so every value read decodes exactly.  Started at any matrix X
instead of the identity, n steps give T_n * X: the verifier starts at its
kernel and reads degrees straight off the packed values, and `conj_transfer`
decodes the end of a walk from the identity once.  No transfer is evaluated
at a point: the numeric cross-check folds levels instead (see `quadratic`).
The fused `Poly` step `exactalg.shift_add` is the pullback's step in
`quadratic`, not a transfer.

The verifier's T2(ell) are the prefixes of the recurrence over the period.
T1, the recurrence over the preperiodic block, and T3, the transfer over the
index-reversed block, are `build_T1` and `build_T3`; T3 is
D * T1^T * D^-1 with D = diag(1, -ak^2) (the proof is in `quadratic`).
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence

from .errors import IndexOutOfRange, InsufficientCoefficients
from .exactalg import Mat2, decode, pack
from .jacobi import JacobiPair, JacobiSequence, require_kp_normalized


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


def packed_walk(
    start: Mat2, pairs: Sequence[JacobiPair], ak2: Fraction = Fraction(1)
) -> tuple[int, Iterator[tuple]]:
    """The width w and the packed T_j * start for j = 0, 1, ..., len(pairs).

    `start` is brought over the lcm of its denominators and packed at 2^w,
    with w from `packed_width` over the same pairs; the walk is lazy.  The
    default ak2 = 1 makes w bound the entries and the trace only; a caller
    that reads the Q cofactor passes its own.
    """
    den = math.lcm(*(e.den for e in start.entries()))
    nums = [[n * (den // e.den) for n in e.num] for e in start.entries()]
    h1, h2 = (max(map(abs, nums[i] + nums[i + 1]), default=0) for i in (0, 2))
    w = packed_width(pairs, h1, h2, ak2)
    first = (*(pack(num, w) for num in nums), den)
    return w, accumulate(pairs, lambda t, q: packed_step(t, q, w), initial=first)


def conj_transfer(coeffs: Sequence[JacobiPair], n: int) -> Mat2:
    """The conjugated transfer matrix over the first n pairs (n >= 1).

    One packed walk from the identity, decoded once at its end.
    """
    if n < 1:
        raise IndexOutOfRange(f"transfer matrix needs n >= 1, got {n}")
    if len(coeffs) < n:
        raise InsufficientCoefficients(f"need {n} pairs, have {len(coeffs)}")
    w, walk = packed_walk(Mat2.identity(), coeffs[:n])
    *entries, den = deque(walk, maxlen=1).pop()
    return Mat2(*(decode(x, den, w) for x in entries))


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

    Its j-th pair (1-based) is (alpha_{k-j}, beta_{k-j+1}) with alpha_0 read
    as alpha_k.  The matrix is read off T1 as D * T1^T * D^-1 with
    D = diag(1, -alpha_k^2) (the proof is in `quadratic`).
    """
    t1, ak2 = build_T1(seq), seq.preperiodic[-1].a ** 2
    return Mat2(t1.a11, t1.a21.scale(-1 / ak2), t1.a12.scale(-ak2), t1.a22)
