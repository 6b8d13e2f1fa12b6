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
shift, with no gcd and no polynomial product.  It and `packed_width`, the
scalar pre-pass that picks w so that every value read decodes exactly (the
proof is in `quadratic`), read each pair as (an, ad, bn, bd) off an integer
table, `JacobiSequence.int_periodic` for the period.  A walk starts from
packed ints, by default the identity's (1, 0, 0, 1, 1).  Started at a
matrix X, n steps give T_n * X: the verifier starts at its kernel and reads
degrees off the packed values, and `conj_transfer` decodes once.  No
transfer is evaluated at a point: the numeric cross-check folds levels
instead (see `quadratic`).  The pullback in `quadratic` steps a quadratic
form by the congruence S^T * Q * S on integer lists, not a transfer.

No request calls `build_T1`, `build_T2` or `build_T3`: `prepare` never walks
the preperiodic block.  They stay as references for the tests, and the
benchmark's tracer binds them; T3 is D * T1^T * D^-1, D = diag(1, -ak^2).
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate
from typing import Iterator, Sequence

from .errors import IndexOutOfRange
from .exactalg import Mat2, Poly, decode
from .jacobi import JacobiPair, JacobiSequence, int_pairs, require_kp_normalized


def packed_step(t: tuple, q: tuple, w: int) -> tuple:
    """S(a, b) * t on a packed matrix t = (x11, x12, x21, x22, den).

    Each x is an integer polynomial packed at 2^w over the shared den, and
    q = (an, ad, bn, bd) a table row: a = an/ad, b = bn/bd.  With `<< w` as z:

        row 1 <- ad^2 * (bd * (row1 << w) - bn * row1 + bd * row2),
        row 2 <- -an^2 * bd * row1,        den <- den * an * bd * ad.
    """
    x11, x12, x21, x22, den = t
    an, ad, bn, bd = q
    up, keep, low = ad * ad * bd, ad * ad * bn, -an * an * bd
    return (
        up * ((x11 << w) + x21) - keep * x11,
        up * ((x12 << w) + x22) - keep * x12,
        low * x11,
        low * x12,
        den * an * bd * ad,
    )


def packed_width(pairs: Sequence[tuple], h: int) -> int:
    """The width w, a multiple of 8, that the walk over the table `pairs` decodes at.

    h bounds the coefficients of both of the start's rows (1 for the
    identity).  With h1 = h2 = h at the start, each (an, ad, bn, bd) steps
    the row bounds to ad^2 * ((bd + |bn|)*h1 + bd*h2) and an^2 * bd * h1,
    and w puts every h1 + h2 below 2^(w-2): that bounds the entries and the
    trace, and a caller that reads a combination c1*x21 + c2*x12 scales the
    start by c1 + c2 (see `quadratic`).
    """
    h1 = h2 = h
    top = 2 * h
    for an, ad, bn, bd in pairs:
        h1, h2 = ad * ad * ((bd + abs(bn)) * h1 + bd * h2), an * an * bd * h1
        top = max(top, h1 + h2)
    return (top.bit_length() + 9) // 8 * 8


def packed_walk(pairs: Sequence[tuple], w: int, first: tuple = (1, 0, 0, 1, 1)) -> Iterator[tuple]:
    """The packed T_j * start for j = 0, 1, ..., len(pairs), lazily, from
    `first`, the start packed at 2^w, w from `packed_width` over `pairs`."""
    return accumulate(pairs, lambda t, q: packed_step(t, q, w), initial=first)


def conj_transfer(coeffs: Sequence[JacobiPair], n: int) -> Mat2:
    """The conjugated transfer matrix over the first n pairs (n >= 1).

    One packed walk from the identity, decoded once at its end.
    """
    if not 1 <= n <= len(coeffs):
        raise IndexOutOfRange(f"need 1 <= n <= {len(coeffs)} pairs, got n={n}")
    pairs = int_pairs(coeffs[:n])
    w = packed_width(pairs, 1)
    *entries, den = deque(packed_walk(pairs, w), maxlen=1).pop()
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
    restricts ell further to 1 .. p-2.  `conj_transfer` raises
    IndexOutOfRange for any other ell.
    """
    return conj_transfer(periodic, ell + 1)


def build_T3(seq: JacobiSequence) -> Mat2:
    """Transfer matrix over the index-reversed preperiodic block.

    Its j-th pair (1-based) is (alpha_{k-j}, beta_{k-j+1}) with alpha_0 read
    as alpha_k.  The matrix is read off T1 as D * T1^T * D^-1 with
    D = diag(1, -alpha_k^2) (the proof is in `quadratic`).
    """
    t1, ak2 = build_T1(seq), seq.preperiodic[-1].a ** 2
    return Mat2(t1.a11, Poly.const(-1 / ak2) * t1.a21, Poly.const(-ak2) * t1.a12, t1.a22)
