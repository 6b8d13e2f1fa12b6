"""Numeric evaluation of m-functions and exact Laurent-series machinery.

Evaluation side: everything is read off the pairs.  A purely periodic
function is the fixed point of its period's product of level maps that
lies in the upper half plane, and an eventually periodic function wraps
it in its preperiodic levels.  A depth-limited truncation evaluator
cross-checks them.
`reverse_asymptotics` decides exactly, from the leading coefficients of M's
relation, whether 1/(ak^2 * Mtilde) decays like an m-function at infinity.

Series side: the decaying branch of a quadratic relation expands as
m(z) = -c_1/z - c_2/z^2 - ... at infinity, with exact rational c_j.
`laurent_of_quadratic` finds the c_j by one forward pass over the
triangular coefficient system.  `recover_coefficients` peels the
continued-fraction pairs off the relation one level at a time, without
the c_j.  Both are exact: the expansion solves over Fractions, and the
peel steps three integer lists, reduced once per pair.  The only
approximation is the float square root of an a^2 that is not a rational
square.
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction

from ._value import frozen
from .errors import (
    BranchAmbiguity,
    DegenerateRelation,
    DivisionByZero,
    InsufficientOrder,
    NotAnMFunction,
)
from .exactalg import rational_sqrt
from .jacobi import JacobiSequence
from .quadratic import QuadraticRelation, prepare


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------


def eval_periodic_m(seq: JacobiSequence, z):
    """The purely periodic function of `seq`'s period at z (Im z > 0).

    m is a fixed point of the product [[A, B], [C, D]] of the period's level
    matrices [[0, 1], [-a^2, b - z]], the maps v -> 1/(b - z - a^2 v), so a
    root of C m^2 + (D - A) m - B = 0.  Each level maps the closed upper
    half plane into the open one, so only one root lies there (Wall,
    *Analytic Theory of Continued Fractions*, 1948): m(z) is the root with
    the larger imaginary part if that is a positive normal double.  Else
    both are real to double precision (the real axis, subnormal heights),
    and the one closest to m(z + 1e-6 i) is taken.

    Raises:
        OverflowError: a root is not finite.
        BranchAmbiguity: no root is off the real axis at z + 1e-6 i either.
    """
    m, other = _tail_roots(seq, z)
    if m.imag < sys.float_info.min:
        reference = _tail_roots(seq, z + 1e-6j)[0]
        if reference.imag < sys.float_info.min:
            raise BranchAmbiguity(f"no root of the periodic tail is off the real axis at z={z}")
        return min(m, other, key=lambda r: abs(r - reference))
    return m


def _tail_roots(seq: JacobiSequence, z) -> tuple:
    """Both roots at z, larger imaginary part first.

    At a builtin point the product is rescaled by its largest entry before
    a level, unless z, b and a^2 lie within 1e90 of 1 and the second column
    within 1e100: the first column is the last second column times -a^2,
    so a level then moves no entry beyond 1e191 of 1.  (alpha, beta, gamma)
    is rescaled once more.  No entry overflows or underflows, and no
    scaling moves a root.  The roots big/(2 alpha) and 2 gamma/big (Vieta;
    the only root where alpha = 0), with big = -beta - s*sqrt(disc) and
    s = +-1 maximising |big|, do not cancel.
    """
    floats, near = type(z) in (float, complex), abs(z) < 1e90
    A, B, C, D = 1, 0, 0, 1
    for b, a2 in seq.levels(z, periodic=True):
        if floats and not (
            near and 1e-90 < a2 < 1e90 and -1e90 < b < 1e90 and 1e-100 < abs(B) + abs(D) < 1e100
        ):
            s = 1 / max(abs(A), abs(B), abs(C), abs(D))
            A, B, C, D = A * s, B * s, C * s, D * s
        d = b - z
        A, B, C, D = -B * a2, A + B * d, -D * a2, C + D * d
    s = 1 / (max(abs(C), abs(D - A), abs(B)) or 1) if floats else 1
    av, bv, gv = C * s, (D - A) * s, -B * s
    root = (bv * bv - 4 * av * gv) ** 0.5
    big = -bv - root if abs(bv + root) >= abs(bv - root) else root - bv
    if big == 0:
        raise DivisionByZero("quadratic degenerates at evaluation point")
    r1 = 2 * gv / big
    r2 = big / (2 * av) if av != 0 else r1
    if not (abs(r1) < math.inf and abs(r2) < math.inf):
        raise OverflowError(f"periodic tail overflows at z={z}")
    return (r1, r2) if r1.imag >= r2.imag else (r2, r1)


def eval_m(seq: JacobiSequence, z):
    """The eventually periodic function at z (Im z > 0): the tail, folded."""
    return fold_preperiodic(seq, eval_periodic_m(seq, z), z)


def fold_preperiodic(seq: JacobiSequence, value, z):
    """Wrap the tail value at z in the preperiodic levels of `seq`, last first.

    A caller that holds the periodic tail's value gets M(z) without solving
    the tail again.
    """
    for b, a2 in reversed(seq.levels(z, periodic=False)):
        den = b - z - a2 * value
        if den == 0:
            raise DivisionByZero(f"continued fraction level vanished at z={z}")
        value = 1 / den
    return value


def eval_truncated(seq: JacobiSequence, z, depth: int):
    """Finite truncation of the continued fraction with tail value 0.

    Runs in double precision on `seq.float_periodic`, which a fold no
    deeper than k never reads (nor converts), and `seq.float_preperiodic`.
    For a builtin float or complex z this is bit-for-bit what the same loop
    over the exact pairs gives: Fraction's mixed-type arithmetic converts
    to float as well.

    Levels at and above k repeat the period.  The fold takes the top
    (depth - k) mod p of them, then whole periods, and stops at its cycle:
    once a period returns the value it started from with the same bits,
    every further period does too, and that value is level k's.
    """
    if depth < 1:
        raise InsufficientOrder(f"depth must be at least 1, got {depth}")
    value = 0 * z
    if depth > seq.k:
        whole, part = divmod(depth - seq.k, seq.p)
        for b, a2 in reversed(seq.float_periodic[:part]):
            value = 1 / (b - z - a2 * value)
        for _ in range(whole):
            last = value
            for b, a2 in reversed(seq.float_periodic):
                value = 1 / (b - z - a2 * value)
            if value == last and _bits(value) == _bits(last):
                break
    for b, a2 in reversed(seq.float_preperiodic[:depth]):
        value = 1 / (b - z - a2 * value)
    return value


def _bits(value) -> bytes:
    """The IEEE bits of a float or complex value (signed zeros differ)."""
    return struct.pack("<dd", value.real, value.imag)


@frozen
class ReverseObstructionReport:
    """Exact test of whether w = 1/(ak^2 * Mtilde) decays like an m-function.

    `is_m_like` is true when w = -1/z + O(z^-2) at infinity.
    `decay_constant` is the limit of z*Mtilde(z) at infinity, or None where
    z*Mtilde grows; for an obstructed representation with one preperiodic
    pair (alpha_1, beta_1) over a one-pair period it is
    -1/(1 - alpha_1^2/a_p^2).
    """

    is_m_like: bool
    decay_constant: Fraction | None


def reverse_asymptotics(seq: JacobiSequence) -> ReverseObstructionReport:
    """Decide the m-function asymptotics of w = 1/(ak^2 * Mtilde) exactly.

    With M's relation (alpha, beta, gamma), M*Mtilde = gamma/alpha, so
    w = alpha*M/(ak^2*gamma), and M = -1/z + O(z^-2) for every stream.
    Hence w = -1/z + O(z^-2) exactly when deg alpha = deg gamma and
    lc(alpha) = ak^2 * lc(gamma), and z*Mtilde = -z^2*gamma/alpha*(1 + O(1/z))
    tends to -lc(gamma)/lc(alpha) when deg alpha - deg gamma = 2 and grows
    when the gap is 0 or 1.  No other gap occurs: the tail's second root
    grows like z, and each preperiodic level maps a value that grows like z,
    stays bounded or decays like 1/z to one of the same three kinds.  Only
    the leading coefficients are read; no point is evaluated.

    The sequence goes to `prepare` as given.  An empty block gives the
    relations of one explicit period, and a nonempty one is used even when
    it does not end with the last periodic pair: the whole point of the
    test is to detect such representations.  alpha and gamma are never zero
    (the `quadratic` module docstring proves it).
    """
    prep = prepare(seq)
    al, ga = prep.relation.alpha, prep.relation.gamma
    gap = al.degree - ga.degree
    is_m_like = gap == 0 and al.leading == prep.ak2 * ga.leading
    decay = -ga.leading / al.leading if gap == 2 else None
    return ReverseObstructionReport(is_m_like, decay)


# ---------------------------------------------------------------------------
# exact truncated Laurent series at infinity
# ---------------------------------------------------------------------------


def _decaying_relation(relation: QuadraticRelation) -> tuple[int, list, list, list]:
    """d = deg beta, and (alpha, beta, gamma) cleared to integer lists of length d + 1.

    The decaying branch exists and is unique when deg beta >= deg alpha and
    deg gamma <= deg beta - 1; anything else fails the leading balance and
    raises DegenerateRelation.
    """
    al, be, ga = relation.alpha, relation.beta, relation.gamma
    if be.is_zero() or be.degree < al.degree or ga.degree > be.degree - 1:
        raise DegenerateRelation(
            "leading balance failed: no unique branch decaying at infinity"
        )
    d = be.degree
    den = math.lcm(al.den, be.den, ga.den)
    return d, *(
        [n * (den // t.den) for n in t.num] + [0] * (d + 1 - len(t.num))
        for t in (al, be, ga)
    )


def laurent_of_quadratic(relation: QuadraticRelation, order: int) -> tuple[Fraction, ...]:
    """(c_1, ..., c_order) of the decaying branch -c_1/z - c_2/z^2 - ... at infinity.

    Substituting y = -sum c_j z^-j into alpha*y^2 + beta*y + gamma = 0 gives
    alpha*c^2 - beta*c + gamma = 0 for c = sum c_j z^-j.  With d = deg beta,
    the coefficient of z^(d-n) in it is

        gamma_(d-n) - sum_(j<=n) beta_(d-n+j) c_j
                    + sum_(2<=m<=n) alpha_(d-n+m) (c^2)_m = 0,

    where (c^2)_m = sum_(i<m) c_i c_(m-i) needs only c_1..c_(m-1).  The
    system is triangular: one forward pass over n = 1..order solves it for
    c_n in Fractions, on the relation cleared to integers, keeping the
    coefficients of c^2 in a running list, in O(order^2) operations.

    Raises:
        InsufficientOrder: order < 1.
        DegenerateRelation: no unique decaying branch (`_decaying_relation`).
    """
    if order < 1:
        raise InsufficientOrder(f"order must be at least 1, got {order}")
    d, A, B, G = _decaying_relation(relation)
    c = [Fraction(0)]  # index 0 pads the 1-based numbering
    sq = [Fraction(0)]  # sq[m] = (c^2)_m
    for n in range(1, order + 1):
        sq.append(sum(c[i] * c[n - i] for i in range(1, n)))
        low = max(1, n - d)  # B[d-n+j] and A[d-n+m] vanish below
        total = G[d - n] if n <= d else 0
        total -= sum(B[d - n + j] * c[j] for j in range(low, n))
        total += sum(A[d - n + m] * sq[m] for m in range(max(2, low), n + 1))
        c.append(Fraction(total, B[d]))
    return tuple(c[1:])


@frozen
class RecoveredPair:
    """One recovered coefficient pair.

    `a_sq` and `b` are exact.  `a` is the exact square root when a_sq is a
    rational square (a_exact True), otherwise a float approximation.
    """

    a_sq: Fraction
    b: Fraction
    a: Fraction | float
    a_exact: bool


def recover_coefficients(relation: QuadraticRelation, count: int) -> list[RecoveredPair]:
    """Peel the first `count` coefficient pairs off the decaying branch m.

    The pairs are the J-fraction of a quadratic function (Wall, *Analytic
    Theory of Continued Fractions*, 1948).  With u = -1/m the relation reads
    gamma*u^2 - beta*u + alpha = 0, and u = (z - b) + a^2*m_1, where m_1
    drops the first pair.  With d = deg beta, c_1 = gamma_(d-1)/beta_d must
    be 1, and then

        b = (gamma_(d-2) - beta_(d-1) + alpha_d)/gamma_(d-1),
        a^2 = e_(d-1)/L_d,   L = 2*gamma*(z - b) - beta,
                             e = gamma*(z - b)^2 - beta*(z - b) + alpha.

    m_1 satisfies (gamma*a^2, L, e/a^2), whose c_1 is 1 and whose beta has
    degree d.  A step is O(d) operations on integer lists: with b = bn/bd
    and a^2 = an/ad, the next relation is scaled by an*ad*bd^2 to stay
    integral and divided by the gcd of its coefficients, its only reduction.
    The pairs and errors are those Chebyshev's algorithm reads off m's
    Laurent expansion to order 2*count + 1.

    A step is a fixed map of the content-reduced lists, the start's too, so
    if step j gives back the start, the stream is j-periodic: the peel stops
    there and repeats the first j pairs.

    Raises:
        DegenerateRelation: no unique decaying branch (`_decaying_relation`).
        InsufficientOrder: count < 1.
        NotAnMFunction: c_1 != 1, or some recovered a^2 <= 0.
    """
    d, A, B, G = _decaying_relation(relation)
    if count < 1:
        raise InsufficientOrder(f"count must be at least 1, got {count}")
    # index -1 reads G[d] = 0 (deg gamma < d) and h[d] = 0 below (c_1 = 1)
    c1 = Fraction(G[d - 1], B[d])
    if c1 != 1:
        raise NotAnMFunction(f"leading coefficient c_1 = {c1} != 1")
    g = math.gcd(*A, *B, *G)
    A, B, G = start = tuple([x // g for x in row] for row in (A, B, G))
    out: list[RecoveredPair] = []
    while True:
        b = Fraction(G[d - 2] - B[d - 1] + A[d], G[d - 1])
        bn, bd = b.numerator, b.denominator
        # with w = bd*z - bn: gamma*w, h = gamma*w - bd*beta, L*bd = gamma*w + h,
        # and e*bd^2 = h*w + bd^2*alpha below its two vanishing top terms
        gw = [bd * G[i - 1] - bn * G[i] for i in range(d + 1)]
        h = [x - bd * y for x, y in zip(gw, B)]
        L = [x + y for x, y in zip(gw, h)]
        e = [bd * h[i - 1] - bn * h[i] + bd * bd * A[i] for i in range(d)]
        a_sq = Fraction(e[d - 1], bd * L[d])
        if a_sq <= 0:
            raise NotAnMFunction(f"recovered a^2 = {a_sq} is not positive")
        root = rational_sqrt(a_sq)
        a = math.sqrt(a_sq.numerator / a_sq.denominator) if root is None else root
        out.append(RecoveredPair(a_sq, b, a, root is not None))
        if len(out) == count:
            return out
        an, ad = a_sq.numerator, a_sq.denominator
        A = [an * an * bd * bd * x for x in G]
        B = [an * ad * bd * x for x in L]
        G = [ad * ad * x for x in e] + [0]
        g = math.gcd(*A, *B, *G)
        A, B, G = ([x // g for x in row] for row in (A, B, G))
        if (A, B, G) == start:
            return [out[i % len(out)] for i in range(count)]
