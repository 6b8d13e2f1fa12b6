"""Quadratic relations of periodic functions and the exact identity verifier.

A function with purely periodic coefficients is a fixed point of the Moebius
map of the transfer matrix over one period: with that matrix written as
[[A, B], [C, D]], the fixed-point equation unfolds to

    C*m^2 + (D - A)*m - B = 0,

which is the quadratic relation (alpha, beta, gamma) = (C, D - A, -B).
Pulling it back through the preperiodic transfer matrix T1 gives the
relation for the full eventually periodic function M: as quadratic forms
Q = [[alpha, beta/2], [beta/2, gamma]], the congruence T1^T * Q * T1, one
det-1 step per preperiodic pair, which keeps the polynomial gcd.

The verifier decides, by exact polynomial arithmetic alone, whether

    1 / (ak^2 * Mtilde(z))  =  f_{T3 T2(ell) T1}(M(z))

holds identically, where Mtilde is the second root of M's quadratic and ak
is the a-entry of the last preperiodic pair.  Eliminating Mtilde through the
product of roots (M * Mtilde = gamma/alpha), cross-multiplying, and reducing
modulo the relation (alpha*M^2 = -beta*M - gamma) collapses the identity to

    P * M - Q = 0,   P = alpha*D - beta*C - ak^2*gamma*A,   Q = gamma*(C + ak^2*B)

with [[A, B], [C, D]] = T3*T2(ell)*T1.  M is never a rational function, so
the identity holds if and only if both residuals P and Q are the zero
polynomial, and the verdict needs no numerical tolerance.  The proof: the
pullback is a det-1 congruence, so disc = beta^2 - 4*alpha*gamma of M's
relation is the tail's discriminant over a nonzero square.  For the period
transfer T_P the tail's is (tr T_P)^2 - 4 = (tr T_P - 2)*(tr T_P + 2), and
tr T_P has degree p >= 1.  The two factors differ by 4, so they are coprime,
and their product is a constant times a square only if each factor is:
c*s^2 - c'*t^2 = 4 with s, t of degree p/2 >= 1.  Over the complex numbers
the left side is (sqrt(c)*s - sqrt(c')*t)*(sqrt(c)*s + sqrt(c')*t), and a
product of two polynomials is constant only if both are, so s and t would
be constant.  Hence disc is not a square and M is irrational.  Nor can
alpha or gamma vanish, since either would make disc = beta^2 a square.  No
request checks any of this at run time.

T3 needs no transfer of its own: T3 = D * T1^T * D^-1, D = diag(1, -ak^2).
For S(a, b) = diag(1/a, a) * U(b), U(b) = [[z - b, 1], [-1, 0]], and
U(b)^T = J * U(b) * J, J = diag(1, -1), so transposing T1 = S(a_k, b_k) ...
S(a_1, b_1) reverses the factors into the steps of the index-reversed block.

Both residuals are linear in T2(ell):

    P(ell) = tr(T2(ell) * L_P^T),   Q(ell) = tr(T2(ell) * L_Q^T),

with L^T = T1 * W * T3 for W_P = [[-ak^2*gamma, -beta], [0, alpha]] and
W_Q = [[0, gamma], [ak^2*gamma, 0]].  L_Q^T is W_Q itself: W_Q * D =
ak^2*gamma * K for K = [[0, -1], [1, 0]], and T1 * K * T1^T = det(T1) * K = K,
so Q(ell) = gamma * (T2(ell)_21 + ak^2 * T2(ell)_12).  And W_P * D =
-ak^2 * (adj(Q_M) + (beta/2) * K) for M's form Q_M, with T1 * adj(Q_M) * T1^T
= adj(Q') for the tail form Q' = (alpha', beta', gamma') that pulls back to
Q_M exactly, so

    L_P^T = [[-ak^2*gamma', -(beta' + beta)/2], [-ak^2*(beta - beta')/2, alpha']].

Since T2(ell) = S(a, b) * T2(ell-1), N_P(ell) = T2(ell) * L_P^T obeys the
same transfer recurrence, started at N_P = L_P^T.  The sweep over ell
therefore advances N_P by one transfer step per ell and reads P(ell) off as
a trace.  Q needs no walk of its own: T2(ell) is the (ell+1)-th prefix of
the period walk that builds the tail, so Q(ell) = gamma * s(ell) with the
cofactor s(ell) = T2(ell)_21 + ak^2 * T2(ell)_12 formed as the walk passes
it, and since gamma != 0, Q(ell) vanishes exactly when s(ell) does.
The period is walked once for the tail and the cofactors and once for N_P;
the product T3*T2(ell)*T1 is never formed, nor is gamma * s(ell) unless a
caller reads `residual_Q`, and `verify` runs no polynomial product at all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, islice
from typing import Iterator, Sequence

from ._value import frozen
from .errors import DegenerateRelation, DivisionByZero, IndexOutOfRange
from .exactalg import Mat2, Poly, poly_gcd, rational_content, shift_add
from .jacobi import JacobiPair, JacobiSequence, require_kp_normalized
from .orthopoly import column_step, conj_transfer, transfer_step, transfer_step_at


@frozen
class QuadraticRelation:
    """Polynomials (alpha, beta, gamma) with alpha*y^2 + beta*y + gamma = 0."""

    alpha: Poly
    beta: Poly
    gamma: Poly

    def __post_init__(self) -> None:
        if self.alpha.is_zero() and self.beta.is_zero() and self.gamma.is_zero():
            raise DegenerateRelation("all three relation polynomials are zero")

    def canonical(self) -> "QuadraticRelation":
        """Divide out the common polynomial factor and the rational content.

        The monic polynomial gcd and a positive rational content are removed,
        so proportional relations with the same signs become equal.  Signs
        are never flipped.
        """
        g = poly_gcd(poly_gcd(self.alpha, self.beta), self.gamma)
        triple = [self.alpha, self.beta, self.gamma]
        if g.degree > 0:
            triple = [divmod(t, g)[0] for t in triple]
        return QuadraticRelation(*triple).primitive()[0]

    def primitive(self) -> tuple["QuadraticRelation", Fraction]:
        """The relation over its positive rational content, and that content."""
        content = rational_content([self.alpha, self.beta, self.gamma])
        return self.scale(1 / content), content

    def scale(self, factor: Fraction) -> "QuadraticRelation":
        return QuadraticRelation(*(t.scale(factor) for t in (self.alpha, self.beta, self.gamma)))

    def residual(self, y, z):
        """Evaluate alpha(z)*y^2 + beta(z)*y + gamma(z)."""
        return self.alpha(z) * y * y + self.beta(z) * y + self.gamma(z)


@frozen
class VerificationReport:
    """Outcome of the exact identity check at one candidate first length.

    The Q residual is kept as its two factors, M's `gamma` and the cofactor
    `cofactor_Q` = T2(ell)_21 + ak^2 * T2(ell)_12.  `residual_Q`, their
    product, is formed on first access only; `residual_Q_degree` needs no
    product.  `holds` is true exactly when `residual_P` and `cofactor_Q`
    both vanish, which is when `residual_Q` does too, since gamma != 0.
    """

    ell: int
    residual_P: Poly
    gamma: Poly
    cofactor_Q: Poly
    holds: bool

    @cached_property
    def residual_Q(self) -> Poly:
        """Q(ell) = gamma * cofactor_Q, exact."""
        return self.gamma * self.cofactor_Q

    @property
    def residual_Q_degree(self) -> int:
        """The degree of `residual_Q`, -1 when it is zero, without the product."""
        if self.cofactor_Q.is_zero():
            return -1
        return self.gamma.degree + self.cofactor_Q.degree


def periodic_quadratic(periodic: Sequence[JacobiPair]) -> QuadraticRelation:
    """The quadratic relation satisfied by the purely periodic function.

    Built from the fixed-point equation of the one-period transfer matrix.
    Returns exactly (C, D - A, -B); no normalization is applied.  gamma =
    -B has degree p - 1 and a nonzero leading coefficient.
    """
    if len(periodic) < 1:
        raise IndexOutOfRange("period must be nonempty")
    return _fixed_point_relation(conj_transfer(periodic, len(periodic)))


def _fixed_point_relation(t: Mat2) -> QuadraticRelation:
    """(C, D - A, -B) for the period transfer matrix t = [[A, B], [C, D]]."""
    return QuadraticRelation(t.a21, t.a22 - t.a11, -t.a12)


def pullback_quadratic(
    relation: QuadraticRelation, pairs: Sequence[JacobiPair]
) -> QuadraticRelation:
    """The relation for x when y = f_T(x) satisfies `relation`.

    T is the transfer matrix over `pairs`.  Returns the form T^T * Q * T of
    Q = [[alpha, beta/2], [beta/2, gamma]], exact and not canonicalized,
    taken pair by pair from the last: with alpha' = alpha/a^2 and
    v = (z - b)*alpha' - beta, the congruence by S(a, b) is

        (alpha, beta, gamma) -> ((z - b)*v + a^2*gamma, (z - b)*alpha' + v, alpha'),

    three `shift_add` calls and two scalings, no polynomial product.  Each
    step has det 1, so the result keeps the polynomial gcd of `relation`.
    """
    one = Fraction(1)
    al, be, ga = relation.alpha, relation.beta, relation.gamma
    for q in reversed(pairs):
        a2 = q.a * q.a
        al_q = al.scale(1 / a2)
        v = shift_add(al_q, -be, one, q.b)
        al, be, ga = shift_add(v, ga.scale(a2), one, q.b), shift_add(al_q, v, one, q.b), al_q
    return QuadraticRelation(al, be, ga)


def second_solution_value(relation: QuadraticRelation, m_val, z):
    """The other root of the quadratic at z, via the product of roots.

    Returns gamma(z) / (alpha(z) * m_val).

    Raises:
        DivisionByZero: alpha vanishes at z or m_val is zero.
    """
    denom = relation.alpha(z) * m_val
    if denom == 0:
        raise DivisionByZero("second solution undefined: alpha(z)*m = 0")
    return relation.gamma(z) / denom


@frozen
class Prepared:
    """What the identity checks need of one sequence, built once.

    `cofactors[ell - 1]` is the Q cofactor T2(ell)_21 + ak2 * T2(ell)_12,
    ell = 1 .. p-2, for the transfer T2(ell) over ell+1 periodic pairs.
    `t1` is the transfer matrix over the preperiodic block, `relation` the
    canonical relation for M, `scaled_tail` the canonical tail scaled so
    that it pulls back to `relation` exactly (through the whole block,
    trailing periods included), `t3` = D*t1^T*D^-1 with D = diag(1, -ak2),
    the transfer matrix over the index-reversed preperiodic block, and
    `ak2` the squared a-entry of the pair before the tail (with no
    preperiodic block: t1 = t3 = identity, last periodic pair).
    """

    seq: JacobiSequence
    cofactors: tuple[Poly, ...]
    t1: Mat2
    relation: QuadraticRelation
    scaled_tail: QuadraticRelation
    t3: Mat2
    ak2: Fraction

    @cached_property
    def float_ak2(self) -> float:
        """`ak2` converted to float on first use; OverflowError where it has none."""
        return float(self.ak2)

    def product(self, ell: int) -> Mat2:
        """T3*T2(ell)*T1, with T2(ell) over the first ell+1 periodic pairs."""
        return self.t3 @ reduce(transfer_step, self.seq.periodic[: ell + 1], self.t1)


def prepare(seq: JacobiSequence) -> Prepared:
    """Build the relations and block matrices of `seq` once.

    The representation is used as given: nothing is normalized here.  The
    verifier checks normalization itself, and the reverse test relies on
    representations that are not normalized.  The pullback keeps the
    polynomial gcd, so only the tail runs `poly_gcd`.

    The pullback skips every whole period at the end of the preperiodic
    block, as `normalize_kp` appends one.  The tail form is
    Q = sym(K*T_P) for the period transfer T_P = [[A, B], [C, D]] and
    K = [[0, 1], [-1, 0]], and T_P^T * K * T_P = det(T_P) * K = K, so
    T_P^T * Q * T_P = Q exactly: pulling back through a period returns the
    relation unchanged.  `t1`, `t3` and `ak2` still span the whole block.

    The period is walked once, one transfer step per pair, keeping the Q
    cofactor of each prefix T2(ell), ell = 1 .. p-2, but no prefix.  When
    the block ends with one whole period (as `normalize_kp` appends to
    every input it changes), T1 = T_P * T_pre for the pairs before that
    period, and `column_step` right-multiplies T_P by their steps, last
    pair first; a block of exactly one period takes T1 = T_P.  Any other
    block is walked pair by pair.  Neither forms a polynomial product.
    """
    block, periodic, p = seq.preperiodic, seq.periodic, seq.p
    ak = (block or periodic)[-1].a
    ak2 = ak * ak
    t_p, cofactors = Mat2.identity(), []
    for ell, q in enumerate(periodic):
        t_p = transfer_step(t_p, q)  # T2(ell)
        if 0 < ell < p - 1:
            cofactors.append(t_p.a21 + t_p.a12.scale(ak2))
    if block[-p:] == periodic:
        t1 = reduce(column_step, reversed(block[:-p]), t_p)
    else:
        t1 = reduce(transfer_step, block, Mat2.identity())
    t3 = Mat2(t1.a11, t1.a21.scale(-1 / ak2), t1.a12.scale(-ak2), t1.a22)
    canonical_tail = _fixed_point_relation(t_p).canonical()
    while block[-p:] == periodic:
        block = block[:-p]
    relation, content = pullback_quadratic(canonical_tail, block).primitive()
    scaled_tail = canonical_tail.scale(1 / content)
    return Prepared(seq, tuple(cofactors), t1, relation, scaled_tail, t3, ak2)


def _sweep(prep: Prepared) -> Iterator[VerificationReport]:
    """The reports for ell = 1, 2, ..., p-2, one transfer step per ell.

    N_P starts at L_P^T = T1*W_P*T3, read off M's beta and the scaled tail
    (alpha', beta', gamma') as [[-ak2*gamma', -(beta' + beta)/2],
    [-ak2*(beta - beta')/2, alpha']].  It follows the transfer recurrence
    over the periodic pairs, and after the first ell+1 pairs it is
    T2(ell)*L_P^T, whose trace is P(ell).  The Q cofactor
    T2(ell)_21 + ak2*T2(ell)_12 is read off `prep.cofactors`.  No step
    runs over the preperiodic pairs.

    Raises:
        NotNormalized: the sequence is not in canonical form.
    """
    require_kp_normalized(prep.seq)
    be, ga, ak2 = prep.relation.beta, prep.relation.gamma, prep.ak2
    tail = prep.scaled_tail
    l_p = Mat2(
        tail.gamma.scale(-ak2),
        (tail.beta + be).scale(Fraction(-1, 2)),
        (be - tail.beta).scale(-ak2 / 2),
        tail.alpha,
    )
    periodic = prep.seq.periodic
    # element j is T2(j-1)*L_P^T, over the first j periodic pairs
    steps = accumulate(periodic[: len(periodic) - 1], transfer_step, initial=l_p)
    kernels = zip(islice(steps, 2, None), prep.cofactors)
    for ell, (n_p, cofactor_q) in enumerate(kernels, start=1):
        residual_p = n_p.a11 + n_p.a22
        holds = residual_p.is_zero() and cofactor_q.is_zero()
        yield VerificationReport(ell, residual_p, ga, cofactor_q, holds)


def verify_main_identity(prep: Prepared, ell: int) -> VerificationReport:
    """Decide the second-solution identity at the candidate first length ell.

    The sequence must be normalized (nonempty preperiodic block ending with
    the last periodic pair) and ell must lie in 1 .. p-2.  `holds` is true
    exactly when both residual polynomials vanish identically, which happens
    if and only if the period is doubly palindromic with first length ell.
    Runs the split sweep and stops at ell.

    Raises:
        NotNormalized: the sequence is not in canonical form.
        IndexOutOfRange: ell outside 1 .. p-2.
    """
    p = prep.seq.p
    if not 1 <= ell <= p - 2:
        raise IndexOutOfRange(f"need 1 <= ell <= p-2 = {p - 2}, got ell={ell}")
    return next(islice(_sweep(prep), ell - 1, None))


def verify_splits(prep: Prepared) -> dict[int, VerificationReport]:
    """The verify_main_identity reports for every ell in 1 .. p-2.

    One sweep: each ell costs one fused transfer step of N_P and one read
    of the Q cofactor that `prepare` formed; neither
    forms a polynomial product, and `residual_Q` is formed only when read.
    Returns reports keyed by ell in ascending order.
    """
    return {report.ell: report for report in _sweep(prep)}


def product_values(prep: Prepared, z) -> Iterator[tuple]:
    """The entries of T3*T2(ell)*T1 at z, for ell = 1, 2, ..., p-2.

    T1(z) and T3(z) are evaluated once; T2(ell)(z) follows the transfer
    recurrence pointwise from the identity, one step per ell, so each ell
    costs O(1) operations and no exact product is formed.
    """
    t1 = [e(z) for e in prep.t1.entries()]
    t3 = [e(z) for e in prep.t3.entries()]
    periodic = prep.seq.periodic
    steps = accumulate(
        periodic[: len(periodic) - 1],
        lambda t, q: transfer_step_at(t, q, z),
        initial=(1, 0, 0, 1),
    )
    for t2 in islice(steps, 2, None):
        yield _mat_values(t3, _mat_values(t2, t1))


def _mat_values(x: Sequence, y: Sequence) -> tuple:
    """The product of two 2x2 matrices given as (a11, a12, a21, a22) values."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def numeric_identity_check(
    prep: Prepared, values: Sequence | None, m_val, second, tolerance: float = 1e-8
) -> dict:
    """Pointwise cross-check of the identity with a conditioning budget.

    `values` = (A, B, C, D) are the entries of T3*T2(ell)*T1 at a point z
    (from `product_values`, or from the exact product's entries evaluated
    at z), `m_val` = M(z) and `second` = Mtilde(z) from
    `second_solution_value`, which the caller forms once per point.  Compares
    1/(ak^2 * Mtilde(z)) with (A*M + B)/(C*M + D), with ak^2 as the float
    `prep.float_ak2`, so no exact arithmetic is done here; the residual
    polynomials stay the source of truth.  Returns a dict with the forward
    residual, the Moebius derivative magnitude 1/|C*M + D|^2 (the error
    amplification of the right side), and `ok`: residual within `tolerance`
    or within the double-precision budget that the conditioning allows.  If
    `values` or `second` is None (not formed), a denominator vanishes, a
    value overflows or the residual is not finite, the residual is None and
    `ok` is False.
    """
    residual, condition = None, float("inf")
    if values is not None and second is not None:
        a, b, c, d = values
        try:
            den = c * m_val + d
            residual = abs(1 / (prep.float_ak2 * second) - (a * m_val + b) / den)
            if not math.isfinite(residual):
                residual = None
            condition = float(1 / abs(den) ** 2)
        except (ZeroDivisionError, OverflowError):
            residual = None
    budget = max(tolerance, 1e-13 * (1.0 + condition))
    return {
        "residual": residual,
        "moebius_condition": condition,
        "tolerance": tolerance,
        "ok": residual is not None and bool(residual <= budget),
    }
