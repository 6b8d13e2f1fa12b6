"""Quadratic relations of periodic functions and the exact identity verifier.

A function with purely periodic coefficients is a fixed point of the Moebius
map of the transfer matrix over one period: with that matrix written as
[[A, B], [C, D]], the fixed-point equation unfolds to

    C*m^2 + (D - A)*m - B = 0,

which is the quadratic relation (alpha, beta, gamma) = (C, D - A, -B).
Pulling it back through the preperiodic transfer matrix T1 gives the
relation for the full eventually periodic function M: as quadratic forms
Q = [[alpha, beta/2], [beta/2, gamma]], the congruence T1^T * Q * T1, one
det-1 step per preperiodic pair, which keeps the polynomial gcd.  That
step runs on `Poly` through `exactalg.shift_add`, which serves nothing else.

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
cofactor s(ell) = T2(ell)_21 + ak^2 * T2(ell)_12 read as the walk passes
it, and since gamma != 0, Q(ell) vanishes exactly when s(ell) does.
The period is walked once for the tail and the cofactors and once for N_P;
the product T3*T2(ell)*T1 is never formed, and `verify` runs no polynomial
product at all.

Every transfer here is one packed walk (`orthopoly.packed_walk`): a matrix
is four integer numerator polynomials X over one shared denominator, each
held as the single int X(2^w).  A step clears both rows to a new
denominator and runs no gcd.  The verdict and both degrees are read off
the packed values: P(ell) from the trace x11 + x22 of N_P, and s(ell)
from kd*x21 + kn*x12 on the period walk, with ak^2 = kn/kd.  Only one
prefix is unpacked, to the tail relation's integer lists (below); no
residual or cofactor polynomial is formed.  The proof that this is exact:

- Packing is a ring homomorphism Z[z] -> Z, so the walk computes the
  packed numerators exactly whatever w is.  Only reading them needs w.
- If every coefficient c_i of a value v has |c_i| < 2^(w-2), then v plus
  the sum of 2^(w-1) * 2^(w*i) has the unsigned base-2^w digits
  c_i + 2^(w-1), each in [0, 2^w), so `exactalg.decode` returns the c_i.
  For degree d the lower terms sum to less than
  2^(w-2) * 2^(w*d) / (2^w - 1) <= 2^(w*d - 1) in absolute value, so
  2^(w*d - 1) <= |v| < 2^(w*d + w - 1): bit_length(|v|) // w = d, and a
  nonzero polynomial packs to a nonzero v.
- With a = an/ad and b = bn/bd, off the table `JacobiSequence.int_periodic`,
  a step's new coefficients are ad^2 * (bd*X1[i-1] - bn*X1[i] + bd*X2[i])
  in row 1 and -an^2 * bd * X1[i] in row 2.  So if h1 and h2 bound the
  coefficients of rows 1 and 2, ad^2 * ((bd + |bn|)*h1 + bd*h2) and
  an^2 * bd * h1 bound them after the step.  By induction from the start's
  bounds, this scalar pre-pass (`orthopoly.packed_width`) bounds every
  coefficient of every step.
- An entry is bounded by h1 or h2, the trace by h1 + h2 and the cofactor
  by kd*h2 + kn*h1, and since kn, kd >= 1 the last bounds all three.
  `packed_width` takes the smallest multiple of 8 for w that puts its
  largest value along the walk below 2^(w-2): the period walk, which reads
  the cofactor, passes ak^2, and the N_P walk, which reads only the trace,
  runs at the default ak^2 = 1, where the bound is h1 + h2.

The tail relation comes from the period's primitive root.  If the period
is r copies of a block of q pairs, T_P = T^r for the block's transfer T,
and Cayley-Hamilton for det T = 1 gives T^r = U_{r-1}(t)*T - U_{r-2}(t)*I
with t = tr(T)/2 and U the Chebyshev polynomials of the second kind.  The
multiple of I cancels from (C, D - A, -B), so T_P's tail relation is
U_{r-1}(t) times T's.  `canonical_relation` divides the integer lists by
their `poly_gcd`, which holds U_{r-1}(t) times the gcd of T's relation up
to a constant, and then by their content, which takes the rest of the
leading coefficient (2*lc(t))^(r-1) of U_{r-1}(t).  tr T is the
first-kind polynomial p_q plus an entry of degree q - 2, so
lc(t) = 1/(2*a_1*...*a_q) > 0, no sign flips, and the canonical tail of
T_P is that of T.  `prepare` unpacks T for the smallest such q, whose
relation has the smallest gcd, and walks on over the rest of the period
only for the Q cofactors.

The numeric cross-check needs no transfer matrix at a point.  A transfer's
Moebius action strips its pairs, so f_{T1}(M) = m and f_{T2(ell)}(m) =
m_{ell+1}, the tail without its first ell+1 pairs, and the identity reads
fold_R(1/(ak^2 * Mtilde(z))) = m_{ell+1}(z) for the index-reversed block R.
Both sides are backward folds of levels v -> 1/(b - z - a^2 v), which map
the upper half plane into itself and so contract there (Wall, *Analytic
Theory of Continued Fractions*, 1948), where forward transport of M through
T3*T2(ell)*T1 loses digits like the squared transfer norm.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from ._value import frozen
from .errors import DegenerateRelation, DivisionByZero, IndexOutOfRange
from .exactalg import Poly, _pseudo_divmod, decode, pack, packed_degree, poly_gcd, rational_content
from .exactalg import shift_add, unpack
from .jacobi import JacobiPair, JacobiSequence, int_pairs, require_kp_normalized
from .orthopoly import packed_walk, packed_width


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
        """Divide out the common polynomial factor and the rational content,
        so proportional relations with the same signs become equal."""
        whole = self.primitive()[0]  # integer numerators over the denominator 1
        return canonical_relation([whole.alpha.num, whole.beta.num, whole.gamma.num])

    def primitive(self) -> tuple["QuadraticRelation", Fraction]:
        """The relation over its positive rational content, and that content."""
        content = rational_content([self.alpha, self.beta, self.gamma])
        return self.scale(1 / content), content

    def scale(self, factor: Fraction) -> "QuadraticRelation":
        return QuadraticRelation(*(t.scale(factor) for t in (self.alpha, self.beta, self.gamma)))


def canonical_relation(nums: list[list[int]]) -> QuadraticRelation:
    """The canonical relation of integer numerators (alpha, beta, gamma):
    divided by their `poly_gcd`, exactly over the integers (Gauss's lemma),
    then by their positive content.  Signs are never flipped."""
    g = poly_gcd(*nums)
    if len(g) > 1:
        nums = [_pseudo_divmod(num, g)[1] for num in nums]
    content = math.gcd(*(n for num in nums for n in num))
    return QuadraticRelation(*(Poly(tuple([n // content for n in num]), 1) for num in nums))


@frozen
class VerificationReport:
    """Outcome of the exact identity check at one candidate first length.

    A report keeps the degrees of the residuals P(ell) and Q(ell), -1 for
    zero, and `holds` is true exactly when both vanish.
    """

    ell: int
    residual_P_degree: int
    residual_Q_degree: int

    @property
    def holds(self) -> bool:
        return self.residual_P_degree < 0 and self.residual_Q_degree < 0


def periodic_quadratic(periodic: Sequence[JacobiPair]) -> QuadraticRelation:
    """The quadratic relation satisfied by the purely periodic function.

    Built from the fixed-point equation of the one-period transfer matrix.
    Returns exactly (C, D - A, -B); no normalization is applied.  gamma =
    -B has degree p - 1 and a nonzero leading coefficient.
    """
    if len(periodic) < 1:
        raise IndexOutOfRange("period must be nonempty")
    pairs = int_pairs(periodic)
    w = packed_width(pairs, 1, 1)
    # packing is a ring homomorphism, so D - A is one integer subtraction
    x11, x12, x21, x22, den = deque(packed_walk(pairs, w), maxlen=1).pop()
    return QuadraticRelation(*(decode(x, den, w) for x in (x21, x22 - x11, -x12)))


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

    `cofactor_degrees[ell - 1]` is the degree (-1 for zero) of the Q
    cofactor T2(ell)_21 + ak2 * T2(ell)_12, ell = 1 .. p-2, for the
    transfer T2(ell) over ell+1 periodic pairs.  `relation` is the canonical
    relation for M, `scaled_tail` the canonical tail scaled so that it
    pulls back to `relation` exactly (through the whole block, trailing
    periods included), and `ak2` the squared a-entry of the pair before
    the tail (the last periodic pair when there is no preperiodic block).
    """

    seq: JacobiSequence
    cofactor_degrees: tuple[int, ...]
    relation: QuadraticRelation
    scaled_tail: QuadraticRelation
    ak2: Fraction


def prepare(seq: JacobiSequence) -> Prepared:
    """Build the relations of `seq` once.

    The representation is used as given: nothing is normalized here.  The
    verifier checks normalization itself, and the reverse test relies on
    representations that are not normalized.  The pullback keeps the
    polynomial gcd, so only the tail runs `poly_gcd`, once.

    The pullback skips every whole period at the end of the preperiodic
    block, as `normalize_kp` appends one.  The tail form is
    Q = sym(K*T_P) for the period transfer T_P = [[A, B], [C, D]] and
    K = [[0, 1], [-1, 0]], and T_P^T * K * T_P = det(T_P) * K = K, so
    T_P^T * Q * T_P = Q exactly: pulling back through a period returns the
    relation unchanged.  `ak2` still belongs to the whole block's last pair.

    The period is walked once off `seq.int_periodic`, at a width that
    bounds the Q cofactor kd*x21 + kn*x12 of each prefix T2(ell) (ak2 =
    kn/kd), keeping only their degrees, and only T_q's tail relation is
    unpacked, for the smallest q the period repeats with (see the module
    docstring).  The block is never walked; nothing forms a polynomial product.
    """
    block, periodic, p = seq.preperiodic, seq.periodic, seq.p
    ak2 = (block or periodic)[-1].a ** 2
    kn, kd = ak2.numerator, ak2.denominator
    pairs = seq.int_periodic
    q = next(q for q in range(1, p + 1) if p % q == 0 and pairs[q:] == pairs[:-q])
    w = packed_width(pairs, 1, 1, ak2)
    cofactor_degrees = []
    for j, t in enumerate(packed_walk(pairs, w)):  # T_j = T2(j - 1), packed
        if 1 < j < p:
            cofactor_degrees.append(packed_degree(kd * t[2] + kn * t[1], w))
        if j == q:
            x11, x12, x21, x22, _ = t
    # T_q's (C, D - A, -B); their shared denominator cancels from a relation
    canonical_tail = canonical_relation([unpack(x, w) for x in (x21, x22 - x11, -x12)])
    while block[-p:] == periodic:
        block = block[:-p]
    relation, content = pullback_quadratic(canonical_tail, block).primitive()
    scaled_tail = canonical_tail.scale(1 / content)
    return Prepared(seq, tuple(cofactor_degrees), relation, scaled_tail, ak2)


def _sweep(prep: Prepared) -> Iterator[VerificationReport]:
    """The reports for ell = 1, 2, ..., p-2, one packed step per ell.

    N_P = T2(ell)*L_P^T starts at L_P^T = T1*W_P*T3, from M's beta and the
    scaled tail (alpha', beta', gamma'): over 2*kd*d, d the lcm of their
    denominators, [[-2kn*ga, -kd*(bt + be)], [-kn*(be - bt), 2kd*al]] for
    their numerators times d over theirs, packed straight from them.  It
    steps over the periodic pairs before the last, and P(ell) is its trace
    after ell+1 of them, read only for its degree.  The degree of Q(ell) is
    deg gamma + deg s(ell) for the Q cofactor s(ell), read off
    `prep.cofactor_degrees`, or -1 where s(ell) vanishes.

    Raises:
        NotNormalized: the sequence is not in canonical form.
    """
    require_kp_normalized(prep.seq)
    kn, kd = prep.ak2.numerator, prep.ak2.denominator
    tail = prep.scaled_tail
    polys = (tail.alpha, tail.beta, tail.gamma, prep.relation.beta)
    d = math.lcm(*(t.den for t in polys))
    h = 2 * (kn + kd) * max(max(map(abs, t.num), default=0) * (d // t.den) for t in polys)
    pairs = prep.seq.int_periodic[:-1]
    w = packed_width(pairs, h, h)
    al, bt, ga, be = (pack(t.num, w) * (d // t.den) for t in polys)
    first = (-2 * kn * ga, -kd * (bt + be), -kn * (be - bt), 2 * kd * al, 2 * kd * d)
    gamma_degree = prep.relation.gamma.degree
    reads = zip(islice(packed_walk(pairs, w, first), 2, None), prep.cofactor_degrees)
    for ell, ((x11, _, _, x22, _), q_degree) in enumerate(reads, start=1):
        q_degree = gamma_degree + q_degree if q_degree >= 0 else -1
        yield VerificationReport(ell, packed_degree(x11 + x22, w), q_degree)


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

    One sweep: each ell costs one packed step of N_P and one read of the Q
    cofactor degree that `prepare` kept.  Returns reports keyed by ell in
    ascending order.
    """
    return {report.ell: report for report in _sweep(prep)}


def stripped_tails(seq: JacobiSequence, m_val, z, lowest: int = 1) -> list:
    """m_{ell+1}(z) for ell = lowest .. p-2, from the tail value m_val = m(z).

    m_j = 1/(b_{j+1} - z - a_{j+1}^2 * m_{j+1}) and m_p = m, so one backward
    pass over the period's levels p, p-1, ..., lowest+2 gives them all; a
    caller that reads one ell passes it as `lowest` and folds no level below.
    """
    values = []
    for b, a2 in reversed(seq.levels(z, periodic=True)[lowest + 1 :]):
        m_val = 1 / (b - z - a2 * m_val)
        values.append(m_val)
    return values[::-1]


def reversed_fold(seq: JacobiSequence, second, z):
    """fold_R(1/(ak^2 * second)) at z, for the index-reversed block R.

    With second = Mtilde(z), this equals m_{ell+1}(z) where the identity
    holds.  Innermost first, R's levels are the block's (b_i, a_{i-1}^2),
    i = 1 .. k, with a_0 = a_k; the block must be nonempty.

    Raises:
        ZeroDivisionError: second or a level vanishes at z.
    """
    levels = seq.levels(z, periodic=False)
    a2 = levels[-1][1]
    value = 1 / (a2 * second)
    for b, next_a2 in levels:
        value = 1 / (b - z - a2 * value)
        a2 = next_a2
    return value


def numeric_identity_check(stripped, folded, tolerance: float = 1e-8) -> dict:
    """Pointwise cross-check of the identity at one ell; it decides no verdict.

    `stripped` comes from `stripped_tails` and `folded` from `reversed_fold`.
    Returns the relative residual |stripped - folded| / |stripped| and
    `ok`: residual at most `tolerance`.  Where a side is None (not formed)
    or the residual is not finite, the residual is None and `ok` is False.
    """
    residual = None
    if stripped is not None and folded is not None and stripped != 0:
        residual = abs(stripped - folded) / abs(stripped)
        residual = residual if math.isfinite(residual) else None
    return {
        "residual": residual,
        "ok": residual is not None and bool(residual <= tolerance),
    }
