"""Numeric evaluation of m-functions and exact Laurent-series machinery.

Evaluation side: a purely periodic function is evaluated by solving its
fixed-point quadratic at the point and selecting the root in the upper half
plane; an eventually periodic function wraps that value in finitely many
continued-fraction levels.  A depth-limited truncation evaluator provides an
independent cross-check, `strip_identity_check` compares direct
evaluation of a shifted stream against the Moebius image of the original,
and `reverse_asymptotics` probes whether 1/(ak^2 * Mtilde) decays like an
m-function along the imaginary axis.

Series side: expansions at infinity are written as

    m(z) = -c_1/z - c_2/z^2 - ... - c_N/z^N + O(z^-(N+1))

with exact rational c_j.  `laurent_of_quadratic` extracts the decaying
branch of a quadratic relation by solving the triangular coefficient system
in one forward pass, and `recover_coefficients` reads the continued-fraction
pairs back with Chebyshev's algorithm, since c_j is the (j-1)-th moment of
the spectral measure.  Both take O(N^2) exact operations.  Each recovered
pair consumes two orders of the expansion, so n pairs need order at least
2n+1.

All series arithmetic is exact; the only approximation is the float square
root reported for an a^2 that is not a rational square.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BranchAmbiguity,
    DegenerateRelation,
    DivisionByZero,
    InsufficientOrder,
    NotAnMFunction,
    NumericInstability,
)
from .exactalg import mobius_apply, rational_sqrt
from .jacobi import JacobiPair, JacobiSequence, normalize_kp, strip
from .orthopoly import conj_transfer
from .quadratic import Prepared, QuadraticRelation, prepare, second_solution_value


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

_IM_CUTOFF = 1e-13
_CONTINUITY_STEP = 1e-6


def eval_periodic_m(tail: QuadraticRelation, z, _nudged: bool = False):
    """The purely periodic function at z (Im z > 0): upper-half-plane root.

    `tail` is the period's fixed-point relation (`periodic_quadratic`, or
    `Prepared.tail`).  Solves it at z and returns the root with positive
    imaginary part.  If both roots are numerically real, the point is
    re-evaluated slightly higher in the half plane and the root is selected
    by continuity.

    Raises:
        BranchAmbiguity: both roots claim the upper half plane, or the
            continuity fallback cannot separate them.
    """
    av = tail.alpha(z)
    bv = tail.beta(z)
    gv = tail.gamma(z)
    if av == 0:
        if bv == 0:
            raise DivisionByZero("quadratic degenerates at evaluation point")
        return -gv / bv
    disc = bv * bv - 4 * av * gv
    root = disc ** 0.5
    r1 = (-bv + root) / (2 * av)
    r2 = (-bv - root) / (2 * av)

    im1, im2 = r1.imag, r2.imag
    if im1 > _IM_CUTOFF and im2 <= _IM_CUTOFF:
        return r1
    if im2 > _IM_CUTOFF and im1 <= _IM_CUTOFF:
        return r2
    if im1 > _IM_CUTOFF and im2 > _IM_CUTOFF:
        raise BranchAmbiguity(f"both roots lie in the upper half plane at z={z}")
    if _nudged:
        raise BranchAmbiguity(f"branch selection failed to converge at z={z}")
    # Both roots numerically real: nudge upward and select by continuity.
    reference = eval_periodic_m(tail, z + 1j * _CONTINUITY_STEP, _nudged=True)
    return r1 if abs(r1 - reference) <= abs(r2 - reference) else r2


def eval_m(prep: Prepared, z):
    """The eventually periodic function at z (Im z > 0).

    Evaluates the periodic tail by `eval_periodic_m` on `prep.tail`, then
    folds the preperiodic pairs around it with `fold_preperiodic`.
    """
    return fold_preperiodic(prep.seq, eval_periodic_m(prep.tail, z), z)


def fold_preperiodic(seq: JacobiSequence, value, z):
    """Wrap the tail value at z in the preperiodic levels of `seq`.

    Applies value -> 1/(b - z - a^2 * value) for the preperiodic pairs from
    last to first, so a caller that already holds the periodic tail's value
    gets M(z) without solving the tail again.
    """
    for q in reversed(seq.preperiodic):
        den = q.b - z - q.a * q.a * value
        if den == 0:
            raise DivisionByZero(f"continued fraction level vanished at z={z}")
        value = 1 / den
    return value


def eval_truncated(seq: JacobiSequence, z, depth: int):
    """Finite truncation of the continued fraction with tail value 0.

    Runs in double precision: the k + p distinct pairs are converted to
    (float(b), float(a^2)) once per call, and the levels are folded in
    float/complex arithmetic.  For a builtin float or complex z this is
    bit-for-bit what the same loop over the exact pairs gives, because
    Fraction's mixed-type arithmetic converts to float as well.

    The fold stops at its cycle.  Levels at and above k repeat their pair
    with period p, so once the value at a periodic level j has the same
    bits as the value at level j + p, every shallower periodic level repeats
    too, and the value at level k + ((j - k) mod p) is the value at j.  The
    fold jumps there and finishes the remaining levels; the result is the
    bits the full `depth` levels give.
    """
    if depth < 1:
        raise InsufficientOrder(f"depth must be at least 1, got {depth}")
    table = [(float(q.b), float(q.a * q.a)) for q in seq.preperiodic + seq.periodic]
    k, p = seq.k, seq.p
    value = 0 * z
    below = [None] * p  # by (level - k) mod p: the value p levels further down
    level = depth  # levels level-1 .. 0 are still to be folded
    while level > k:
        level -= 1
        phase = (level - k) % p
        b, a2 = table[k + phase]
        value = 1 / (b - z - a2 * value)
        if value == below[phase] and _bits(value) == _bits(below[phase]):
            level = k + phase
            break
        below[phase] = value
    for b, a2 in reversed(table[:level]):
        value = 1 / (b - z - a2 * value)
    return value


def _bits(value) -> bytes:
    """The IEEE bits of a float or complex value (signed zeros differ)."""
    return struct.pack("<dd", value.real, value.imag)


def strip_identity_check(seq: JacobiSequence, count: int, z) -> float:
    """|direct - Moebius| for the stripped function at z.

    The stream with its first `count` pairs removed is evaluated two ways:
    directly via `eval_m` on the stripped sequence, and as the Moebius image
    of eval_m(seq, z) under the transfer matrix of the removed pairs.
    """
    if count < 1:
        raise InsufficientOrder(f"strip count must be at least 1, got {count}")
    removed = seq.pairs(count)
    direct = eval_m(prepare(strip(seq, count)), z)
    image = mobius_apply(conj_transfer(removed, count), eval_m(prepare(seq), z), z)
    return abs(direct - image)


@dataclass(frozen=True)
class ReverseObstructionReport:
    """Asymptotic test of whether 1/(ak^2 * Mtilde) behaves like an m-function.

    `decay_constant` is i*y*Mtilde(i*y) at the largest probe height, the
    last sample rather than a fitted limit; for an obstructed representation
    with one preperiodic pair (alpha_1, beta_1) over a one-pair period it
    approaches -1/(1 - alpha_1^2/a_p^2) as the height grows.
    """

    is_m_like: bool
    decay_constant: complex
    fit_deviation: float
    tail_magnitude: float


# The reverse probe's heights y (ascending) and its two acceptance bounds.
PROBE_HEIGHTS = (1e2, 1e3, 1e4)
FIT_TOLERANCE = 1e-4
TAIL_TOLERANCE = 1e-2


def reverse_asymptotics(seq: JacobiSequence) -> ReverseObstructionReport:
    """Probe the reversed identity numerically along z = i*y for large y.

    Evaluates w(z) = 1/(ak^2 * Mtilde(z)) at the heights y in PROBE_HEIGHTS
    and tests the m-function asymptotics w ~ -1/z: the imaginary part of
    i*y*w(i*y) + 1 must fit c/y with deviation below FIT_TOLERANCE, and the
    full modulus of i*y*w(i*y) + 1 at the largest height must stay below
    TAIL_TOLERANCE.  (The magnitude check matters: streams with symmetric
    b-entries can have an identically real i*y*w(i*y) + 1, which would make
    the imaginary-part fit pass vacuously.)

    A purely periodic sequence is first rewritten with one explicit period
    as its preperiodic block.  A nonempty preperiodic block is used exactly
    as given, even when it does not end with the last periodic pair: the
    whole point of the probe is to detect such representations.

    Raises:
        NumericInstability: the evaluation points hit a pole of the relation.
    """
    if seq.k == 0:
        seq = normalize_kp(seq)
    prep = prepare(seq)
    relation = prep.relation
    if relation.alpha.is_zero() or relation.gamma.is_zero():
        raise DegenerateRelation("relation for M degenerated")
    ak2 = float(prep.ak2)

    g_values = []
    decay = complex(0.0)
    try:
        for y in PROBE_HEIGHTS:
            z = complex(0.0, y)
            m_val = eval_m(prep, z)
            second = second_solution_value(relation, m_val, z)
            w = 1.0 / (ak2 * second)
            g_values.append(1j * y * w + 1.0)
            decay = 1j * y * second
    except (DivisionByZero, ZeroDivisionError, OverflowError) as exc:
        raise NumericInstability(f"asymptotic probe failed: {exc}") from exc

    # least-squares fit of Im(g) ~ c/y over the sampled heights
    num = sum(g.imag / y for g, y in zip(g_values, PROBE_HEIGHTS))
    den = sum(1.0 / (y * y) for y in PROBE_HEIGHTS)
    c_hat = num / den if den else 0.0
    fit_deviation = max(abs(g.imag - c_hat / y) for g, y in zip(g_values, PROBE_HEIGHTS))
    tail_magnitude = abs(g_values[-1])
    is_m_like = fit_deviation < FIT_TOLERANCE and tail_magnitude < TAIL_TOLERANCE
    return ReverseObstructionReport(is_m_like, decay, fit_deviation, tail_magnitude)


# ---------------------------------------------------------------------------
# exact truncated Laurent series at infinity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentSeries:
    """Expansion -c_1/z - c_2/z^2 - ... - c_N/z^N at infinity, exact c_j."""

    coefficients: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def c(self, j: int) -> Fraction:
        """The j-th coefficient, 1-based."""
        if not 1 <= j <= self.order:
            raise InsufficientOrder(f"series has order {self.order}, asked for c_{j}")
        return self.coefficients[j - 1]


def laurent_of_quadratic(relation: QuadraticRelation, order: int) -> LaurentSeries:
    """Expansion of the decaying branch of the quadratic at infinity.

    Substituting y = -sum c_j z^-j into alpha*y^2 + beta*y + gamma = 0 gives
    alpha*c^2 - beta*c + gamma = 0 for c = sum c_j z^-j.  With d = deg beta,
    the coefficient of z^(d-n) in it is

        gamma_(d-n) - sum_(j<=n) beta_(d-n+j) c_j
                    + sum_(2<=m<=n) alpha_(d-n+m) (c^2)_m = 0,

    where (c^2)_m = sum_(i<m) c_i c_(m-i) needs only c_1..c_(m-1).  The
    system is triangular: one forward pass over n = 1..order solves it for
    c_n, keeping the coefficients of c^2 in a running list, in O(order^2)
    exact operations.

    The decaying branch exists and is unique when deg beta >= deg alpha
    and deg gamma <= deg beta - 1; anything else fails the leading balance.

    Raises:
        InsufficientOrder: order < 1.
        DegenerateRelation: no unique decaying branch.
    """
    if order < 1:
        raise InsufficientOrder(f"order must be at least 1, got {order}")
    al, be, ga = relation.alpha, relation.beta, relation.gamma
    if be.is_zero() or be.degree < al.degree or ga.degree > be.degree - 1:
        raise DegenerateRelation(
            "leading balance failed: no unique branch decaying at infinity"
        )
    d = be.degree
    c = [Fraction(0)]  # c[j] is c_j; index 0 pads the 1-based numbering
    sq = [Fraction(0)]  # sq[m] is (c^2)_m
    for n in range(1, order + 1):
        sq.append(sum(c[i] * c[n - i] for i in range(1, n)))
        low = max(1, n - d)  # beta_(d-n+j) and alpha_(d-n+m) vanish below
        total = ga.coeffs[d - n] if 0 <= d - n <= ga.degree else 0
        total -= sum(be.coeffs[d - n + j] * c[j] for j in range(low, n))
        total += sum(
            al.coeffs[d - n + m] * sq[m]
            for m in range(max(2, low), min(n, n - d + al.degree) + 1)
        )
        c.append(total / be.coeffs[d])
    return LaurentSeries(tuple(c[1:]))


@dataclass(frozen=True)
class RecoveredPair:
    """One recovered coefficient pair.

    `a_sq` and `b` are exact.  `a` is the exact square root when a_sq is a
    rational square (a_exact True), otherwise a float approximation.
    """

    a_sq: Fraction
    b: Fraction
    a: Fraction | float
    a_exact: bool

    @property
    def pair(self) -> JacobiPair:
        if not self.a_exact:
            raise NotAnMFunction(
                f"a^2 = {self.a_sq} is not a rational square; no exact pair exists"
            )
        return JacobiPair(self.a, self.b)


def recover_coefficients(series: LaurentSeries, count: int) -> list[RecoveredPair]:
    """Read the first `count` coefficient pairs off an m-function expansion.

    The c_j are the moments of the spectral measure, mu_k = c_(k+1), and
    the pairs are the recurrence coefficients of its monic orthogonal
    polynomials, p_(k+1) = (x - alpha_k) p_k - beta_k p_(k-1): pair j is
    b_j = alpha_(j-1) and a_j^2 = beta_j.  Chebyshev's algorithm (Gautschi,
    SIAM J. Sci. Stat. Comput. 1982) computes them from the mixed moments
    sigma_(k,l) = <p_k, x^l>, with sigma_(0,l) = mu_l and sigma_(-1,l) = 0:

        sigma_(k,l) = sigma_(k-1,l+1) - alpha_(k-1) sigma_(k-1,l)
                      - beta_(k-1) sigma_(k-2,l),
        alpha_k = sigma_(k,k+1)/sigma_(k,k) - sigma_(k-1,k)/sigma_(k-1,k-1),
        beta_k = sigma_(k,k)/sigma_(k-1,k-1).

    That is O(count^2) exact operations, and pair `count` reads mu_(2 count),
    so the series needs order >= 2*count + 1.  Each a^2 is checked before
    anything divides by it.

    Raises:
        InsufficientOrder: the series is too short for `count` pairs.
        NotAnMFunction: c_1 != 1, or some recovered a^2 <= 0.
    """
    if count < 1:
        raise InsufficientOrder(f"count must be at least 1, got {count}")
    width = 2 * count + 1
    if series.order < width:
        raise InsufficientOrder(
            f"recovering {count} pairs needs order >= {width}, have {series.order}"
        )
    mu = series.coefficients
    if mu[0] != 1:
        raise NotAnMFunction(f"leading coefficient c_1 = {mu[0]} != 1")
    # rows of sigma indexed by l; row k is only read at l = k..width-1-k
    older = [Fraction(0)] * width
    prev = list(mu[:width])
    b, beta = mu[1], Fraction(0)  # alpha_0 = mu_1/mu_0 with mu_0 = 1
    out: list[RecoveredPair] = []
    for k in range(1, count + 1):
        cur = [Fraction(0)] * k + [
            prev[l + 1] - b * prev[l] - beta * older[l] for l in range(k, width - k)
        ]
        a_sq = cur[k] / prev[k - 1]
        if a_sq <= 0:
            raise NotAnMFunction(f"recovered a^2 = {a_sq} is not positive")
        root = rational_sqrt(a_sq)
        a = math.sqrt(a_sq.numerator / a_sq.denominator) if root is None else root
        out.append(RecoveredPair(a_sq, b, a, root is not None))
        if k < count:
            b = cur[k + 1] / cur[k] - prev[k] / prev[k - 1]
        older, prev, beta = prev, cur, a_sq
    return out
