"""Numeric evaluation of m-functions and exact Laurent-series machinery.

Evaluation side: everything is read off the pairs.  A purely periodic
function is the fixed point of its period's product of level maps that
lies in the upper half plane, and an eventually periodic function wraps
it in its preperiodic levels.  A depth-limited truncation evaluator
cross-checks them, and `strip_identity_check` compares direct evaluation
of a shifted stream against the Moebius image of the original.
`reverse_asymptotics` decides exactly, from the leading coefficients of M's
relation, whether 1/(ak^2 * Mtilde) decays like an m-function at infinity.

Series side: expansions at infinity are written as

    m(z) = -c_1/z - c_2/z^2 - ... - c_N/z^N + O(z^-(N+1))

with exact rational c_j.  `laurent_of_quadratic` extracts the decaying
branch of a quadratic relation by solving the triangular coefficient system
in one forward pass, and `recover_coefficients` reads the continued-fraction
pairs back with Chebyshev's algorithm, since c_j is the (j-1)-th moment of
the spectral measure.  Both take O(N^2) operations, and both are
fraction-free in the way `Poly` is (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 6): the inner sums run on Python ints over one
shared denominator, and only the result is reduced, once per coefficient
c_n or once per row of mixed moments, instead of one gcd per rational
operation.  Each recovered pair consumes two orders of the expansion, so n
pairs need order at least 2n+1.

All series arithmetic is exact; the only approximation is the float square
root reported for an a^2 that is not a rational square.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BranchAmbiguity,
    DegenerateRelation,
    DivisionByZero,
    InsufficientOrder,
    NotAnMFunction,
)
from .exactalg import mobius_apply, rational_sqrt
from .jacobi import JacobiPair, JacobiSequence, normalize_kp, strip
from .orthopoly import conj_transfer
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
    for b, a2 in _levels(seq, z, periodic=True):
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


def _levels(seq: JacobiSequence, z, periodic: bool) -> tuple:
    """(b, a^2) of the period's or the block's pairs, in the arithmetic of z.

    A builtin float or complex point reads the sequence's float table, with
    the bits and OverflowErrors of the exact pairs (mixed Fraction
    arithmetic converts through float() too); other points, the exact pairs.
    """
    if type(z) in (float, complex):
        return seq.float_pairs[seq.k :] if periodic else seq.float_preperiodic
    return tuple((q.b, q.a * q.a) for q in (seq.periodic if periodic else seq.preperiodic))


def eval_m(seq: JacobiSequence, z):
    """The eventually periodic function at z (Im z > 0): the tail, folded."""
    return fold_preperiodic(seq, eval_periodic_m(seq, z), z)


def fold_preperiodic(seq: JacobiSequence, value, z):
    """Wrap the tail value at z in the preperiodic levels of `seq`, last first.

    A caller that holds the periodic tail's value gets M(z) without solving
    the tail again.
    """
    for b, a2 in reversed(_levels(seq, z, periodic=False)):
        den = b - z - a2 * value
        if den == 0:
            raise DivisionByZero(f"continued fraction level vanished at z={z}")
        value = 1 / den
    return value


def eval_truncated(seq: JacobiSequence, z, depth: int):
    """Finite truncation of the continued fraction with tail value 0.

    Runs in double precision: the levels read `seq.float_pairs`, the k + p
    distinct pairs converted to (float(b), float(a^2)) once per sequence,
    and are folded in float/complex arithmetic.  For a builtin float or
    complex z this is bit-for-bit what the same loop over the exact pairs
    gives, because Fraction's mixed-type arithmetic converts to float as
    well.

    The fold stops at its cycle.  Levels at and above k repeat their pair
    with period p, so once the value at a periodic level j has the same
    bits as the value at level j + p, every shallower periodic level repeats
    too, and the value at level k + ((j - k) mod p) is the value at j.  The
    fold jumps there and finishes the remaining levels; the result is the
    bits the full `depth` levels give.
    """
    if depth < 1:
        raise InsufficientOrder(f"depth must be at least 1, got {depth}")
    table = seq.float_pairs
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
    direct = eval_m(strip(seq, count), z)
    image = mobius_apply(conj_transfer(removed, count), eval_m(seq, z), z)
    return abs(direct - image)


@dataclass(frozen=True)
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

    A purely periodic sequence is first rewritten with one explicit period
    as its preperiodic block.  A nonempty preperiodic block is used exactly
    as given, even when it does not end with the last periodic pair: the
    whole point of the test is to detect such representations.  alpha and
    gamma are never zero (the `quadratic` module docstring proves it).
    """
    if seq.k == 0:
        seq = normalize_kp(seq)
    prep = prepare(seq)
    al, ga = prep.relation.alpha, prep.relation.gamma
    gap = al.degree - ga.degree
    is_m_like = gap == 0 and al.leading == prep.ak2 * ga.leading
    decay = -ga.leading / al.leading if gap == 2 else None
    return ReverseObstructionReport(is_m_like, decay)


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
    operations.

    The pass runs on integers.  The relation is cleared to integer A, B, G
    over the lcm of its three denominators.  With D the lcm of the
    denominators of c_1..c_(n-1), the running lists hold X_j = c_j*D and
    Y_m = (c^2)_m*D^2, so step n forms one integer

        T = G_(d-n)*D^2 - D*sum B_(d-n+j) X_j + sum A_(d-n+m) Y_m

    and c_n = T/(lc(B)*D^2) is the step's only gcd reduction.  When c_n
    brings a new factor f into D, the lists are rescaled by f and f^2.
    D is the denominator the reduced coefficients need, so the integers
    stay near the size of the c_j themselves; scaling by a fixed power of
    lc(B) instead would let them grow with lc(B)^(2n).

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
    den = math.lcm(al.den, be.den, ga.den)
    A, B, G = ([n * (den // t.den) for n in t.num] for t in (al, be, ga))
    D = 1  # lcm of the denominators of c_1 .. c_(n-1)
    X = [0]  # X[j] = c_j * D; index 0 pads the 1-based numbering
    Y = [0]  # Y[m] = (c^2)_m * D^2
    c: list[Fraction] = []
    for n in range(1, order + 1):
        Y.append(sum(X[i] * X[n - i] for i in range(1, n)))
        low = max(1, n - d)  # B[d-n+j] and A[d-n+m] vanish below
        total = G[d - n] * D * D if 0 <= d - n < len(G) else 0
        total -= D * sum(B[d - n + j] * X[j] for j in range(low, n))
        total += sum(
            A[d - n + m] * Y[m]
            for m in range(max(2, low), min(n, n - d + al.degree) + 1)
        )
        cn = Fraction(total, B[d] * D * D)
        c.append(cn)
        grow = cn.denominator // math.gcd(D, cn.denominator)
        if grow != 1:
            D *= grow
            X = [x * grow for x in X]
            grow *= grow
            Y = [y * grow for y in Y]
        X.append(cn.numerator * (D // cn.denominator))
    return LaurentSeries(tuple(c))


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

    That is O(count^2) operations, and pair `count` reads mu_(2 count), so
    the series needs order >= 2*count + 1.  Each a^2 is checked before
    anything divides by it.

    Each row of sigma is held as integer numerators over one positive
    denominator.  With b = alpha_(k-1) and beta = beta_(k-1) as reduced
    fractions, the next row's numerators over the lcm of the two products
    of denominators take three integer multipliers, as in
    `exactalg.shift_add`, and the row is reduced once by the gcd of its
    denominator and numerators.  Only a^2 and the next b are formed as
    Fractions, two per row.

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
    # rows of sigma indexed by l, as integer numerators over one positive
    # denominator; row k is only read at l = k..width-1-k
    pd = math.lcm(*(m.denominator for m in mu[:width]))
    prev = [m.numerator * (pd // m.denominator) for m in mu[:width]]
    older, od = [0] * width, 1
    b, beta = mu[1], Fraction(0)  # alpha_0 = mu_1/mu_0 with mu_0 = 1
    out: list[RecoveredPair] = []
    for k in range(1, count + 1):
        # prev[l+1] - b*prev[l] - beta*older[l] over lcm(bd*pd, ed*od)
        bn, bd, en, ed = b.numerator, b.denominator, beta.numerator, beta.denominator
        left, right = bd * pd, ed * od
        g = math.gcd(left, right)
        up, keep, drop = right // g * bd, right // g * bn, left // g * en
        nums = [
            up * prev[l + 1] - keep * prev[l] - drop * older[l]
            for l in range(k, width - k)
        ]
        cd = left // g * right
        g = math.gcd(cd, *nums)
        cd //= g
        cur = [0] * k + [n // g for n in nums]
        a_sq = Fraction(cur[k] * pd, cd * prev[k - 1])
        if a_sq <= 0:
            raise NotAnMFunction(f"recovered a^2 = {a_sq} is not positive")
        root = rational_sqrt(a_sq)
        a = math.sqrt(a_sq.numerator / a_sq.denominator) if root is None else root
        out.append(RecoveredPair(a_sq, b, a, root is not None))
        if k < count:
            b = Fraction(
                cur[k + 1] * prev[k - 1] - prev[k] * cur[k], cur[k] * prev[k - 1]
            )
        older, od, prev, pd, beta = prev, pd, cur, cd, a_sq
    return out
