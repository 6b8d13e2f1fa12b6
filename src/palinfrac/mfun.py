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
the c_j.  Both are exact and fraction-free in the way `Poly` is (von zur
Gathen and Gerhard, *Modern Computer Algebra*, ch. 6): integer lists over
one denominator, reduced once per c_n or per pair.  The only approximation
is the float square root of an a^2 that is not a rational square.
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
from .jacobi import JacobiSequence, normalize_kp
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


@frozen
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

    Raises:
        InsufficientOrder: order < 1.
        DegenerateRelation: no unique decaying branch (`_decaying_relation`).
    """
    if order < 1:
        raise InsufficientOrder(f"order must be at least 1, got {order}")
    d, A, B, G = _decaying_relation(relation)
    D = 1  # lcm of the denominators of c_1 .. c_(n-1)
    X = [0]  # X[j] = c_j * D; index 0 pads the 1-based numbering
    Y = [0]  # Y[m] = (c^2)_m * D^2
    c: list[Fraction] = []
    for n in range(1, order + 1):
        Y.append(sum(X[i] * X[n - i] for i in range(1, n)))
        low = max(1, n - d)  # B[d-n+j] and A[d-n+m] vanish below
        total = G[d - n] * D * D if n <= d else 0
        total -= D * sum(B[d - n + j] * X[j] for j in range(low, n))
        total += sum(A[d - n + m] * Y[m] for m in range(max(2, low), n + 1))
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
