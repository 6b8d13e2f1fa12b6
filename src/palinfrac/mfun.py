"""Numeric evaluation of m-functions and exact Laurent-series machinery.

Evaluation side: a purely periodic function is evaluated by solving its
fixed-point quadratic at the point and selecting the root in the upper half
plane; an eventually periodic function wraps that value in finitely many
continued-fraction levels.  A depth-limited truncation evaluator provides an
independent cross-check, and `strip_identity_check` compares direct
evaluation of a shifted stream against the Moebius image of the original.

Series side: expansions at infinity are written as

    m(z) = -c_1/z - c_2/z^2 - ... - c_N/z^N + O(z^-(N+1))

with exact rational c_j.  `laurent_of_quadratic` extracts the decaying
branch of a quadratic relation by a triangular fixed-point substitution, and
`recover_coefficients` walks the expansion back to continued-fraction pairs
by repeated stripping: read b_1 and a_1^2 from the first moments, pass to
(b_1 - z - 1/m)/a_1^2, repeat.  Each recovered pair consumes two orders of
the expansion, so n pairs need order at least 2n+1.

All series arithmetic is exact and tracks its own validity floor, so a
coefficient is either correct or reported as out of range; nothing is ever
silently approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BranchAmbiguity,
    DegenerateRelation,
    DivisionByZero,
    InsufficientOrder,
    NotAnMFunction,
)
from .exactalg import Poly, mobius_apply
from .jacobi import JacobiPair, JacobiSequence, strip
from .orthopoly import conj_transfer
from .quadratic import Prepared, QuadraticRelation, prepare


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
    (float(b), float(a^2)) once per call, and the `depth` levels are folded
    in float/complex arithmetic.  For a builtin float or complex z this is
    bit-for-bit what the same loop over the exact pairs gives, because
    Fraction's mixed-type arithmetic converts to float as well.
    """
    if depth < 1:
        raise InsufficientOrder(f"depth must be at least 1, got {depth}")
    table = [(float(q.b), float(q.a * q.a)) for q in seq.preperiodic + seq.periodic]
    k = seq.k
    unrolled = (table[:k] + table[k:] * (depth // seq.p + 1))[:depth]
    value = 0 * z
    for b, a2 in reversed(unrolled):
        value = 1 / (b - z - a2 * value)
    return value


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


# ---------------------------------------------------------------------------
# exact truncated Laurent series at infinity
# ---------------------------------------------------------------------------


class _Series:
    """Truncated Laurent series at infinity with validity tracking.

    `terms` maps exponents to nonzero Fractions.  `floor_o` is the highest
    exponent at which the series is NOT known: every stored or implied
    coefficient at exponents above floor_o is exact, everything at or below
    is unknown.  Operations propagate floor_o conservatively, so a read
    above the floor is always trustworthy.
    """

    __slots__ = ("terms", "floor_o")

    def __init__(self, terms: dict[int, Fraction], floor_o: int):
        self.terms = {e: c for e, c in terms.items() if e > floor_o and c != 0}
        self.floor_o = floor_o

    @staticmethod
    def from_poly(poly: Poly, floor_o: int) -> "_Series":
        return _Series({i: c for i, c in enumerate(poly.coeffs)}, floor_o)

    def top(self) -> int | None:
        return max(self.terms) if self.terms else None

    def coeff(self, exponent: int) -> Fraction:
        if exponent <= self.floor_o:
            raise InsufficientOrder(
                f"coefficient at z^{exponent} lies below the validity floor"
            )
        return self.terms.get(exponent, Fraction(0))

    def add(self, other: "_Series") -> "_Series":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return _Series(out, max(self.floor_o, other.floor_o))

    def neg(self) -> "_Series":
        return _Series({e: -c for e, c in self.terms.items()}, self.floor_o)

    def sub(self, other: "_Series") -> "_Series":
        return self.add(other.neg())

    def scale(self, factor: Fraction) -> "_Series":
        if factor == 0:
            return _Series({}, self.floor_o)
        return _Series({e: c * factor for e, c in self.terms.items()}, self.floor_o)

    def shift(self, offset: int) -> "_Series":
        return _Series(
            {e + offset: c for e, c in self.terms.items()}, self.floor_o + offset
        )

    def mul(self, other: "_Series") -> "_Series":
        # Unknown tails pollute products below known_top + other.floor_o.
        candidates = [self.floor_o + other.floor_o]
        if self.terms:
            candidates.append(max(self.terms) + other.floor_o)
        if other.terms:
            candidates.append(max(other.terms) + self.floor_o)
        floor_o = max(candidates)
        out: dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e > floor_o:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return _Series(out, floor_o)

    def inverse(self) -> "_Series":
        """Reciprocal, valid as deep as the input allows."""
        t = self.top()
        if t is None:
            raise DegenerateRelation("cannot invert a series with no known terms")
        lead = self.terms[t]
        # self = lead * z^t * (1 + u) with top(u) <= -1
        u = self.scale(1 / lead).shift(-t)
        u = u.sub(_Series({0: Fraction(1)}, u.floor_o))
        acc = _Series({0: Fraction(1)}, u.floor_o)
        term = _Series({0: Fraction(1)}, u.floor_o)
        neg_u = u.neg()
        while True:
            term = term.mul(neg_u)
            term_top = term.top()
            if term_top is None or term_top <= acc.floor_o:
                break
            acc = acc.add(term)
        return acc.shift(-t).scale(1 / lead)


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

    Substituting y = -sum c_j z^-j into alpha*y^2 + beta*y + gamma = 0 and
    matching coefficients is triangular; the substitution is iterated as
    y <- -(gamma + alpha*y^2)/beta in exact truncated series arithmetic
    until the first `order` coefficients stabilize.

    The decaying branch exists and is unique when deg beta >= deg alpha
    and deg gamma <= deg beta - 1; anything else fails the leading balance.

    Raises:
        DegenerateRelation: no unique decaying branch, or the substitution
            fails to stabilize.
    """
    if order < 1:
        raise InsufficientOrder(f"order must be at least 1, got {order}")
    al, be, ga = relation.alpha, relation.beta, relation.gamma
    if be.is_zero() or be.degree < al.degree or ga.degree > be.degree - 1:
        raise DegenerateRelation(
            "leading balance failed: no unique branch decaying at infinity"
        )
    window = -(order + be.degree + 6)
    al_s = _Series.from_poly(al, window)
    be_inv = _Series.from_poly(be, window).inverse()
    ga_s = _Series.from_poly(ga, window)

    def read(series: _Series) -> tuple[Fraction, ...]:
        return tuple(series.coeff(-j) for j in range(1, order + 1))

    y = _Series({}, window)
    previous = None
    for _ in range(2 * order + 10):
        y = ga_s.add(al_s.mul(y).mul(y)).mul(be_inv).neg()
        if y.floor_o <= -(order + 1):
            current = read(y)
            if current == previous:
                break
            previous = current
    else:
        raise DegenerateRelation("series substitution failed to stabilize")

    top = y.top()
    if top is not None and top >= 0:
        raise DegenerateRelation("computed branch does not decay at infinity")
    return LaurentSeries(tuple(-y.coeff(-j) for j in range(1, order + 1)))


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


def _sqrt_if_square(value: Fraction) -> tuple[Fraction | float, bool]:
    n, d = value.numerator, value.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd), True
    return math.sqrt(n / d), False


def recover_coefficients(series: LaurentSeries, count: int) -> list[RecoveredPair]:
    """Read the first `count` coefficient pairs off an m-function expansion.

    Iterated stripping: with the expansion of the current level in hand,
    b = c_2 and a^2 = c_3 - c_2^2, and the next level is
    (b - z - 1/m) / a^2.  Requires order >= 2*count + 1.

    Raises:
        InsufficientOrder: the series is too short for `count` pairs.
        NotAnMFunction: c_1 != 1 at some level, or some recovered a^2 <= 0.
    """
    if count < 1:
        raise InsufficientOrder(f"count must be at least 1, got {count}")
    if series.order < 2 * count + 1:
        raise InsufficientOrder(
            f"recovering {count} pairs needs order >= {2 * count + 1}, have {series.order}"
        )
    current = _Series(
        {-j: -c for j, c in enumerate(series.coefficients, start=1)},
        -(series.order + 1),
    )
    z_poly = _Series({1: Fraction(1)}, current.floor_o)
    out: list[RecoveredPair] = []
    for _ in range(count):
        if current.coeff(-1) != -1:
            raise NotAnMFunction(
                f"leading coefficient c_1 = {-current.coeff(-1)} != 1"
            )
        b = -current.coeff(-2)
        a_sq = -current.coeff(-3) - current.coeff(-2) ** 2
        if a_sq <= 0:
            raise NotAnMFunction(f"recovered a^2 = {a_sq} is not positive")
        a, exact = _sqrt_if_square(a_sq)
        out.append(RecoveredPair(a_sq, b, a, exact))
        offset = _Series({0: b}, current.floor_o)
        current = offset.sub(z_poly).sub(current.inverse()).scale(1 / a_sq)
    return out
