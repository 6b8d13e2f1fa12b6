"""Numeric evaluation, Laurent expansions, and coefficient recovery."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from palinfrac import (
    DegenerateRelation,
    DivisionByZero,
    InsufficientOrder,
    JacobiSequence,
    NotAnMFunction,
    PalinfracError,
    Poly,
    QuadraticRelation,
    RecoveredPair,
    eval_m,
    eval_periodic_m,
    eval_truncated,
    fold_preperiodic,
    laurent_of_quadratic,
    mobius_apply,
    normalize_kp,
    pair,
    periodic_quadratic,
    prepare,
    recover_coefficients,
    second_solution_value,
    sequence,
)
from palinfrac.cli import MAX_ORDER, main
from palinfrac.exactalg import rational_sqrt
from palinfrac.mfun import _decaying_relation
from palinfrac.orthopoly import build_T1, build_T3
from conftest import (
    brute_splits,
    doubly_palindromic_period,
    purely_periodic,
    random_periodic,
    reversed_periodic,
    strip_identity_check,
    unrolled,
)

CHEBYSHEV = [pair(1, 0)]


def test_periodic_m_closed_form_point():
    value = eval_periodic_m(purely_periodic(CHEBYSHEV), 2j)
    assert abs(value - 1j * (2**0.5 - 1)) < 1e-12


def test_periodic_m_is_herglotz():
    rng = random.Random(501)
    for _ in range(50):
        periodic = random_periodic(rng, rng.randint(1, 5), max_mag=6)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        assert eval_periodic_m(purely_periodic(periodic), z).imag > 0


def test_periodic_m_decays_like_inverse_z():
    rng = random.Random(502)
    for _ in range(10):
        periodic = random_periodic(rng, rng.randint(1, 4), max_mag=5)
        value = eval_periodic_m(purely_periodic(periodic), 1e4j)
        assert abs(1e4j * value + 1) < 1e-3


def test_periodic_m_degenerates_where_the_quadratic_does():
    # for a = (1, 1), b = (1, 0) the one-period transfer matrix at z = 0 has
    # B = 0 and D = A, so beta = gamma = 0 and both roots are 0/0.  This
    # needs B = 0 or C = 0, and both have real zeros only (a^2 > 0), so no
    # point with Im z > 0, the only points the CLI takes, reaches it
    seq = purely_periodic([pair(1, 1), pair(1, 0)])
    for z in (0.0, 0j, 0):
        with pytest.raises(DivisionByZero, match="^quadratic degenerates at evaluation point$"):
            eval_periodic_m(seq, z)


def test_periodic_m_branch_fallback_off_spectrum():
    # real z outside the band: both roots are real, continuity picks the
    # decaying one, here m(3) = (-3 + sqrt(5))/2
    value = eval_periodic_m(purely_periodic(CHEBYSHEV), 3.0 + 0j)
    assert abs(value - (-3 + 5**0.5) / 2) < 1e-9


def _mpmath_m(mpmath, seq, z):
    """M(z) from the period's Moebius map in mpmath, not from the relation.

    Each level is v -> 1/(b - z - a^2 v), the matrix [[0, 1], [-a^2, b - z]];
    the period's product [[A, B], [C, D]] fixes m when
    C m^2 + (D - A) m - B = 0, and m is the root with Im m > 0.
    """

    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator

    A, B, C, D = 1, 0, 0, 1
    for q in seq.periodic:
        a2, d = mp(q.a) ** 2, mp(q.b) - z
        A, B, C, D = -B * a2, A + B * d, -D * a2, C + D * d
    root = mpmath.sqrt((D - A) ** 2 + 4 * B * C)
    value = max(((A - D + root) / (2 * C), (A - D - root) / (2 * C)), key=lambda r: r.imag)
    for q in reversed(seq.preperiodic):
        value = 1 / (mp(q.b) - z - mp(q.a) ** 2 * value)
    return value


def test_periodic_m_matches_mpmath_at_every_height():
    # the textbook root formula cancels at large |z|, and near the real axis
    # Im m is tiny (about 1e-24 at 1e12 + i), so heights run to 1e12 along
    # i*y and along y + i; the tail's expanded coefficients overflowed there
    # from 1e7 at p = 24 and from 1e4 at p = 48, the level maps do not.
    # Near the axis, at heights 1e-2 down to 1e-330 (below the smallest
    # subnormal, so the float point is real), m and M keep 8 digits
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(1601)
    with mpmath.workdps(60):
        for n in range(30):
            seq = JacobiSequence(
                tuple(random_periodic(rng, rng.randint(0, 3))),
                tuple(random_periodic(rng, rng.randint(1, 12) if n < 24 else (24, 48)[n % 2])),
            )
            tail = JacobiSequence((), seq.periodic)
            points = [
                (complex(0, 10.0**e), mpmath.mpc(0, 10.0**e), 1e-13) for e in range(13)
            ] + [(complex(10.0**e, 1), mpmath.mpc(10.0**e, 1), 1e-13) for e in range(13)]
            for _ in range(8):
                x, u = rng.uniform(-4, 4), rng.uniform(2, 330)
                points.append((complex(x, 10.0**-u), mpmath.mpc(x, mpmath.mpf(10) ** -u), 1e-8))
            for z, zm, bound in points:
                for got, exact in (
                    (eval_periodic_m(seq, z), _mpmath_m(mpmath, tail, zm)),
                    (eval_m(seq, z), _mpmath_m(mpmath, seq, zm)),
                ):
                    assert abs(got - exact) <= bound * abs(exact), (seq, z)


def test_periodic_m_is_finite_where_the_expanded_tail_overflowed(capsys):
    # Horner on the expanded tail passed 1e308 on a p = 48 period at 1e8*i;
    # with a = 1e-200 the tail's coefficients hold 1e400 and its discriminant
    # overflowed at z0.  The level maps give both values, and `eval` answers
    mpmath = pytest.importorskip("mpmath")
    path = str(Path(__file__).parent / "data" / "verify_branch_failure.json")
    with mpmath.workdps(60):
        for seq, z in (
            (purely_periodic(random_periodic(random.Random(1602), 48)), 1e8j),
            (sequence([], [("1e-200", 0), (1, 0), (1, 0)]), 0.37 + 1.31j),
        ):
            seq = normalize_kp(seq)
            zm = mpmath.mpc(z.real, z.imag)
            exact = _mpmath_m(mpmath, JacobiSequence((), seq.periodic), zm)
            assert abs(eval_periodic_m(seq, z) - exact) <= 1e-13 * abs(exact)
            exact = _mpmath_m(mpmath, seq, zm)
            assert abs(eval_m(seq, z) - exact) <= 1e-13 * abs(exact)
        assert main(["eval", "--input", path, "--points=0.37,1.31", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["points"][0]
        seq = normalize_kp(sequence([], [("1e-200", 0), (1, 0), (1, 0)]))
        exact = _mpmath_m(mpmath, seq, mpmath.mpc(0.37, 1.31))
        assert abs(complex(row["M"]) - exact) <= 1e-11 * abs(exact)


def test_eval_m_empty_preperiodic_matches_tail():
    rng = random.Random(503)
    periodic = random_periodic(rng, 3)
    seq = purely_periodic(periodic)
    z = 0.4 + 1.2j
    assert eval_m(seq, z) == eval_periodic_m(seq, z)


def test_eval_m_is_stream_function():
    # same stream, different representations
    z = 0.3 + 1.1j
    plain = sequence([], [(1, 0)])
    padded = sequence([(1, 0)], [(1, 0)])
    assert abs(eval_m(plain, z) - eval_m(padded, z)) < 1e-12


def test_eval_m_matches_truncation():
    rng = random.Random(504)
    for _ in range(20):
        seq = JacobiSequence(
            tuple(random_periodic(rng, rng.randint(0, 3), max_mag=10)),
            tuple(random_periodic(rng, rng.randint(1, 6), max_mag=10)),
        )
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        assert abs(eval_m(seq, z) - eval_truncated(seq, z, 2000)) < 1e-8


def test_truncated_depth_one():
    seq = sequence([], [(2, 5)])
    z = 0.7 + 0.9j
    assert eval_truncated(seq, z, 1) == 1 / (5 - z)


def test_truncated_converges_to_closed_form():
    seq = purely_periodic(CHEBYSHEV)
    exact = 1j * (2**0.5 - 1)
    assert abs(eval_truncated(seq, 2j, 60) - exact) < 1e-10


def test_truncated_error_decays_with_depth():
    seq = purely_periodic(CHEBYSHEV)
    exact = eval_periodic_m(purely_periodic(CHEBYSHEV), 2j)
    errors = [abs(eval_truncated(seq, 2j, d) - exact) for d in (1, 5, 10)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-7


def test_truncated_rejects_zero_depth():
    with pytest.raises(InsufficientOrder):
        eval_truncated(purely_periodic(CHEBYSHEV), 2j, 0)


def test_strip_full_period_is_identity():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(505)
    with mpmath.workdps(40):
        for _ in range(10):
            p = rng.randint(1, 5)
            seq = purely_periodic(random_periodic(rng, p, max_mag=6))
            z = mpmath.mpc(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            assert strip_identity_check(seq, p, z) < 1e-9


def test_strip_identity_random_instances():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(506)
    with mpmath.workdps(40):
        for _ in range(30):
            seq = JacobiSequence(
                tuple(random_periodic(rng, rng.randint(0, 3), max_mag=8)),
                tuple(random_periodic(rng, rng.randint(1, 5), max_mag=8)),
            )
            count = rng.randint(1, 6)
            z = mpmath.mpc(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            assert strip_identity_check(seq, count, z) < 1e-9


def _m_minus_gap(periodic, ell: int, z) -> float:
    """|m_{ell+1} - m^-| at z: stripped stream vs index-reversed period."""
    stripped = eval_m(
        JacobiSequence((), tuple(periodic[ell + 1 :] + periodic[: ell + 1])), z
    )
    m_minus = eval_periodic_m(purely_periodic(reversed_periodic(periodic)), z)
    return abs(stripped - m_minus)


def test_stripped_equals_reversed_exactly_at_splits():
    rng = random.Random(507)
    for _ in range(10):
        p = rng.randint(3, 7)
        ell = rng.randint(1, p - 2)
        periodic = doubly_palindromic_period(rng, p, ell, max_mag=4)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2))
        assert _m_minus_gap(periodic, ell, z) < 1e-9


def test_stripped_differs_from_reversed_off_splits():
    rng = random.Random(508)
    checked = 0
    while checked < 10:
        p = rng.randint(3, 7)
        periodic = random_periodic(rng, p, max_mag=5)
        splits = set(brute_splits(periodic))
        candidates = [ell for ell in range(1, p - 1) if ell not in splits]
        if not candidates:
            continue
        ell = rng.choice(candidates)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 1.2))
        assert _m_minus_gap(periodic, ell, z) > 1e-3
        checked += 1


def test_step_one_identity():
    # the preperiodic matrix maps the full function to the periodic tail
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(509)
    with mpmath.workdps(40):
        for _ in range(10):
            seq = normalize_kp(purely_periodic(random_periodic(rng, rng.randint(1, 5), 6)))
            z = mpmath.mpc(rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2))
            lhs = mobius_apply(build_T1(seq), eval_m(seq, z), z)
            rhs = eval_periodic_m(purely_periodic(seq.periodic), z)
            assert abs(lhs - rhs) < 1e-8


def test_step_three_identity():
    # 1/(ak^2 Mtilde) equals the reversed-block matrix applied to m^-
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(510)
    with mpmath.workdps(40):
        for _ in range(10):
            p = rng.randint(3, 6)
            ell = rng.randint(1, p - 2)
            periodic = doubly_palindromic_period(rng, p, ell, max_mag=4)
            seq = normalize_kp(purely_periodic(periodic))
            relation = prepare(seq).relation
            ak = seq.preperiodic[-1].a
            z = mpmath.mpc(rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2))
            m_tilde = second_solution_value(relation, eval_m(seq, z), z)
            lhs = 1 / (Fraction(ak * ak) * m_tilde)
            m_minus = eval_periodic_m(purely_periodic(reversed_periodic(seq.periodic)), z)
            rhs = mobius_apply(build_T3(seq), m_minus, z)
            assert abs(lhs - rhs) < 1e-8


def test_laurent_catalan_series():
    series = laurent_of_quadratic(periodic_quadratic(CHEBYSHEV), 9)
    assert series == tuple(
        Fraction(c) for c in (1, 0, 1, 0, 2, 0, 5, 0, 14)
    )
    with pytest.raises(InsufficientOrder, match="^order must be at least 1, got 0$"):
        laurent_of_quadratic(periodic_quadratic(CHEBYSHEV), 0)


def test_laurent_leading_coefficient_is_one():
    rng = random.Random(511)
    for _ in range(15):
        periodic = random_periodic(rng, rng.randint(1, 5))
        series = laurent_of_quadratic(periodic_quadratic(periodic), 5)
        assert series[0] == 1


def _cleared_truncation_residual(relation, series) -> Poly:
    """z^2N * (alpha*y_N^2 + beta*y_N + gamma) as an exact polynomial."""
    order = len(series)
    u = Poly.from_coeffs([-c for c in reversed(series)])
    z_n = Poly.from_coeffs([0] * order + [1])
    return relation.alpha * u * u + relation.beta * u * z_n + relation.gamma * z_n * z_n


def test_laurent_truncation_residual_order():
    # the first neglected term enters through (2*alpha*y + beta), whose top
    # degree is deg beta, so the residual is O(z^(deg beta - (N+1)))
    rng = random.Random(512)
    for _ in range(10):
        periodic = random_periodic(rng, rng.randint(1, 4), max_mag=4)
        relation = periodic_quadratic(periodic)
        order = rng.randint(3, 8)
        series = laurent_of_quadratic(relation, order)
        cleared = _cleared_truncation_residual(relation, series)
        assert cleared.degree <= order + relation.beta.degree - 1


def test_laurent_truncation_residual_order_chebyshev():
    # for the constant stream deg beta = 1 and even-index coefficients
    # vanish, so an odd-order truncation leaves a residual of order
    # exactly z^-(N+1): cleared degree <= N - 1
    relation = periodic_quadratic(CHEBYSHEV)
    for order in (3, 5, 7):
        series = laurent_of_quadratic(relation, order)
        cleared = _cleared_truncation_residual(relation, series)
        assert cleared.degree <= order - 1


def test_recover_constant_stream():
    for rec in recover_coefficients(periodic_quadratic(CHEBYSHEV), 5):
        assert rec.a_sq == 1 and rec.b == 0 and rec.a == 1 and rec.a_exact


def test_recover_roundtrip_two_periods():
    # two periods where the CLI's order cap allows it (4p + 1 <= MAX_ORDER),
    # as many pairs as MAX_ORDER holds beyond that
    rng = random.Random(513)
    for p in range(1, 17):
        periodic = random_periodic(rng, p, max_mag=5)
        count = (min(4 * p + 1, MAX_ORDER) - 1) // 2
        recovered = recover_coefficients(periodic_quadratic(periodic), count)
        expected = unrolled(purely_periodic(periodic), count)
        assert len(recovered) == count
        for rec, (a, b) in zip(recovered, expected):
            assert rec.a_sq == a * a
            assert rec.b == b


def _relation(alpha, beta, gamma):
    """A quadratic relation from three ascending coefficient lists."""
    return QuadraticRelation(*(Poly.from_coeffs(c) for c in (alpha, beta, gamma)))


def test_recover_rejects_wrong_normalization():
    # 2m for the m of z*m + 1 = 0: the expansion starts -2/z
    with pytest.raises(NotAnMFunction, match="c_1 = 2 != 1"):
        recover_coefficients(_relation([], [0, 1], [2]), 1)


def test_recover_rejects_nonpositive_a_sq():
    # m = -1/z ends the stream after one level (a_1^2 = 0), and
    # -m^2 + z*m + 1 = 0 has u = -1/m = z - 1/u, so a_1^2 = -1.  A prepared
    # relation never gets here: where the guard passes, its decaying branch
    # is M, whose pairs are the stream's.
    with pytest.raises(NotAnMFunction, match="a\\^2 = 0 is not positive"):
        recover_coefficients(_relation([], [0, 1], [1]), 1)
    with pytest.raises(NotAnMFunction, match="a\\^2 = -1 is not positive"):
        recover_coefficients(_relation([-1], [0, 1], [1]), 1)


def test_recover_insufficient_order():
    with pytest.raises(InsufficientOrder, match="count must be at least 1, got 0"):
        recover_coefficients(periodic_quadratic(CHEBYSHEV), 0)


def test_recovered_pair_exactness_flag():
    # (2, z - b, 1) peels to b and a^2 = 2, which is not a rational square:
    # a is reported as a float approximation
    rec = recover_coefficients(_relation([2], [Fraction(-1, 3), 1], [1]), 1)[0]
    assert rec.a_sq == 2 and rec.b == Fraction(1, 3) and not rec.a_exact
    assert abs(rec.a - 2**0.5) < 1e-12


# eval_truncated folds float pairs; the exact-pair loop it replaced stays
# here as the reference, and the two must agree to the last bit.


def _exact_pair_truncation(seq, z, depth):
    value = 0 * z
    for a, b in reversed(unrolled(seq, depth)):
        value = 1 / (b - z - a * a * value)
    return value


_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_POSITIVE = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
_PAIRS = st.builds(pair, _POSITIVE, _RATIONALS)
_SEQUENCES = st.builds(
    lambda pre, per: JacobiSequence(tuple(pre), tuple(per)),
    st.lists(_PAIRS, max_size=3),
    st.lists(_PAIRS, min_size=1, max_size=5),
)
PROBE_POINTS = (1e2j, 1e3j, 1e4j)
_UPPER_POINTS = st.one_of(
    st.sampled_from(PROBE_POINTS),
    st.builds(complex, st.floats(-3, 3), st.floats(0.01, 3)),
)


_PERIOD = (pair(1, 0), pair(2, 1), pair(1, 1))


@settings(max_examples=150, deadline=None)
@given(_SEQUENCES, _UPPER_POINTS)
# a^2 has no float in the period, which depth 1 does not reach and every
# deeper depth does: both raise there, with one text
@example(JacobiSequence((pair(1, 0),), (pair(10**200, 0), pair(1, 0))), 0.5j)
# a block that ends with the period lends it its float rows, and one that
# ends with its last pair only does not; at 1e2j the folds of depth k + 3p,
# k + 3p + 1 and 2000 stop at their cycle, and at 0.3 + 0.5i no fold does
@example(JacobiSequence(_PERIOD, _PERIOD), 1e2j)
@example(JacobiSequence(_PERIOD, _PERIOD), complex(0.3, 0.5))
@example(JacobiSequence(_PERIOD[-1:], _PERIOD), 1e2j)
@example(JacobiSequence(_PERIOD[-1:], _PERIOD), complex(0.3, 0.5))
def test_truncation_is_bit_identical_to_exact_pair_loop(seq, z):
    # every depth from 1 to a few periods: those below k (if k > 1), k,
    # k + 1, k + p - 1, k + p and k + p + 1 all occur; at the probe heights
    # also the default depth 2000, where the fold reaches its cycle and stops
    depths = list(range(1, seq.k + 3 * seq.p + 2))
    if z in PROBE_POINTS:
        depths.append(2000)
    for depth in depths:
        assert _fold_outcome(eval_truncated, seq, z, depth) == _fold_outcome(
            _exact_pair_truncation, seq, z, depth
        )


def test_fold_preperiodic_wraps_the_tail_value():
    rng = random.Random(507)
    for _ in range(10):
        seq = JacobiSequence(
            tuple(random_periodic(rng, rng.randint(0, 3))),
            tuple(random_periodic(rng, rng.randint(1, 4))),
        )
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        tail = eval_periodic_m(seq, z)
        assert repr(fold_preperiodic(seq, tail, z)) == repr(eval_m(seq, z))


# fold_preperiodic reads the sequence's float table at a float or complex
# point; the exact-pair loop it replaced stays here as the reference.


def _exact_pair_fold(seq, value, z):
    for q in reversed(seq.preperiodic):
        den = q.b - z - q.a * q.a * value
        if den == 0:
            raise DivisionByZero(f"continued fraction level vanished at z={z}")
        value = 1 / den
    return value


def _fold_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (DivisionByZero, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


_FLOAT_POINTS = st.one_of(_UPPER_POINTS, st.floats(-3, 3))
_TAIL_VALUES = st.one_of(
    st.builds(complex, st.floats(-2, 2), st.floats(1e-6, 2)),
    st.floats(-2, 2),
)


@settings(max_examples=200, deadline=None)
@given(_SEQUENCES, _FLOAT_POINTS, _TAIL_VALUES)
@example(JacobiSequence((pair(1, 0),), (pair(1, 0),)), 0.0, 0.0)
# a^2 has no float: in the period, which the exact loop never reaches, and
# in the preperiodic block, where both raise at that level
@example(JacobiSequence((pair(1, 0),), (pair(10**200, 0), pair(1, 0))), 0.5j, 0.5j)
@example(JacobiSequence((pair(10**200, 0), pair(1, 0)), (pair(1, 0),)), 0.5j, 0.5j)
def test_float_fold_is_bit_identical_to_exact_pair_loop(seq, z, value):
    # twice, so the second call reads the cached table
    for _ in range(2):
        assert _fold_outcome(fold_preperiodic, seq, value, z) == _fold_outcome(
            _exact_pair_fold, seq, value, z
        )


def test_fold_preperiodic_keeps_mpmath_precision():
    # the float table is filled first, and an mpc point must still fold the
    # exact pairs: a float b or a^2 would be off by about 1e-17
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(1409)

    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator

    with mpmath.workdps(40):
        for _ in range(30):
            seq = JacobiSequence(
                tuple(random_periodic(rng, rng.randint(1, 4))),
                tuple(random_periodic(rng, rng.randint(1, 4))),
            )
            fold_preperiodic(seq, 0.5j, complex(0.1, 1.0))
            z = mpmath.mpc(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            value = mpmath.mpc(rng.uniform(-1, 1), rng.uniform(0.1, 1))
            expected = value
            for q in reversed(seq.preperiodic):
                expected = 1 / (mp(q.b) - z - mp(q.a) ** 2 * expected)
            got = fold_preperiodic(seq, value, z)
            assert abs(got - expected) <= mpmath.mpf(10) ** -35 * abs(expected)


# laurent_of_quadratic solves the triangular coefficient system in one pass,
# and recover_coefficients peels the relation.  The references work on the
# expansion instead: fixed-point substitution y <- -(gamma + alpha*y^2)/beta
# finds it, and iterated stripping m -> (b - z - 1/m)/a^2 reads the pairs
# off it, in truncated series arithmetic that tracks its own validity
# floor.  They cost O(N^3) to O(N^4), so orders stay below 20.


class _RefSeries:
    """Truncated Laurent series at infinity; exact above `floor_o` only."""

    __slots__ = ("terms", "floor_o")

    def __init__(self, terms, floor_o):
        self.terms = {e: c for e, c in terms.items() if e > floor_o and c != 0}
        self.floor_o = floor_o

    @staticmethod
    def from_poly(poly, floor_o):
        return _RefSeries(dict(enumerate(poly.coeffs)), floor_o)

    def top(self):
        return max(self.terms) if self.terms else None

    def coeff(self, exponent):
        if exponent <= self.floor_o:
            raise InsufficientOrder(
                f"coefficient at z^{exponent} lies below the validity floor"
            )
        return self.terms.get(exponent, Fraction(0))

    def add(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return _RefSeries(out, max(self.floor_o, other.floor_o))

    def neg(self):
        return _RefSeries({e: -c for e, c in self.terms.items()}, self.floor_o)

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, factor):
        if factor == 0:
            return _RefSeries({}, self.floor_o)
        return _RefSeries({e: c * factor for e, c in self.terms.items()}, self.floor_o)

    def shift(self, offset):
        return _RefSeries(
            {e + offset: c for e, c in self.terms.items()}, self.floor_o + offset
        )

    def mul(self, other):
        # unknown tails pollute products below known_top + other.floor_o
        candidates = [self.floor_o + other.floor_o]
        if self.terms:
            candidates.append(max(self.terms) + other.floor_o)
        if other.terms:
            candidates.append(max(other.terms) + self.floor_o)
        floor_o = max(candidates)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e > floor_o:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return _RefSeries(out, floor_o)

    def inverse(self):
        t = self.top()
        if t is None:
            raise DegenerateRelation("cannot invert a series with no known terms")
        lead = self.terms[t]
        # self = lead * z^t * (1 + u) with top(u) <= -1; sum the geometric series
        u = self.scale(1 / lead).shift(-t)
        u = u.sub(_RefSeries({0: Fraction(1)}, u.floor_o))
        acc = _RefSeries({0: Fraction(1)}, u.floor_o)
        term = _RefSeries({0: Fraction(1)}, u.floor_o)
        neg_u = u.neg()
        while True:
            term = term.mul(neg_u)
            term_top = term.top()
            if term_top is None or term_top <= acc.floor_o:
                break
            acc = acc.add(term)
        return acc.shift(-t).scale(1 / lead)


def _reference_laurent(relation, order):
    if order < 1:
        raise InsufficientOrder(f"order must be at least 1, got {order}")
    al, be, ga = relation.alpha, relation.beta, relation.gamma
    if be.is_zero() or be.degree < al.degree or ga.degree > be.degree - 1:
        raise DegenerateRelation(
            "leading balance failed: no unique branch decaying at infinity"
        )
    window = -(order + be.degree + 6)
    al_s = _RefSeries.from_poly(al, window)
    be_inv = _RefSeries.from_poly(be, window).inverse()
    ga_s = _RefSeries.from_poly(ga, window)

    def read(series):
        return tuple(series.coeff(-j) for j in range(1, order + 1))

    y = _RefSeries({}, window)
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
    return tuple(-y.coeff(-j) for j in range(1, order + 1))


def _reference_recover(series, count):
    if count < 1:
        raise InsufficientOrder(f"count must be at least 1, got {count}")
    if len(series) < 2 * count + 1:
        raise InsufficientOrder(
            f"recovering {count} pairs needs order >= {2 * count + 1}, have {len(series)}"
        )
    current = _RefSeries(
        {-j: -c for j, c in enumerate(series, start=1)},
        -(len(series) + 1),
    )
    z_poly = _RefSeries({1: Fraction(1)}, current.floor_o)
    out = []
    for _ in range(count):
        if current.coeff(-1) != -1:
            raise NotAnMFunction(
                f"leading coefficient c_1 = {-current.coeff(-1)} != 1"
            )
        b = -current.coeff(-2)
        a_sq = -current.coeff(-3) - current.coeff(-2) ** 2
        if a_sq <= 0:
            raise NotAnMFunction(f"recovered a^2 = {a_sq} is not positive")
        rn, rd = math.isqrt(a_sq.numerator), math.isqrt(a_sq.denominator)
        exact = rn * rn == a_sq.numerator and rd * rd == a_sq.denominator
        a = Fraction(rn, rd) if exact else math.sqrt(a_sq.numerator / a_sq.denominator)
        out.append(RecoveredPair(a_sq, b, a, exact))
        offset = _RefSeries({0: b}, current.floor_o)
        current = offset.sub(z_poly).sub(current.inverse()).scale(1 / a_sq)
    return out


def _outcome(fn, *args):
    """The result of fn(*args), or the type and text of the error it raised."""
    try:
        return fn(*args)
    except PalinfracError as exc:
        return type(exc), str(exc)


def _finite_stream(levels, scale=1):
    """The linear relation (0, D, -scale*N) of a finite J-fraction m = N/D.

    m = 1/(b_1 - z - a_1^2/(b_2 - z - ...)) over the (b, a^2) `levels`,
    where an a^2 may be negative or no rational square.  Peeling reads the
    levels back up to the first a^2 <= 0, and past the last one it meets
    a^2 = 0.  A `scale` other than 1 breaks c_1 = 1.
    """
    num, den = Poly.zero(), Poly.const(1)
    for b, a_sq in reversed(levels):
        num, den = den, (Poly.const(b) - Poly((0, 1), 1)) * den - Poly.const(a_sq) * num
    return QuadraticRelation(Poly.zero(), den, -Poly.const(scale) * num)


def _finite_streams(max_levels):
    levels = st.tuples(_RATIONALS, st.one_of(_POSITIVE, _RATIONALS.filter(bool)))
    return st.builds(
        _finite_stream,
        st.lists(levels, min_size=1, max_size=max_levels),
        st.just(1) | _RATIONALS,
    )


# k = 1 over p = 2 with a_1 = a_p: deg alpha = deg beta, the guard passes,
# and the peel reads the preperiodic pair and then the period
_K1_READS_BACK = JacobiSequence(
    (pair(Fraction(2, 3), Fraction(-3, 4)),),
    (pair(Fraction(3, 7), Fraction(-5, 6)), pair(Fraction(2, 3), Fraction(-1, 3))),
)
# k = 1 with a_1 != a_p: deg alpha = deg beta + 1, and the guard rejects it
_K1_GUARD_FAILS = JacobiSequence(
    (pair(Fraction(8, 5), Fraction(7, 3)),), (pair(Fraction(3, 4), Fraction(4, 9)),)
)


def test_recover_reads_a_preperiodic_pair_back():
    relation = prepare(_K1_READS_BACK).relation
    assert relation.alpha.degree == relation.beta.degree
    recovered = recover_coefficients(relation, 5)
    assert [(r.a_sq, r.b) for r in recovered] == [
        (a * a, b) for a, b in unrolled(_K1_READS_BACK, 5)
    ]


_SERIES_CASES = st.one_of(
    st.tuples(
        st.builds(periodic_quadratic, st.lists(_PAIRS, min_size=1, max_size=6)),
        st.integers(1, 17),
    ),
    st.tuples(st.builds(lambda seq: prepare(seq).relation, _SEQUENCES), st.integers(1, 17)),
    st.tuples(_finite_streams(5), st.integers(1, 13)),
)


@settings(max_examples=100, deadline=None)
@given(_SERIES_CASES)
@example((_finite_stream([(Fraction(0), Fraction(1))], 2), 3))
@example((_finite_stream([(Fraction(1), Fraction(2))]), 5))
@example((prepare(_K1_READS_BACK).relation, 9))
@example((prepare(_K1_GUARD_FAILS).relation, 9))
def test_series_layer_matches_the_reference(case):
    _assert_peel_matches(case, _reference_recover, _reference_laurent)


def _assert_peel_matches(case, recover_ref, laurent_ref=None):
    """Compare the expansion and the peel with references, errors included.

    The peel takes the given order n's capacity (n - 1)//2 pairs, at least
    one, and one pair more.  The relation is expanded once, to order
    2*count + 1 for the larger count, which is above n, and slices of that
    expansion stand for the shorter ones (`test_laurent_orders_are_prefixes`):
    its first n terms are compared with `laurent_ref`, when one is given,
    and the reference recovers each count from the first 2*count + 1.
    """
    relation, n = case
    counts = {max(1, (n - 1) // 2), (n - 1) // 2 + 1}
    series = _outcome(laurent_of_quadratic, relation, 2 * max(counts) + 1)
    failed = isinstance(series[0], type)  # an error, which no order changes
    if laurent_ref is not None:
        assert (series if failed else series[:n]) == _outcome(laurent_ref, relation, n)
    for count in counts:
        expected = series if failed else _outcome(recover_ref, series[: 2 * count + 1], count)
        assert _outcome(recover_coefficients, relation, count) == expected


# Chebyshev's algorithm reads the pairs off the expansion in O(N^2) Fraction
# operations, as the expansion itself takes, so it serves as the peel's
# reference at the CLI's order cap and beyond, where the series references
# above, at O(N^3) to O(N^4), cannot go.


def _fraction_recover(series, count):
    """Chebyshev's algorithm (Gautschi, SIAM J. Sci. Stat. Comput. 1982).

    c_j is the (j-1)-th moment of the spectral measure, and pair j is
    (a_j^2, b_j) = (beta_j, alpha_(j-1)) of its monic orthogonal
    polynomials, found from the mixed moments sigma_(k,l) = <p_k, x^l>:

        sigma_(k,l) = sigma_(k-1,l+1) - alpha_(k-1) sigma_(k-1,l)
                      - beta_(k-1) sigma_(k-2,l),
        alpha_k = sigma_(k,k+1)/sigma_(k,k) - sigma_(k-1,k)/sigma_(k-1,k-1),
        beta_k = sigma_(k,k)/sigma_(k-1,k-1).
    """
    if count < 1:
        raise InsufficientOrder(f"count must be at least 1, got {count}")
    width = 2 * count + 1
    if len(series) < width:
        raise InsufficientOrder(
            f"recovering {count} pairs needs order >= {width}, have {len(series)}"
        )
    mu = series
    if mu[0] != 1:
        raise NotAnMFunction(f"leading coefficient c_1 = {mu[0]} != 1")
    older = [Fraction(0)] * width
    prev = list(mu[:width])
    b, beta = mu[1], Fraction(0)
    out = []
    for k in range(1, count + 1):
        cur = [Fraction(0)] * k + [
            prev[l + 1] - b * prev[l] - beta * older[l] for l in range(k, width - k)
        ]
        a_sq = cur[k] / prev[k - 1]
        if a_sq <= 0:
            raise NotAnMFunction(f"recovered a^2 = {a_sq} is not positive")
        rn, rd = math.isqrt(a_sq.numerator), math.isqrt(a_sq.denominator)
        exact = rn * rn == a_sq.numerator and rd * rd == a_sq.denominator
        a = Fraction(rn, rd) if exact else math.sqrt(a_sq.numerator / a_sq.denominator)
        out.append(RecoveredPair(a_sq, b, a, exact))
        if k < count:
            b = cur[k + 1] / cur[k] - prev[k] / prev[k - 1]
        older, prev, beta = prev, cur, a_sq
    return out


def _random_relation(alpha_low, alpha_lead, beta_low, beta_lead, gamma):
    """alpha and beta of one degree, unless alpha's leading term is zero."""
    return _relation(alpha_low + [alpha_lead], beta_low + [beta_lead], gamma)


_P16_PERIOD = [
    pair(a, b)
    for a, b in json.loads(
        (Path(__file__).parent / "data" / "recover_p16.json").read_text(encoding="utf-8")
    )["periodic"]
]
# a block of three pairs, three times over: the relation's gcd has degree 6
_REPEATED_BLOCK = [
    pair(Fraction(2, 7), Fraction(1, 5)),
    pair(1, Fraction(2, 9)),
    pair(Fraction(2, 9), Fraction(3, 4)),
] * 3
_ORDERS = st.integers(1, MAX_ORDER)
_CAP_CASES = st.one_of(
    st.tuples(
        st.builds(periodic_quadratic, st.lists(_PAIRS, min_size=1, max_size=16)),
        _ORDERS,
    ),
    # a preperiodic block: mostly a relation with no decaying branch
    st.tuples(
        st.builds(
            lambda pre, per: prepare(JacobiSequence(tuple(pre), tuple(per))).relation,
            st.lists(_PAIRS, min_size=1, max_size=3),
            st.lists(_PAIRS, min_size=1, max_size=8),
        ),
        _ORDERS,
    ),
    # deg alpha = deg beta, lc beta of either sign, deg gamma up to deg beta
    st.tuples(
        st.integers(0, 4).flatmap(
            lambda d: st.builds(
                _random_relation,
                st.lists(_RATIONALS, min_size=d, max_size=d),
                _RATIONALS,
                st.lists(_RATIONALS, min_size=d, max_size=d),
                st.one_of(_POSITIVE, _POSITIVE.map(lambda v: -v)),
                st.lists(_RATIONALS, max_size=d + 1),
            )
        ),
        _ORDERS,
    ),
    st.tuples(_finite_streams(16), _ORDERS),
)


@settings(max_examples=100, deadline=None)
@given(_CAP_CASES)
@example((periodic_quadratic(_P16_PERIOD), MAX_ORDER))
@example((periodic_quadratic(_P16_PERIOD), 129))
@example((periodic_quadratic(_REPEATED_BLOCK), MAX_ORDER))
@example((prepare(_K1_READS_BACK).relation, MAX_ORDER))
@example((prepare(_K1_GUARD_FAILS).relation, MAX_ORDER))
def test_series_layer_matches_the_fraction_loops(case):
    _assert_peel_matches(case, _fraction_recover)


def test_laurent_orders_are_prefixes():
    relation = periodic_quadratic(_P16_PERIOD)
    full = laurent_of_quadratic(relation, 129)
    for n in (1, 2, 3, 16, 17, 33, 64, 128):
        assert laurent_of_quadratic(relation, n) == full[:n]


def _full_peel(relation, count):
    """`recover_coefficients` without its first-return check: every step peeled."""
    d, A, B, G = _decaying_relation(relation)
    if count < 1:
        raise InsufficientOrder(f"count must be at least 1, got {count}")
    c1 = Fraction(G[d - 1], B[d])
    if c1 != 1:
        raise NotAnMFunction(f"leading coefficient c_1 = {c1} != 1")
    out = []
    while True:
        b = Fraction(G[d - 2] - B[d - 1] + A[d], G[d - 1])
        bn, bd = b.numerator, b.denominator
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


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_PAIRS, min_size=1, max_size=6),
    st.integers(1, 4),
    st.lists(_PAIRS, max_size=3),
    st.integers(1, MAX_ORDER),
)
@example(list(_REPEATED_BLOCK[:3]), 3, [], MAX_ORDER)
@example(list(_K1_READS_BACK.periodic), 1, list(_K1_READS_BACK.preperiodic), MAX_ORDER)
# the block ends with the last periodic pair, yet the preperiod is genuine
@example(
    [pair(Fraction(17, 2), Fraction(1, 2))],
    1,
    [pair(Fraction(17, 2), 0), pair(Fraction(17, 2), Fraction(1, 2))],
    2,
)
def test_peel_stops_at_the_first_return_with_the_full_peels_pairs(block, r, pre, count):
    # a relation of a purely periodic stream returns to its start, up to
    # content, after q steps for the stream's primitive period q, and the
    # peel then repeats its first q pairs, the same objects; a stream with
    # a genuine preperiod, a block that is not the end of the periodic
    # stream, never returns, and every pair is peeled
    periodic = tuple(block * r)
    p = len(periodic)
    relation = prepare(JacobiSequence(tuple(pre), periodic)).relation if pre else (
        periodic_quadratic(periodic))
    expected = _outcome(_full_peel, relation, count)
    got = _outcome(recover_coefficients, relation, count)
    assert got == expected
    if isinstance(got, list):
        q = next(q for q in range(1, p + 1) if p % q == 0 and periodic[q:] == periodic[:-q])
        genuine = tuple(pre) != (periodic * len(pre))[-len(pre) :]
        assert len({id(rec) for rec in got}) == (count if genuine else min(count, q))
