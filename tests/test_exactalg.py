"""Exact polynomial, matrix, and Moebius arithmetic."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import palinfrac.exactalg as exactalg
import palinfrac.quadratic as quadratic
from palinfrac import (
    DivisionByZero,
    JacobiSequence,
    Mat2,
    Poly,
    mobius_apply,
    normalize_kp,
    pair,
    poly_gcd,
    prepare,
)
from palinfrac.exactalg import (
    decode,
    pack,
    packed_degree,
    poly_is_square,
    rational_sqrt,
)
from conftest import (
    IDENTITY,
    det,
    random_rational,
    ref_divmod,
    ref_gcd,
    ref_monic,
    trim,
)


def rand_poly(rng: random.Random, max_deg: int, allow_zero: bool = True) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [random_rational(rng, -5, 5, 5) for _ in range(deg + 1)]
    poly = Poly.from_coeffs(coeffs)
    if poly.is_zero() and not allow_zero:
        return Poly.const(1)
    return poly


def rand_mat(rng: random.Random, max_deg: int = 3) -> Mat2:
    return Mat2(*[rand_poly(rng, max_deg) for _ in range(4)])


def test_difference_of_squares():
    z = Poly((0, 1), 1)
    assert (z + Poly.const(1)) * (z - Poly.const(1)) == Poly.from_coeffs([-1, 0, 1])


def test_additive_identity():
    p = Poly.from_coeffs([3, Fraction(1, 2), 7])
    assert p + Poly.zero() == p


def test_degree_additivity_under_product():
    rng = random.Random(101)
    for _ in range(50):
        p = rand_poly(rng, 6, allow_zero=False)
        q = rand_poly(rng, 6, allow_zero=False)
        assert (p * q).degree == p.degree + q.degree


def test_matrix_identity_products():
    rng = random.Random(102)
    eye = IDENTITY
    for _ in range(10):
        m = rand_mat(rng)
        assert eye @ m == m
        assert m @ eye == m


def test_det_is_multiplicative():
    rng = random.Random(103)
    for _ in range(20):
        a, b = rand_mat(rng), rand_mat(rng)
        assert det(a @ b) == det(a) * det(b)


def test_det_identity_and_single_step():
    assert det(IDENTITY) == Poly.const(1)
    # one-step matrix for (a_1, b_1) = (1, 0)
    step = Mat2(Poly((0, 1), 1), Poly.const(1), Poly.const(-1), Poly.zero())
    assert det(step) == Poly.const(1)


def test_mobius_identity_and_inversion():
    eye = IDENTITY
    swap = Mat2(Poly.zero(), Poly.const(1), Poly.const(1), Poly.zero())
    w = 0.7 + 1.3j
    z = 0.2 + 0.9j
    assert mobius_apply(eye, w, z) == w
    assert abs(mobius_apply(swap, w, z) - 1 / w) < 1e-15


def test_mobius_composition_matches_product():
    rng = random.Random(104)
    for _ in range(10):
        a, b = rand_mat(rng), rand_mat(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            inner = mobius_apply(b, w, z)
            composed = mobius_apply(a, inner, z)
            direct = mobius_apply(a @ b, w, z)
        except DivisionByZero:
            continue
        assert abs(composed - direct) < 1e-9 * max(1.0, abs(direct))


def test_mobius_division_by_zero():
    collapse = Mat2(Poly.const(1), Poly.zero(), Poly.zero(), Poly.zero())
    with pytest.raises(DivisionByZero):
        mobius_apply(collapse, 1.0 + 1.0j, 2.0j)


def test_horner_matches_naive_summation():
    rng = random.Random(105)
    coeffs = [random_rational(rng, -9, 9, 9) for _ in range(21)]
    poly = Poly.from_coeffs(coeffs)
    z = 1j
    naive = sum(complex(c) * z**i for i, c in enumerate(coeffs))
    assert abs(poly(z) - naive) < 1e-12 * max(1.0, abs(naive))


def test_eval_trivials():
    assert Poly.zero()(2.3 + 1j) == 0
    assert Poly((), 1).leading == 0 and type(Poly((), 1).leading) is Fraction
    assert Poly.from_coeffs([-1, 0, 1])(2) == 3


def test_rational_field_identities():
    rng = random.Random(106)
    for _ in range(100):
        x = random_rational(rng, -9, 9)
        y = random_rational(rng, -9, 9)
        w = random_rational(rng, -9, 9)
        assert (x + y) + w == x + (y + w)
        assert (x * y) * w == x * (y * w)
        assert x * (y + w) == x * y + x * w
        assert x + y == y + x and x * y == y * x


def monic_gcd(*polys: Poly) -> Poly:
    """`poly_gcd` of the numerators, which is primitive with a positive
    leading coefficient, as the monic gcd over the rationals."""
    g = poly_gcd(*(poly.num for poly in polys))
    assert not g or (g[-1] > 0 and gcd(*g) == 1)
    return Poly.from_coeffs(ref_monic(Poly(tuple(g), 1).coeffs))


def test_poly_gcd_contains_common_factor():
    z = Poly((0, 1), 1)
    one = Poly.const(1)
    g = monic_gcd((z - Poly.const(1)) * (z + Poly.const(2)),
                  (z - Poly.const(1)) * (z + Poly.const(3)))
    assert g == (z - Poly.const(1))
    assert poly_gcd([-12, 6, 6], [-10, 10], [3, -3]) == [-1, 1]
    assert poly_gcd([], [-4, 0, 6]) == [-2, 0, 3] and poly_gcd([], []) == []
    for a, b, expected in (
        # the constant candidate at the first point, 2^8
        (z + Poly.const(3), Poly.from_coeffs([-2, 3, -3]), one),
        (Poly.zero(), Poly.zero(), Poly.zero()),
        (Poly.zero(), Poly.from_coeffs([-3, 6]), Poly.from_coeffs([Fraction(-1, 2), 1])),
        (Poly.const(Fraction(-3, 2)), z + one, one),
        (Poly.const(Fraction(-3, 2)), Poly.const(5), one),
        (Poly.from_coeffs([1, 0, -4]), Poly.from_coeffs([1, -2]),
         Poly.from_coeffs([Fraction(-1, 2), 1])),
        (Poly.from_coeffs([-12, 6, 6]), Poly.from_coeffs([Fraction(-10, 3), Fraction(10, 3)]),
         z - one),
    ):
        assert monic_gcd(a, b) == expected == monic_gcd(b, a)
    rng = random.Random(108)
    for _ in range(20):
        common = rand_poly(rng, 3, allow_zero=False)
        u = rand_poly(rng, 3, allow_zero=False)
        v = rand_poly(rng, 3, allow_zero=False)
        g = monic_gcd(common * u, common * v)
        assert ref_divmod(g.coeffs, common.coeffs)[1] == ()


def test_poly_gcd_runs_every_exit(monkeypatch):
    # each input takes the exits that its comment names: the constant
    # candidate, a candidate that fails exact division and then one that
    # passes, a value gcd whose balanced digits `unpack` cannot read (h =
    # 2^15 - 1 needs three digits at 2^8, its bit length shows two), and a
    # closed-gap tail, whose gcd is z, certified through `prepare`
    events, results = [], []
    unpack, divide, canonical_gcd = exactalg.unpack, exactalg._divide, poly_gcd

    def counting_unpack(v, w):
        try:
            digits = unpack(v, w)
        except OverflowError:
            events.append(f"overflow at {w}")
            raise
        events.append(f"candidate at {w}")
        return digits

    def counting_divide(a, b):
        result = divide(a, b)
        if result is None:
            events.append("rejected")
        return result

    def recording_gcd(*nums):
        results.append(canonical_gcd(*nums))
        return results[-1]

    monkeypatch.setattr(exactalg, "unpack", counting_unpack)
    monkeypatch.setattr(exactalg, "_divide", counting_divide)
    monkeypatch.setattr(quadratic, "poly_gcd", recording_gcd)
    cases = [
        # the constant candidate, from the first value gcd
        (([3, 1], [-2, 3, -3]), [1], []),
        # rejected at 2^8, certified at 2^16: 24z^2 - 33z + 2
        (
            ([-2, 35, -55, -9, 24], [2, -31, -11, 57, -22, -31, -9, 24]),
            [2, -33, 24],
            ["candidate at 8", "rejected", "candidate at 16"],
        ),
        # unreadable at 2^8, then the constant candidate at 2^16
        (([-2, 0, 1], [125, 126, -63, 1]), [1], ["overflow at 8"]),
    ]
    for nums, expected, exits in cases:
        events.clear()
        assert poly_gcd(*nums) == expected
        assert events == exits
    events.clear()
    period = tuple(pair(1, b) for b in (-1, 0, 1, 0))
    prepare(normalize_kp(JacobiSequence((), period)))
    assert results == [[0, 1]] and events == ["candidate at 8"]


def test_rational_sqrt_is_exact_or_none():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    for value in (Fraction(2), Fraction(9, 2), Fraction(2, 9), Fraction(-4)):
        assert rational_sqrt(value) is None


def test_poly_is_square_cases():
    z = Poly((0, 1), 1)
    assert poly_is_square((z - Poly.const(1)) * (z - Poly.const(1)))
    assert not poly_is_square(Poly.from_coeffs([-4, 0, 1]))  # z^2 - 4
    assert poly_is_square(Poly.zero())
    rng = random.Random(109)
    for _ in range(20):
        s = rand_poly(rng, 4, allow_zero=False)
        assert poly_is_square(s * s)
        if s.degree >= 1:
            assert not poly_is_square(s * s + Poly.const(1))


_SQUARE_ROOTS = st.lists(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)), min_size=1, max_size=5
).map(Poly.from_coeffs).filter(lambda s: not s.is_zero())
_NON_SQUARES = st.sampled_from((Fraction(2), Fraction(-1), Fraction(3, 4), Fraction(1, 5)))


@settings(max_examples=200, deadline=None)
@given(
    _SQUARE_ROOTS,
    _NON_SQUARES,
    st.integers(0, 8),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
)
# moving the z coefficient of (z + 1)^2 by -4 lands on the square (z - 1)^2
@example(Poly.from_coeffs([1, 1]), Fraction(2), 1, Fraction(-4))
def test_poly_is_square_on_squares_and_near_squares(s, c, index, delta):
    # c is never a rational square, and z*(z - 1)*(z - 2) has three simple
    # roots: a product with it has odd degree, and one more linear factor
    # leaves a simple root whatever delta is
    z = Poly((0, 1), 1)
    vanishing = z * (z - Poly.const(1)) * (z - Poly.const(2))
    square = s * s
    assert poly_is_square(square)
    assert poly_is_square(square * vanishing * vanishing)
    assert not poly_is_square(Poly.const(c) * square)
    assert not poly_is_square(Poly.const(c) * square * vanishing * vanishing)
    assert not poly_is_square(square * vanishing)
    assert not poly_is_square(square * vanishing * (z - Poly.const(delta)))
    perturbed = list(square.coeffs)
    perturbed[index % len(perturbed)] += delta
    poly = Poly.from_coeffs(perturbed)
    assert poly_is_square(poly) == _ref_is_square(poly.coeffs)


# Poly.__call__ runs Horner over float coefficients at builtin float and
# complex points; exact Horner stays here as the reference, and the two
# must agree to the last bit.


def _exact_horner(poly, z):
    acc = z * 0
    for c in reversed(poly.coeffs):
        acc = acc * z + c
    return acc


# numerators and denominators past 2**53, where float(c) rounds only once
_COEFFS = st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**60))
_POLYS = st.lists(_COEFFS, max_size=8).map(Poly.from_coeffs)
_FLOATS = st.floats(-1e3, 1e3)
_POINTS = st.one_of(
    st.sampled_from((1e2j, 1e3j, 1e4j)),
    _FLOATS,
    st.builds(complex, _FLOATS, _FLOATS),
)


@settings(max_examples=300, deadline=None)
@given(_POLYS, _POINTS)
def test_float_horner_is_bit_identical_to_exact_horner(poly, z):
    assert repr(poly(z)) == repr(_exact_horner(poly, z))


def test_poly_stays_exact_at_rational_points():
    poly = Poly.from_coeffs([Fraction(1, 3), -2, Fraction(5, 7)])
    for z in (Fraction(1, 2), 3, -1):
        value = poly(z)
        assert isinstance(value, Fraction)
        assert value == _exact_horner(poly, Fraction(z))


def test_poly_keeps_mpmath_precision():
    mpmath = pytest.importorskip("mpmath")
    poly = Poly.from_coeffs([Fraction(1, 3), Fraction(2, 7), Fraction(-5, 11)])
    with mpmath.workdps(50):
        z = mpmath.mpc(mpmath.mpf(1) / 3, mpmath.mpf(2) / 7)
        expected = mpmath.mpf(1) / 3 + mpmath.mpf(2) / 7 * z - mpmath.mpf(5) / 11 * z**2
        # a double-precision evaluation would be off by about 1e-17
        assert abs(poly(z) - expected) < mpmath.mpf(10) ** -45


# Poly keeps integer numerators over one shared denominator.  Plain tuples
# of Fractions in ascending degree, with no trailing zero, are the reference
# for every operation, and every result must be in the canonical form.


def _ref_combine(a, b, sign):
    zero = Fraction(0)
    n = max(len(a), len(b))
    return trim(
        (a[i] if i < len(a) else zero) + sign * (b[i] if i < len(b) else zero)
        for i in range(n)
    )


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def _ref_derivative(a):
    return trim(i * c for i, c in enumerate(a))[1:]


def _ref_is_square(a):
    """Yun's square-free decomposition: a square has a rational square as
    its leading coefficient and no factor of odd multiplicity."""
    if not a:
        return True
    if rational_sqrt(a[-1]) is None:
        return False
    f = ref_monic(a)
    df = _ref_derivative(f)
    common = ref_gcd(f, df)
    b, c = ref_divmod(f, common)[0], ref_divmod(df, common)[0]
    multiplicity = 1
    while len(b) > 1:
        d = _ref_combine(c, _ref_derivative(b), -1)
        factor = ref_gcd(b, d)
        if multiplicity % 2 and len(factor) > 1:
            return False
        b, c = ref_divmod(b, factor)[0], ref_divmod(d, factor)[0]
        multiplicity += 1
    return True


def _assert_canonical(poly):
    assert type(poly.den) is int and poly.den > 0
    assert all(type(n) is int for n in poly.num)
    assert gcd(poly.den, *poly.num) == 1
    assert not poly.num or poly.num[-1] != 0


# zeros (trailing ones too), small rationals that share denominators, and
# numerators up to 2**80 over denominators up to 2**60
_KERNEL_COEFFS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    _COEFFS,
)
_KERNEL_LISTS = st.lists(_KERNEL_COEFFS, max_size=6)
_FACTORS = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1), Fraction(-1), Fraction(-3, 2))),
    _COEFFS,
)


def _kernel_example(xs, ys, ws, factor):
    """An explicit kernel input, every coefficient a Fraction as drawn."""
    return example(*([Fraction(c) for c in cs] for cs in (xs, ys, ws)), Fraction(factor))


@settings(max_examples=300, deadline=None)
@given(_KERNEL_LISTS, _KERNEL_LISTS, _KERNEL_LISTS, _FACTORS)
# gcd inputs: the heuristic gcd's constant candidate at 2^8, a candidate
# rejected at 2^8 and certified at 2^16, a value gcd at 2^8 that `unpack`
# cannot read, a zero argument, constants, negative leading coefficients,
# and numerators with a nontrivial content
@_kernel_example([3, 1], [-2, 3, -3], [1], 1)
@_kernel_example([-2, 35, -55, -9, 24], [2, -31, -11, 57, -22, -31, -9, 24], [1], 1)
@_kernel_example([-2, 0, 1], [125, 126, -63, 1], [1], 1)
@_kernel_example([], ["-3/4", "3/2"], [-1, 1], 2)
@_kernel_example(["-3/2"], [5], [7], 1)
@_kernel_example([1, 0, -4], [1, -2], [0, -1], -1)
@_kernel_example([6, 12, 18], ["10/3", "20/3"], ["-14/5", 7], 3)
def test_kernel_matches_the_fraction_reference(xs, ys, ws, factor):
    p, q, w = (Poly.from_coeffs(cs) for cs in (xs, ys, ws))
    rp, rq, rw = (trim(cs) for cs in (xs, ys, ws))
    checks = [
        (p, rp),
        (p + q, _ref_combine(rp, rq, 1)),
        (p - q, _ref_combine(rp, rq, -1)),
        (-p, _ref_combine((), rp, -1)),
        (p * q, _ref_mul(rp, rq)),
        (Poly.const(factor) * p, tuple(trim(c * factor for c in rp))),
        (monic_gcd(p, q), ref_gcd(rp, rq)),
        (monic_gcd(p * w, q * w), ref_gcd(_ref_mul(rp, rw), _ref_mul(rq, rw))),
        # three arguments, one pass: w times the gcd of p, q and p + w
        (
            monic_gcd(p * w, q * w, (p + w) * w),
            ref_gcd(*(_ref_mul(r, rw) for r in (rp, rq, _ref_combine(rp, rw, 1)))),
        ),
    ]
    for poly, expected in checks:
        _assert_canonical(poly)
        assert poly.coeffs == expected
        assert all(type(c) is Fraction for c in poly.coeffs)
        assert poly.degree == len(expected) - 1
        assert poly.is_zero() == (not expected)
        assert repr(poly._float_coeffs) == repr(tuple(float(c) for c in expected))
        # one canonical form: structural equality and hashing agree with
        # equality of the coefficients
        same = Poly.from_coeffs(list(expected) + [0])
        assert poly == same and hash(poly) == hash(same)
    assert (p == q) == (rp == rq)


_INTS = st.lists(st.integers(-30, 30), max_size=5).map(trim)


@settings(max_examples=300, deadline=None)
@given(_INTS.filter(bool), _INTS, _INTS)
# 3z + 1 over 2z + 1: the one step is not exact, the low remainder is zero;
# z + 1 over z: the step is exact, the low remainder is not
@example((1, 2), (1,), (0, 1))
@example((0, 1), (1,), (1,))
def test_divide_is_exact_integer_division(b, q, r):
    # a = b*q + r for a primitive b: the quotient as ints where the Fraction
    # reference leaves no remainder (an integer one, by Gauss's lemma), else
    # None
    b = [x // gcd(*b) for x in b]
    a = [int(c) for c in _ref_combine(_ref_mul(b, q), r, 1)]
    quot, rem = ref_divmod(tuple(map(Fraction, a)), tuple(map(Fraction, b)))
    assert rem or all(c.denominator == 1 for c in quot)
    assert exactalg._divide(a, b) == (None if rem else [int(c) for c in quot])


def _packed_case(w: int):
    """A width and integer coefficients below 2^(w-2), the extremes included."""
    top = 2 ** (w - 2) - 1
    coefficient = st.one_of(st.integers(-top, top), st.sampled_from([-top, top, 0]))
    return st.tuples(st.just(w), st.lists(coefficient, max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(lambda k: _packed_case(8 * k)), st.integers(1, 10**40))
@example((8, []), 1)
@example((8, [0, 0, 0]), 7)
@example((16, [-(2**14 - 1), 2**14 - 1, -(2**14 - 1)]), 3)
def test_packed_codec_round_trips(case, den):
    # pack is the value at 2^w; decode gives back the canonical polynomial
    # num/den, and packed_degree its degree, -1 for zero, trailing zeros
    # dropped
    w, num = case
    v = pack(num, w)
    assert v == sum(n * 2 ** (w * i) for i, n in enumerate(num))
    expected = Poly.from_coeffs([Fraction(n, den) for n in num])
    poly = decode(v, den, w)
    _assert_canonical(poly)
    assert poly == expected
    assert packed_degree(v, w) == expected.degree
