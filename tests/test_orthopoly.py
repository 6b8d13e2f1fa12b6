"""Recurrence polynomials and conjugated transfer matrices."""

import random
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from palinfrac import (
    IndexOutOfRange,
    Mat2,
    NotNormalized,
    Poly,
    normalize_kp,
    pair,
    sequence,
)
from palinfrac.exactalg import decode, pack
from palinfrac.jacobi import int_pairs
from palinfrac.orthopoly import (
    build_T1,
    build_T2,
    build_T3,
    conj_transfer,
    packed_step,
    packed_walk,
    packed_width,
)
from conftest import (
    IDENTITY,
    composed_step,
    det,
    random_periodic,
    scalar_first_kind,
    scalar_second_kind,
)


CONSTANT = [pair(1, 0)] * 6


def transfer_prefixes(coeffs, n):
    """T_0 = identity, T_1, ..., T_n over the first n pairs of `coeffs`."""
    return list(accumulate(coeffs[:n], composed_step, initial=IDENTITY))


def test_first_kind_base_case():
    assert [t.a11 for t in transfer_prefixes([], 0)] == [Poly.const(1)]


def test_first_kind_single_step():
    assert [t.a11 for t in transfer_prefixes([pair(1, 0)], 1)][1] == Poly((0, 1), 1)


def test_first_kind_chebyshev_like():
    ps = [t.a11 for t in transfer_prefixes(CONSTANT, 3)]
    assert ps[2] == Poly.from_coeffs([-1, 0, 1])
    assert ps[3] == Poly.from_coeffs([0, -2, 0, 1])


def test_first_kind_degree_and_leading():
    rng = random.Random(301)
    for _ in range(10):
        coeffs = random_periodic(rng, 8)
        ps = [t.a11 for t in transfer_prefixes(coeffs, 8)]
        for n, p in enumerate(ps):
            assert p.degree == n
            assert p.leading == 1 / prod((q.a for q in coeffs[:n]), start=Fraction(1))


def test_first_kind_matches_scalar_recurrence():
    rng = random.Random(302)
    for _ in range(10):
        coeffs = random_periodic(rng, 10)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.4, 2))
        symbolic = [t.a11 for t in transfer_prefixes(coeffs, 10)]
        numeric = scalar_first_kind(coeffs, 10, z)
        for sym, num in zip(symbolic, numeric):
            assert abs(sym(z) - num) < 1e-9 * max(1.0, abs(num))


def test_second_kind_base_cases():
    assert [t.a12 for t in transfer_prefixes([], 0)] == [Poly.zero()]
    assert [t.a12 for t in transfer_prefixes([pair(1, 0)], 1)][1] == Poly.const(1)
    assert [t.a12 for t in transfer_prefixes(CONSTANT, 2)][2] == Poly((0, 1), 1)


def test_second_kind_degree_and_leading():
    rng = random.Random(303)
    for _ in range(10):
        coeffs = random_periodic(rng, 8)
        qs = [t.a12 for t in transfer_prefixes(coeffs, 8)]
        for n in range(1, 9):
            assert qs[n].degree == n - 1
            expected = 1 / (coeffs[0].a * prod((q.a for q in coeffs[1:n]), start=Fraction(1)))
            assert qs[n].leading == expected


def test_second_kind_matches_scalar_recurrence():
    rng = random.Random(304)
    for _ in range(10):
        coeffs = random_periodic(rng, 10)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.4, 2))
        symbolic = [t.a12 for t in transfer_prefixes(coeffs, 10)]
        numeric = scalar_second_kind(coeffs, 10, z)
        for sym, num in zip(symbolic, numeric):
            assert abs(sym(z) - num) < 1e-9 * max(1.0, abs(num))


def test_insufficient_coefficients():
    with pytest.raises(IndexOutOfRange):
        conj_transfer([pair(1, 0)], 2)


def test_conj_transfer_single_step():
    t = conj_transfer([pair(1, 0)], 1)
    assert t == Mat2(Poly((0, 1), 1), Poly.const(1), Poly.const(-1), Poly.zero())
    assert det(t) == Poly.const(1)


def test_conj_transfer_needs_positive_n():
    with pytest.raises(IndexOutOfRange):
        conj_transfer([pair(1, 0)], 0)


def test_conj_transfer_det_is_one():
    rng = random.Random(305)
    for _ in range(5):
        coeffs = random_periodic(rng, 20)
        for n in range(1, 21):
            assert det(conj_transfer(coeffs, n)) == Poly.const(1)


def test_conj_transfer_single_step_factorization():
    rng = random.Random(306)
    for _ in range(5):
        coeffs = random_periodic(rng, 20)
        for n in range(2, 21):
            step = conj_transfer([coeffs[n - 1]], 1)
            assert conj_transfer(coeffs, n) == step @ conj_transfer(coeffs, n - 1)


def test_build_T1_single_pair():
    seq = normalize_kp(sequence([], [(1, 0)]))
    t1 = build_T1(seq)
    assert t1 == Mat2(Poly((0, 1), 1), Poly.const(1), Poly.const(-1), Poly.zero())
    assert det(t1) == Poly.const(1)


def test_build_T1_requires_normalization():
    with pytest.raises(NotNormalized):
        build_T1(sequence([], [(1, 0)]))
    with pytest.raises(NotNormalized):
        build_T1(sequence([(2, 0)], [(1, 0)]))


def test_build_T2_boundary_and_example():
    periodic = [pair(1, 0)] * 4
    assert build_T2(periodic, 0) == conj_transfer(periodic[:1], 1)
    t2 = build_T2(periodic, 1)
    assert t2 == Mat2(
        Poly.from_coeffs([-1, 0, 1]),
        Poly((0, 1), 1),
        Poly.from_coeffs([0, -1]),
        Poly.const(-1),
    )
    assert det(t2) == Poly.const(1)
    with pytest.raises(IndexOutOfRange):
        build_T2(periodic, 4)
    with pytest.raises(IndexOutOfRange):
        build_T2(periodic, -1)


def test_build_T3_k1_equals_T1():
    seq = normalize_kp(sequence([], [(1, 0)]))
    assert build_T3(seq) == build_T1(seq)


def test_build_T3_k2_reversed_index_list():
    # preperiodic (alpha_1, beta_1), (alpha_2, beta_2) reverses to
    # (alpha_1, beta_2), (alpha_2, beta_1)
    seq = sequence([(2, 3), (5, 7)], [(11, 13), (5, 7)])
    t3 = build_T3(seq)
    assert t3 == conj_transfer([pair(2, 7), pair(5, 3)], 2)
    assert det(t3) == Poly.const(1)


def test_product_of_blocks_has_det_one():
    rng = random.Random(307)
    for _ in range(5):
        p = rng.randint(3, 6)
        seq = normalize_kp(sequence([], [(q.a, q.b) for q in random_periodic(rng, p)]))
        product = build_T3(seq) @ build_T2(seq.periodic, 1) @ build_T1(seq)
        assert det(product) == Poly.const(1)


# zeros, small rationals, and numerators up to 2**80 over denominators up to
# 2**60, so the common denominators of the fused step differ and grow
_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**60)),
)
_ENTRY_POLYS = st.lists(_ENTRIES, max_size=6).map(Poly.from_coeffs)
_A = st.one_of(
    st.integers(1, 9).map(Fraction),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(1, 2**70), st.integers(1, 2**60)),
)
_B = st.one_of(st.just(Fraction(0)), _ENTRIES)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENTRY_POLYS, min_size=4, max_size=4), _A, _B)
def test_transfer_step_matches_the_composed_step(entries, a, b):
    # one packed step of the walk from a start whose entries have unequal
    # denominators (as the verifier starts at its kernel), decoded, against
    # general products, sums and scalings: the new first row is
    # ((z - b)*row1 + row2)/a and the new second row -a*row1
    t = Mat2(*entries)
    shift = Poly.from_coeffs([-b, 1])
    expected = Mat2(
        Poly.const(1 / a) * (shift * t.a11 + t.a21),
        Poly.const(1 / a) * (shift * t.a12 + t.a22),
        Poly.const(-a) * t.a11,
        Poly.const(-a) * t.a12,
    )
    # the start over the lcm of its denominators, packed at the width that
    # one bound on the coefficients of both its rows gives
    common = lcm(*(e.den for e in t.entries()))
    nums = [[n * (common // e.den) for n in e.num] for e in t.entries()]
    h = max(map(abs, sum(nums, [])), default=0)
    table = int_pairs([pair(a, b)])
    w = packed_width(table, h)
    start, (*packed, den) = packed_walk(table, w, (*(pack(num, w) for num in nums), common))
    assert Mat2(*(decode(x, start[4], w) for x in start[:4])) == t
    result = Mat2(*(decode(x, den, w) for x in packed))
    assert result == expected
    for poly in result.entries():
        assert poly.den > 0 and gcd(poly.den, *poly.num) == 1
        assert not poly.num or poly.num[-1] != 0


def _big_rational(rng: random.Random, digits: int, positive: bool) -> Fraction:
    num = rng.randint(1, 10 ** rng.randint(1, digits))
    den = rng.randint(1, 10 ** rng.randint(1, digits))
    return Fraction(num if positive or rng.random() < 0.5 else -num, den)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 24), st.integers(1, 200))
def test_packed_walk_matches_the_transfer_prefixes(seed, p, digits):
    # from the identity, the packed matrix after n steps is T_n over den:
    # every raw coefficient (the exact coefficient times den) of the
    # entries, the trace and the Q cofactor kd*x21 + kn*x12 stays below
    # 2^(w-2) for the width that the pre-pass picks, and decoding gives T_n,
    # as does `conj_transfer`, which picks its own width
    rng = random.Random(seed)
    pairs = [
        pair(_big_rational(rng, digits, True), _big_rational(rng, digits, False))
        for _ in range(p)
    ]
    ak2 = rng.choice(pairs).a ** 2
    kn, kd = ak2.numerator, ak2.denominator
    table = int_pairs(pairs)
    w = packed_width(table, kn + kd)
    assert w % 8 == 0
    t = (1, 0, 0, 1, 1)
    for n, (q, reference) in enumerate(zip(table, transfer_prefixes(pairs, p)[1:]), start=1):
        t = packed_step(t, q, w)
        den = t[4]
        raw = []
        for x, entry in zip(t[:4], reference.entries()):
            assert den % entry.den == 0
            raw.append([n * (den // entry.den) for n in entry.num])
            assert pack(raw[-1], w) == x
        assert Mat2(*(decode(x, den, w) for x in t[:4])) == reference
        assert conj_transfer(pairs, n) == reference
        pad = max(map(len, raw))
        r11, r12, r21, r22 = ([*r, *[0] * (pad - len(r))] for r in raw)
        combined = [*r11, *r12, *r21, *r22]
        combined += [x + y for x, y in zip(r11, r22)]
        combined += [kd * x + kn * y for x, y in zip(r21, r12)]
        assert max(map(abs, combined), default=0) < 2 ** (w - 2)
