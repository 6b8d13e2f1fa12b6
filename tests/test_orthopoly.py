"""Recurrence polynomials and conjugated transfer matrices."""

import random
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from palinfrac import (
    IndexOutOfRange,
    InsufficientCoefficients,
    Mat2,
    NotNormalized,
    Poly,
    build_T1,
    build_T2,
    build_T3,
    conj_transfer,
    normalize_kp,
    pair,
    sequence,
)
from palinfrac.orthopoly import column_step, transfer_step
from conftest import det, random_periodic, scalar_first_kind, scalar_second_kind


CONSTANT = [pair(1, 0)] * 6


def transfer_prefixes(coeffs, n):
    """T_0 = identity, T_1, ..., T_n over the first n pairs of `coeffs`."""
    return list(accumulate(coeffs[:n], transfer_step, initial=Mat2.identity()))


def test_first_kind_base_case():
    assert [t.a11 for t in transfer_prefixes([], 0)] == [Poly.const(1)]


def test_first_kind_single_step():
    assert [t.a11 for t in transfer_prefixes([pair(1, 0)], 1)][1] == Poly.x()


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
    assert [t.a12 for t in transfer_prefixes(CONSTANT, 2)][2] == Poly.x()


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
    with pytest.raises(InsufficientCoefficients):
        conj_transfer([pair(1, 0)], 2)


def test_conj_transfer_single_step():
    t = conj_transfer([pair(1, 0)], 1)
    assert t == Mat2(Poly.x(), Poly.const(1), Poly.const(-1), Poly.zero())
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
    assert t1 == Mat2(Poly.x(), Poly.const(1), Poly.const(-1), Poly.zero())
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
        Poly.x(),
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
    # the fused step against general products, sums and scalings: the new
    # first row is ((z - b)*row1 + row2)/a and the new second row -a*row1
    t = Mat2(*entries)
    shift = Poly.from_coeffs([-b, 1])
    expected = Mat2(
        (shift * t.a11 + t.a21).scale(1 / a),
        (shift * t.a12 + t.a22).scale(1 / a),
        t.a11.scale(-a),
        t.a12.scale(-a),
    )
    result = transfer_step(t, pair(a, b))
    assert result == expected
    for poly in result.entries():
        assert poly.den > 0 and gcd(poly.den, *poly.num) == 1
        assert not poly.num or poly.num[-1] != 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 5), st.integers(1, 6), st.integers(1, 2))
def test_column_steps_on_the_period_transfer_give_the_block_transfer(seed, m, p, copies):
    # T1 = T_P * T_pre for a block of m pairs and then whole periods, by
    # right-multiplying the period transfer over the reversed pairs before
    # the last period; the pair-by-pair walk is the reference
    rng = random.Random(seed)
    periodic = random_periodic(rng, p, max_mag=5)
    block = random_periodic(rng, m, max_mag=5) + periodic * copies
    block_transfer = reduce(transfer_step, block, Mat2.identity())
    t_p = conj_transfer(periodic, p)
    assert reduce(column_step, reversed(block[:-p]), t_p) == block_transfer
    x = conj_transfer(random_periodic(rng, 2, max_mag=5), 2)
    assert reduce(column_step, reversed(block), x) == x @ block_transfer
