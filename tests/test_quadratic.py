"""Quadratic relations, the exact identity verifier, and the exact reverse test."""

import random
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from palinfrac import (
    IndexOutOfRange,
    JacobiSequence,
    Mat2,
    NotNormalized,
    PalinfracError,
    Poly,
    QuadraticRelation,
    conj_transfer,
    eval_m,
    eval_periodic_m,
    fold_preperiodic,
    load_sequence,
    normalize_kp,
    pair,
    periodic_quadratic,
    prepare,
    pullback_quadratic,
    reverse_asymptotics,
    reversed_periodic,
    second_solution_value,
    sequence,
    verify_main_identity,
    verify_splits,
)
from palinfrac.exactalg import poly_is_square
from palinfrac.jacobi import require_kp_normalized
from palinfrac.quadratic import numeric_identity_check
from conftest import (
    brute_splits,
    doubly_palindromic_period,
    purely_periodic,
    random_periodic,
    random_rational,
)
from test_jacobi import paper_example_periodic


def chebyshev_relation() -> QuadraticRelation:
    return periodic_quadratic([pair(1, 0)])


def test_periodic_quadratic_single_pair():
    relation = chebyshev_relation()
    assert relation.alpha == Poly.const(-1)
    assert relation.beta == Poly.from_coeffs([0, -1])
    assert relation.gamma == Poly.const(-1)


def test_periodic_quadratic_numeric_residual():
    rng = random.Random(401)
    for _ in range(20):
        periodic = random_periodic(rng, rng.randint(1, 5), max_mag=5)
        relation = periodic_quadratic(periodic)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.5))
        m = eval_periodic_m(periodic_quadratic(periodic), z)
        assert abs(relation.residual(m, z)) < 1e-9


def test_doubled_period_relation_is_proportional():
    single = chebyshev_relation().canonical()
    doubled = periodic_quadratic([pair(1, 0), pair(1, 0)]).canonical()
    assert doubled.is_proportional_to(single)
    assert doubled == single


def substitution_pullback(relation: QuadraticRelation, t: Mat2) -> QuadraticRelation:
    """The reference pullback: substitute y = (a*x + b)/(c*x + d) into the
    relation, clear the squared denominator and collect in x, with general
    polynomial products; nothing is canonicalized."""
    a, b, c, d = t.entries()
    al, be, ga = relation.alpha, relation.beta, relation.gamma
    return QuadraticRelation(
        al * (a * a) + be * (a * c) + ga * (c * c),
        (al * (a * b)).scale(2) + be * (a * d + b * c) + (ga * (c * d)).scale(2),
        al * (b * b) + be * (b * d) + ga * (d * d),
    )


def test_pullback_identity_is_noop():
    relation = chebyshev_relation()
    assert pullback_quadratic(relation, ()) == relation


def test_pullback_one_pair_closed_form():
    # one congruence by S(a, b); with u = z - b the form maps to
    # (alpha*u^2/a^2 - beta*u + a^2*gamma, 2*alpha*u/a^2 - beta, alpha/a^2)
    z = Poly.x()
    al, be, ga = Poly.const(2), z, Poly.from_coeffs([1, 0, 3])
    q = pair(Fraction(3, 2), Fraction(-1, 3))
    u, a2 = z - Poly.const(q.b), q.a * q.a
    back = pullback_quadratic(QuadraticRelation(al, be, ga), [q])
    assert back == QuadraticRelation(
        (al * u * u).scale(1 / a2) - be * u + ga.scale(a2),
        (al * u).scale(2 / a2) - be,
        al.scale(1 / a2),
    )


def test_pullback_through_its_own_period_is_itself():
    # m = f_T(m) for T over one period, so the pullback through the period
    # is proportional to the period's relation; the fixed-point form is the
    # symmetric part of -K*T, K = [[0, -1], [1, 0]], and T^T*K*T = K when
    # det T = 1, so it is even equal
    rng = random.Random(408)
    for _ in range(10):
        periodic = random_periodic(rng, rng.randint(1, 4), max_mag=4)
        relation = periodic_quadratic(periodic)
        back = pullback_quadratic(relation, periodic)
        assert back.is_proportional_to(relation)
        assert back == relation


def test_doubled_period_relation_proportional_general():
    rng = random.Random(409)
    for _ in range(10):
        periodic = random_periodic(rng, rng.randint(1, 4), max_mag=4)
        single = periodic_quadratic(periodic).canonical()
        doubled = periodic_quadratic(periodic + periodic).canonical()
        assert doubled.is_proportional_to(single)


def test_pullback_relation_annihilates_M_numerically():
    # one preperiodic pair over a constant tail
    seq = normalize_kp(sequence([(1, 0)], [(1, 0)]))
    relation = pullback_quadratic(chebyshev_relation(), seq.preperiodic)
    rng = random.Random(402)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        m_val = eval_m(prepare(seq), z)
        assert abs(relation.residual(m_val, z)) < 1e-9


def test_second_solution_vieta():
    relation = chebyshev_relation()
    z = 3j
    m = eval_periodic_m(periodic_quadratic([pair(1, 0)]), z)
    second = second_solution_value(relation, m, z)
    assert abs(second - 1 / m) < 1e-12
    assert abs(relation.residual(second, z)) < 1e-10
    alpha_z, beta_z = relation.alpha(z), relation.beta(z)
    assert abs((m + second) - (-beta_z / alpha_z)) < 1e-10


def test_verify_holds_at_valid_split():
    periodic = [pair(1, 0), pair(1, 0), pair(2, 3), pair(1, 3)]
    assert brute_splits(periodic) == [1]
    seq = normalize_kp(purely_periodic(periodic))
    report = verify_main_identity(prepare(seq), 1)
    assert report.holds
    assert report.residual_P.is_zero() and report.residual_Q.is_zero()


def test_verify_fails_at_invalid_split():
    periodic = [pair(1, 0), pair(1, 0), pair(2, 3), pair(1, 3)]
    seq = normalize_kp(purely_periodic(periodic))
    report = verify_main_identity(prepare(seq), 2)
    assert not report.holds
    assert not (report.residual_P.is_zero() and report.residual_Q.is_zero())


def test_verify_paper_example():
    seq = normalize_kp(purely_periodic(paper_example_periodic()))
    report = verify_main_identity(prepare(seq), 4)
    assert report.holds


def test_verify_requires_normalization_and_range():
    seq = purely_periodic([pair(1, 0)] * 4)
    with pytest.raises(NotNormalized):
        verify_main_identity(prepare(seq), 1)
    normalized = normalize_kp(seq)
    with pytest.raises(IndexOutOfRange):
        verify_main_identity(prepare(normalized), 0)
    with pytest.raises(IndexOutOfRange):
        verify_main_identity(prepare(normalized), 3)


def test_detector_equivalence_random_sweep():
    rng = random.Random(403)
    for trial in range(25):
        p = rng.randint(3, 7)
        if trial % 2 == 0:
            periodic = doubly_palindromic_period(rng, p, rng.randint(1, p - 2))
        else:
            periodic = random_periodic(rng, p, max_mag=4)
        seq = normalize_kp(purely_periodic(periodic))
        holds = [ell for ell, rep in verify_splits(prepare(seq)).items() if rep.holds]
        assert holds == brute_splits(periodic)


def test_verify_splits_agrees_with_single_calls():
    # the sweep extends T2(ell)*T1 one step per ell; every ell of every
    # size and preperiod length must match a from-scratch single call
    rng = random.Random(404)
    for p in (3, 5, 12, 24):
        for k in (1, 2, 3):
            periodic = doubly_palindromic_period(rng, p, rng.randint(1, p - 2))
            preperiodic = random_periodic(rng, k - 1) + [periodic[-1]]
            prep = prepare(JacobiSequence(tuple(preperiodic), tuple(periodic)))
            batch = verify_splits(prep)
            assert list(batch) == list(range(1, p - 1))
            for ell, report in batch.items():
                single = verify_main_identity(prep, ell)
                assert single.ell == report.ell == ell
                assert single.holds == report.holds
                assert single.residual_P == report.residual_P
                assert single.residual_Q == report.residual_Q


def composed_step(t: Mat2, q) -> Mat2:
    """S(q.a, q.b) @ t as a general 2x2 product of polynomial matrices."""
    inv_a = 1 / q.a
    s = Mat2(
        Poly.from_coeffs([-q.b * inv_a, inv_a]),
        Poly.const(inv_a),
        Poly.const(-q.a),
        Poly.zero(),
    )
    return s @ t


def product_route_reports(prep) -> dict:
    """The reference sweep: form T3*T2(ell)*T1 for every ell, then collect.

    P = alpha*D - beta*C - ak^2*gamma*A and Q = gamma*(C + ak^2*B) with
    [[A, B], [C, D]] the product, T2(ell)*T1 extended one step per ell.
    Every block comes from `composed_step`, not from `transfer_step`, and
    T3 from the index-reversed preperiodic block, not from `prep.t3`, so the
    reference shares neither the fused step nor the similarity.
    """
    require_kp_normalized(prep.seq)
    al, be, ga = prep.relation.alpha, prep.relation.beta, prep.relation.gamma
    pre = prep.seq.preperiodic
    t1 = reduce(composed_step, pre, Mat2.identity())
    t3 = reduce(composed_step, reversed_periodic(pre), Mat2.identity())
    periodic = prep.seq.periodic
    steps = accumulate(periodic[: len(periodic) - 1], composed_step, initial=t1)
    reports = {}
    for ell, t21 in enumerate(islice(steps, 2, None), start=1):
        a_mat, b_mat, c_mat, d_mat = (t3 @ t21).entries()
        residual_p = al * d_mat - be * c_mat - (ga * a_mat).scale(prep.ak2)
        residual_q = ga * (c_mat + b_mat.scale(prep.ak2))
        reports[ell] = (residual_p, residual_q, residual_p.is_zero() and residual_q.is_zero())
    return reports


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(0, 6),
    st.integers(1, 4),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2),
)
def test_stepwise_pullback_matches_the_substitution_reference(
    seed, k, q, repeats, normalized, copies
):
    # a period repeated r times has the relation of one period times a
    # polynomial of degree q*(r-1), so the gcd that `canonical` removes is
    # nontrivial whenever repeats > 1; whole periods at the end of the
    # block, which `prepare` does not pull back through, must not change
    # the relation
    rng = random.Random(seed)
    periodic = random_periodic(rng, q, max_mag=5) * repeats
    preperiodic = random_periodic(rng, k, max_mag=5)
    if normalized and k:
        preperiodic[-1] = periodic[-1]
    preperiodic += periodic * copies
    tail = periodic_quadratic(periodic)
    t1 = reduce(composed_step, preperiodic, Mat2.identity())
    reference = substitution_pullback(tail, t1)
    assert pullback_quadratic(tail, preperiodic) == reference
    prep = prepare(JacobiSequence(tuple(preperiodic), tuple(periodic)))
    assert prep.relation == reference.canonical()
    assert pullback_quadratic(prep.scaled_tail, preperiodic) == prep.relation


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 10),
    st.integers(0, 4),
    st.booleans(),
    st.integers(0, 2),
    st.booleans(),
)
def test_m_is_never_rational(seed, p, k, repeated, copies, normalized):
    # the proof in the `quadratic` module docstring, which lets the verifier
    # run without a guard: the det-1 pullback keeps the discriminant, the
    # tail's is tr(T_P)^2 - 4, and that is no square, so neither alpha nor
    # gamma can vanish; a repeated period makes `canonical` divide out a
    # nontrivial gcd, and whole periods may end the block
    rng = random.Random(seed)
    q = rng.choice([d for d in range(1, p) if p % d == 0] or [p]) if repeated else p
    periodic = random_periodic(rng, q, max_mag=5) * (p // q)
    preperiodic = random_periodic(rng, k, max_mag=5) + periodic * copies
    seq = JacobiSequence(tuple(preperiodic), tuple(periodic))
    if normalized:
        seq = normalize_kp(seq)
    prep = prepare(seq)

    def disc(relation):
        return relation.beta * relation.beta - (relation.alpha * relation.gamma).scale(4)

    t_p = conj_transfer(periodic, p)
    trace = t_p.a11 + t_p.a22
    assert disc(prep.tail) == trace * trace - Poly.const(4)
    assert disc(prep.relation) == disc(prep.scaled_tail)
    assert not poly_is_square(disc(prep.relation))
    assert not prep.relation.alpha.is_zero() and not prep.relation.gamma.is_zero()
    assert not prep.tail.gamma.is_zero()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 6), st.integers(1, 5), st.booleans())
def test_t3_is_t1_under_the_diagonal_similarity(seed, k, p, normalized):
    # T3 = D*T1^T*D^-1 with D = diag(1, -ak^2) is the recurrence over the
    # reversed block, whether or not the block ends with the last periodic
    # pair, and it makes T1*W_Q*T3 = W_Q
    rng = random.Random(seed)
    periodic = random_periodic(rng, p, max_mag=5)
    preperiodic = random_periodic(rng, k, max_mag=5)
    if normalized and k:
        preperiodic[-1] = periodic[-1]
    prep = prepare(JacobiSequence(tuple(preperiodic), tuple(periodic)))
    if k == 0:
        assert prep.t3 == Mat2.identity()
    else:
        assert prep.t3 == conj_transfer(reversed_periodic(preperiodic), k)
    ga, zero = prep.relation.gamma, Poly.zero()
    w_q = Mat2(zero, ga, ga.scale(prep.ak2), zero)
    assert prep.t1 @ w_q @ prep.t3 == w_q


def multi_split_period(rng: random.Random, p: int) -> list:
    """A doubly palindromic block of length q repeated p/q times, which splits
    at ell0, ell0 + q, ...; a single pair repeated when p has no block length."""
    blocks = [q for q in range(3, p // 2 + 1) if p % q == 0]
    if not blocks:
        return random_periodic(rng, 1, max_mag=4) * p
    q = rng.choice(blocks)
    return doubly_palindromic_period(rng, q, rng.randint(1, q - 2)) * (p // q)


def sweep_case(seed: int, p: int, k: int, kind: str, fault: str):
    rng = random.Random(seed)
    if kind == "doubly":
        periodic = doubly_palindromic_period(rng, p, rng.randint(1, p - 2))
    elif kind == "random":
        periodic = random_periodic(rng, p, max_mag=5)
    else:
        periodic = multi_split_period(rng, p)
    if k == 0:
        seq = purely_periodic(periodic)
        if fault != "unnormalized":
            seq = normalize_kp(seq)
    else:
        last = periodic[-1] if fault != "unnormalized" else pair(periodic[-1].a + 1, 0)
        seq = JacobiSequence(tuple(random_periodic(rng, k - 1, max_mag=5)) + (last,), tuple(periodic))
    return prepare(seq), periodic, rng.randint(1, p - 2)


def _outcome(run):
    try:
        return run()
    except PalinfracError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(3, 24),
    st.integers(0, 3),
    st.sampled_from(["doubly", "random", "multi"]),
    st.sampled_from(["none", "none", "unnormalized"]),
)
def test_sweep_matches_the_product_reference(seed, p, k, kind, fault):
    # the residuals as traces of T2(ell)*L^T must be the very polynomials the
    # product route collects, at every ell, and the normalization check must
    # fire alike
    prep, periodic, ell = sweep_case(seed, p, k, kind, fault)

    def residuals(reports):
        return {
            ell: (r.residual_P.num, r.residual_P.den, r.residual_Q.num, r.residual_Q.den, r.holds)
            for ell, r in reports.items()
        }

    def reference():
        return {
            ell: (rp.num, rp.den, rq.num, rq.den, holds)
            for ell, (rp, rq, holds) in product_route_reports(prep).items()
        }

    expected = _outcome(reference)
    assert _outcome(lambda: residuals(verify_splits(prep))) == expected
    single = _outcome(lambda: residuals({ell: verify_main_identity(prep, ell)}))
    if isinstance(expected, dict):
        assert single == {ell: expected[ell]}
        assert fault == "none"
        assert [e for e, row in expected.items() if row[-1]] == brute_splits(periodic)
    else:
        assert single == expected
        assert fault != "none"


def test_numeric_identity_agreement_when_holds():
    # Forward Moebius transport loses digits like the squared transfer-matrix
    # norm, so the cross-check runs at extended precision; the identity is
    # exact, the precision only affects how faithfully floats witness it.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(405)
    with mpmath.workdps(40):
        for _ in range(4):
            p = rng.randint(3, 6)
            ell = rng.randint(1, p - 2)
            periodic = doubly_palindromic_period(rng, p, ell, max_mag=3)
            prep = prepare(normalize_kp(purely_periodic(periodic)))
            entries = prep.product(ell).entries()
            for _ in range(5):
                z = mpmath.mpc(rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2.5))
                values = [e(z) for e in entries]
                m = eval_m(prep, z)
                second = second_solution_value(prep.relation, m, z)
                check = numeric_identity_check(prep, values, m, second)
                assert check["residual"] < 1e-8


def test_numeric_identity_disagreement_when_fails():
    periodic = [pair(1, 0), pair(1, 0), pair(2, 3), pair(1, 3)]
    prep = prepare(normalize_kp(purely_periodic(periodic)))
    z = 0.3 + 1.1j
    values = [e(z) for e in prep.product(2).entries()]
    m = eval_m(prep, z)
    second = second_solution_value(prep.relation, m, z)
    assert numeric_identity_check(prep, values, m, second)["residual"] > 1e-3


def test_reverse_true_for_purely_periodic_palindromic():
    rng = random.Random(406)
    periodic = doubly_palindromic_period(rng, 4, 1, max_mag=2)
    seq = normalize_kp(purely_periodic(periodic))
    assert reverse_asymptotics(seq).is_m_like


def test_reverse_false_with_mismatched_graft():
    report = reverse_asymptotics(sequence([(2, 0)], [(1, 0)]))
    assert not report.is_m_like
    # decay constant -1/(1 - alpha_1^2/a_p^2) = -1/(1-4) = 1/3
    assert abs(report.decay_constant - (1.0 / 3.0)) < 1e-2 / 3.0


def test_reverse_true_when_graft_preserves_periodicity():
    assert reverse_asymptotics(sequence([(1, 0)], [(1, 0)])).is_m_like


def test_reverse_decay_constant_formula():
    rng = random.Random(407)
    for alpha1, ap in [(2, 1), (3, 2), (Fraction(1, 2), 1)]:
        b1 = rng.randint(-2, 2)
        report = reverse_asymptotics(sequence([(alpha1, b1)], [(ap, 1)]))
        expected = -1.0 / (1.0 - float(Fraction(alpha1) ** 2 / Fraction(ap) ** 2))
        assert not report.is_m_like
        assert abs(report.decay_constant - expected) < 1e-2 * abs(expected)


def test_reverse_on_a_graft_too_small_for_floats():
    # 1e-200 entries make the relation's coefficients overflow a float; the
    # verdict reads exact leading coefficients, as for a = 1/2, 1/10 or 2
    path = Path(__file__).parent / "data" / "verify_float_overflow.json"
    seq = load_sequence(path.read_text())
    report = reverse_asymptotics(seq)
    assert not report.is_m_like
    assert report.decay_constant == -1


def random_reverse_stream(rng: random.Random) -> JacobiSequence:
    """p in 1..6, k in 0..3: a random or doubly palindromic period under a
    random block, a graft that continues the period, or that graft with one
    a-entry changed."""
    p, k = rng.randint(1, 6), rng.randint(0, 3)
    if p >= 3 and rng.random() < 0.5:
        periodic = doubly_palindromic_period(rng, p, rng.randint(1, p - 2), max_mag=3, max_den=3)
    else:
        periodic = random_periodic(rng, p, max_mag=3)
    kind = rng.choice(["random", "graft", "one-off"])
    if kind == "random":
        pre = [
            pair(random_rational(rng, 1, 3, 3), random_rational(rng, -3, 3, 3)) for _ in range(k)
        ]
    else:
        pre = [periodic[(i - k) % p] for i in range(k)]
        if kind == "one-off" and k:
            j = rng.randrange(k)
            pre[j] = pair(random_rational(rng, 1, 3, 3), pre[j].b)
    return JacobiSequence(tuple(pre), tuple(periodic))


def test_reverse_agrees_with_mpmath_reference():
    """The exact verdict against z*w(z) + 1 and z*Mtilde(z) at z = 1e6*i, 50 digits.

    M is the tail root folded through the block and Mtilde = -beta/alpha - M
    from the raw pullback of the tail relation, so the reference shares no
    canonicalization or leading-coefficient reading with the verdict.
    """
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(411)
    with mpmath.workdps(50):
        z = mpmath.mpc(0, 10**6)
        for _ in range(300):
            seq = random_reverse_stream(rng)
            if seq.k == 0:
                seq = normalize_kp(seq)
            report = reverse_asymptotics(seq)
            tail = periodic_quadratic(seq.periodic)
            relation = pullback_quadratic(tail, seq.preperiodic)
            m = fold_preperiodic(seq, eval_periodic_m(tail, z), z)
            m_tilde = -relation.beta(z) / relation.alpha(z) - m
            g = abs(z / (seq.preperiodic[-1].a ** 2 * m_tilde) + 1)
            assert g < 1e-4 if report.is_m_like else g > 1e-2
            if report.decay_constant is None:
                assert abs(z * m_tilde) > 1e3
            else:
                decay = report.decay_constant
                assert abs(z * m_tilde - decay) < 1e-3 * max(1, abs(decay))


def test_reverse_decay_constant_is_exact_for_one_pair_grafts():
    rng = random.Random(412)
    for _ in range(100):
        ap = random_rational(rng, 1, 5, 4)
        alpha1 = random_rational(rng, 1, 5, 4)
        while alpha1 == ap:
            alpha1 = random_rational(rng, 1, 5, 4)
        b1, bp = random_rational(rng, -3, 3, 3), random_rational(rng, -3, 3, 3)
        seq = sequence([(alpha1, b1)], [(ap, bp)])
        report = reverse_asymptotics(seq)
        assert not report.is_m_like
        assert report.decay_constant == -1 / (1 - alpha1**2 / ap**2)
