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
    second_solution_value,
    sequence,
    verify_main_identity,
    verify_splits,
)
from palinfrac.exactalg import poly_is_square
from palinfrac.jacobi import require_kp_normalized
from palinfrac.orthopoly import build_T1, build_T3, conj_transfer
from palinfrac.quadratic import numeric_identity_check, reversed_fold, stripped_tails
from conftest import (
    IDENTITY,
    brute_splits,
    composed_step,
    doubly_palindromic_period,
    mirror,
    purely_periodic,
    random_periodic,
    random_rational,
    ref_gcd,
    reversed_periodic,
    whole_period_prepared,
)
from test_jacobi import paper_example_periodic


def chebyshev_relation() -> QuadraticRelation:
    return periodic_quadratic([pair(1, 0)])


def residual(relation: QuadraticRelation, y, z):
    """alpha(z)*y^2 + beta(z)*y + gamma(z), in the arithmetic of y and z."""
    return relation.alpha(z) * y * y + relation.beta(z) * y + relation.gamma(z)


def proportional(r: QuadraticRelation, s: QuadraticRelation) -> bool:
    """Exact cross-multiplication test for projective equality."""
    return (
        r.alpha * s.beta == s.alpha * r.beta
        and r.alpha * s.gamma == s.alpha * r.gamma
        and r.beta * s.gamma == s.beta * r.gamma
    )


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
        m = eval_periodic_m(purely_periodic(periodic), z)
        assert abs(residual(relation, m, z)) < 1e-9


def test_doubled_period_relation_is_proportional():
    single = chebyshev_relation().canonical()
    doubled = periodic_quadratic([pair(1, 0), pair(1, 0)]).canonical()
    assert proportional(doubled, single)
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
    z = Poly((0, 1), 1)
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
        assert proportional(back, relation)
        assert back == relation


def test_doubled_period_relation_proportional_general():
    rng = random.Random(409)
    for _ in range(10):
        periodic = random_periodic(rng, rng.randint(1, 4), max_mag=4)
        single = periodic_quadratic(periodic).canonical()
        doubled = periodic_quadratic(periodic + periodic).canonical()
        assert proportional(doubled, single)


def test_pullback_relation_annihilates_M_numerically():
    # one preperiodic pair over a constant tail
    seq = normalize_kp(sequence([(1, 0)], [(1, 0)]))
    relation = pullback_quadratic(chebyshev_relation(), seq.preperiodic)
    rng = random.Random(402)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        m_val = eval_m(seq, z)
        assert abs(residual(relation, m_val, z)) < 1e-9


def test_second_solution_vieta():
    relation = chebyshev_relation()
    z = 3j
    m = eval_periodic_m(purely_periodic([pair(1, 0)]), z)
    second = second_solution_value(relation, m, z)
    assert abs(second - 1 / m) < 1e-12
    assert abs(residual(relation, second, z)) < 1e-10
    alpha_z, beta_z = relation.alpha(z), relation.beta(z)
    assert abs((m + second) - (-beta_z / alpha_z)) < 1e-10


def test_verify_holds_at_valid_split():
    periodic = [pair(1, 0), pair(1, 0), pair(2, 3), pair(1, 3)]
    assert brute_splits(periodic) == [1]
    seq = normalize_kp(purely_periodic(periodic))
    prep = prepare(seq)
    report = verify_main_identity(prep, 1)
    assert report.holds
    assert (report.residual_P_degree, report.residual_Q_degree) == (-1, -1)
    residual_p, residual_q, holds = product_route_reports(prep)[1]
    assert holds and residual_p.is_zero() and residual_q.is_zero()


def test_verify_fails_at_invalid_split():
    periodic = [pair(1, 0), pair(1, 0), pair(2, 3), pair(1, 3)]
    seq = normalize_kp(purely_periodic(periodic))
    prep = prepare(seq)
    report = verify_main_identity(prep, 2)
    assert not report.holds
    assert (report.residual_P_degree, report.residual_Q_degree) != (-1, -1)
    residual_p, residual_q, _ = product_route_reports(prep)[2]
    assert (report.residual_P_degree, report.residual_Q_degree) == (
        residual_p.degree, residual_q.degree)


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
                assert single == report


def product_route_reports(prep) -> dict:
    """The reference sweep: form T3*T2(ell)*T1 for every ell, then collect.

    P = alpha*D - beta*C - ak^2*gamma*A and Q = gamma*(C + ak^2*B) with
    [[A, B], [C, D]] the product, T2(ell)*T1 extended one step per ell;
    returns (P, Q, holds) by ell.
    Every block comes from `composed_step`, not from the packed walk, and
    T3 from the index-reversed preperiodic block, not from `build_T3`, so
    the reference shares neither the packed step nor the similarity.
    """
    require_kp_normalized(prep.seq)
    al, be, ga = prep.relation.alpha, prep.relation.beta, prep.relation.gamma
    pre = prep.seq.preperiodic
    t1 = reduce(composed_step, pre, IDENTITY)
    t3 = reduce(composed_step, reversed_periodic(pre), IDENTITY)
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
    t1 = reduce(composed_step, preperiodic, IDENTITY)
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
    tail = periodic_quadratic(periodic)
    assert disc(tail) == trace * trace - Poly.const(4)
    assert disc(prep.relation) == disc(prep.scaled_tail)
    assert not poly_is_square(disc(prep.relation))
    assert not prep.relation.alpha.is_zero() and not prep.relation.gamma.is_zero()
    assert not tail.gamma.is_zero()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(1, 5))
def test_t3_is_t1_under_the_diagonal_similarity(seed, k, p):
    # T3 = D*T1^T*D^-1 with D = diag(1, -ak^2) is the recurrence over the
    # reversed block of random pairs, and it makes T1*W_Q*T3 = W_Q for the
    # gamma of M's relation
    rng = random.Random(seed)
    periodic = random_periodic(rng, p, max_mag=5)
    preperiodic = random_periodic(rng, k, max_mag=5)
    periodic[-1] = preperiodic[-1]
    seq = JacobiSequence(tuple(preperiodic), tuple(periodic))
    t1, t3 = build_T1(seq), build_T3(seq)
    assert t3 == conj_transfer(reversed_periodic(preperiodic), k)
    prep = prepare(seq)
    ga, zero = prep.relation.gamma, Poly.zero()
    w_q = Mat2(zero, ga, ga.scale(prep.ak2), zero)
    assert t1 @ w_q @ t3 == w_q


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(0, 3),
    st.integers(1, 5),
    st.sampled_from(["one period", "pairs + one period", "random"]),
)
def test_build_T1_is_the_transfer_over_the_block(seed, k, p, block):
    # T1 is the composed steps' product over a block of exactly one period,
    # of pairs + one period, or of random pairs ending with the last
    # periodic pair; whatever the block, `prepare` reads the tail off the
    # period walk, and the walk leaves the degree of the Q cofactor of every
    # prefix T2(ell)
    rng = random.Random(seed)
    periodic = tuple(random_periodic(rng, p, max_mag=5))
    preperiodic = tuple(random_periodic(rng, k, max_mag=5))
    if block == "one period":
        preperiodic = periodic
    elif block == "pairs + one period":
        preperiodic += periodic
    else:
        preperiodic += periodic[-1:]
    seq = JacobiSequence(preperiodic, periodic)
    prep = prepare(seq)
    assert prep.scaled_tail.canonical() == periodic_quadratic(periodic).canonical()
    assert build_T1(seq) == reduce(composed_step, preperiodic, IDENTITY)
    prefixes = [conj_transfer(periodic, ell + 1) for ell in range(1, p - 1)]
    cofactors = [t.a21 + t.a12.scale(prep.ak2) for t in prefixes]
    assert prep.cofactor_degrees == tuple(s.degree for s in cofactors)


def test_prepare_reads_the_tail_off_the_primitive_root():
    # a period of r copies of a block of q pairs has r times the block's
    # tail relation times U_{r-1}(tr T_q / 2), so both canonicalise alike,
    # and `prepare`, which decodes T_q, builds what the whole period's
    # canonical tail gives: relation, scaled tail, cofactor degrees, and
    # the degrees of every report; the whole period's tail, whose gcd has
    # degree q*(r - 1), makes `canonical` certify a nonconstant candidate
    # for some of the generated sequences
    gcd_degrees = []

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 8),
        st.integers(1, 4),
        st.integers(0, 3),
        st.sampled_from(["doubly", "random"]),
    )
    def check(seed, q, r, k, kind):
        rng = random.Random(seed)
        if kind == "doubly" and q >= 3:
            block = doubly_palindromic_period(rng, q, rng.randint(1, q - 2))
        else:
            block = random_periodic(rng, q, max_mag=5)
        periodic = tuple(block * r)
        tail = periodic_quadratic(periodic)
        triple = (tail.alpha, tail.beta, tail.gamma)
        gcd_degrees.append(len(ref_gcd(*(t.coeffs for t in triple))) - 1)
        assert tail.canonical() == periodic_quadratic(block).canonical()
        preperiodic = tuple(random_periodic(rng, k, max_mag=5))
        seq = normalize_kp(JacobiSequence(preperiodic, periodic))
        prep, reference = prepare(seq), whole_period_prepared(seq)
        assert prep.relation == reference.relation
        assert prep.scaled_tail == reference.scaled_tail
        assert prep.cofactor_degrees == reference.cofactor_degrees
        degrees = {
            ell: (report.residual_P_degree, report.residual_Q_degree)
            for ell, report in verify_splits(prep).items()
        }
        expected = product_route_reports(reference)
        assert degrees == {ell: (rp.degree, rq.degree) for ell, (rp, rq, _) in expected.items()}

    check()
    assert any(degree > 0 for degree in gcd_degrees)


def test_prepare_walks_a_one_period_block_once(monkeypatch):
    import palinfrac.orthopoly as orthopoly

    # the period is walked once, on packed integers, and the preperiodic
    # block is not walked at all, whether it is exactly one period or not
    calls = []
    step = orthopoly.packed_step

    def counting(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(orthopoly, "packed_step", counting)
    p = 24
    periodic = tuple(random_periodic(random.Random(15), p))
    seq = normalize_kp(JacobiSequence((), periodic))
    assert seq.preperiodic == seq.periodic
    for block in (seq.preperiodic, periodic[:2] + periodic):
        calls.clear()
        prepare(JacobiSequence(block, periodic))
        assert len(calls) == p


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(3, 24),
    st.integers(0, 3),
    st.booleans(),
    st.sampled_from(["doubly", "random", "multi"]),
)
def test_residual_degrees_match_the_product_route(seed, p, k, normalized, kind):
    # the degree of Q(ell) is deg gamma + deg s(ell) for the cofactor s(ell)
    # of the period walk, and that of P(ell) the packed trace's; neither
    # needs a product, and both are the degrees of the polynomials the
    # product route forms, also where `normalize_kp` ends the block with a
    # whole period that the pullback skips
    rng = random.Random(seed)
    if kind == "doubly":
        periodic = doubly_palindromic_period(rng, p, rng.randint(1, p - 2))
    elif kind == "random":
        periodic = random_periodic(rng, p, max_mag=5)
    else:
        periodic = multi_split_period(rng, p)
    preperiodic = random_periodic(rng, k, max_mag=5)
    if normalized and k:
        preperiodic[-1] = periodic[-1]
    seq = normalize_kp(JacobiSequence(tuple(preperiodic), tuple(periodic)))
    prep = prepare(seq)
    reports = verify_splits(prep)
    reference = product_route_reports(prep)
    assert list(reports) == list(reference)
    for ell, (residual_p, residual_q, holds) in reference.items():
        report = reports[ell]
        assert (report.residual_P_degree, report.residual_Q_degree, report.holds) == (
            residual_p.degree, residual_q.degree, holds)
    assert [ell for ell, r in reports.items() if r.holds] == brute_splits(periodic)


def test_reports_hold_verdicts_and_degrees_only():
    # after the sweep, neither the reports nor `Prepared` hold a polynomial
    # per ell: a report is its ell and two degrees, and its degrees and
    # verdict are the product route's
    path = Path(__file__).parent / "data" / "verify_p24.json"
    seq = normalize_kp(load_sequence(path.read_bytes()))
    assert seq.p == 24
    prep = prepare(seq)
    reports = verify_splits(prep)
    for report in reports.values():
        assert list(vars(report)) == ["ell", "residual_P_degree", "residual_Q_degree"]
        assert all(type(value) is int for value in vars(report).values())
    assert not any(
        isinstance(value, tuple) and any(isinstance(x, Poly) for x in value)
        for value in vars(prep).values()
    )
    assert all(type(d) is int for d in prep.cofactor_degrees)
    reference = product_route_reports(prep)
    assert [ell for ell, r in reports.items() if r.holds] == [9]
    for ell, report in reports.items():
        residual_p, residual_q, holds = reference[ell]
        assert (report.residual_P_degree, report.residual_Q_degree, report.holds) == (
            residual_p.degree, residual_q.degree, holds)


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
    # the degrees read off the traces of T2(ell)*L^T and the cofactors must
    # be those of the polynomials the product route collects, at every ell,
    # with the same verdicts, and the normalization check must fire alike
    prep, periodic, ell = sweep_case(seed, p, k, kind, fault)

    def residuals(reports):
        return {
            ell: (r.residual_P_degree, r.residual_Q_degree, r.holds)
            for ell, r in reports.items()
        }

    def reference():
        return {
            ell: (rp.degree, rq.degree, holds)
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


Z0 = complex(0.37, 1.31)


def cross_check(seq, z=Z0) -> dict:
    """The cross-check of every ell at z, as `verify` runs it, keyed by ell."""
    prep = prepare(seq)
    m = eval_periodic_m(seq, z)
    second = second_solution_value(prep.relation, fold_preperiodic(seq, m, z), z)
    folded = reversed_fold(seq, second, z)
    return {
        ell: numeric_identity_check(stripped, folded)
        for ell, stripped in enumerate(stripped_tails(seq, m, z), start=1)
    }


def test_stripped_tails_from_a_lowest_ell_keep_the_bits():
    # eval and verify --ell fold only the levels above the ell they read; the
    # same operations in the same order must give the same bits as the full
    # backward pass
    rng = random.Random(2417)
    for trial in range(60):
        p = rng.randint(3, 12)
        block = random_periodic(rng, rng.randint(0, 3))
        seq = normalize_kp(JacobiSequence(tuple(block), tuple(random_periodic(rng, p))))
        for _ in range(4):
            z = complex(rng.uniform(-3.0, 3.0), 10 ** rng.uniform(-3.0, 4.0))
            m = eval_periodic_m(seq, z)
            tails = stripped_tails(seq, m, z)
            for lowest in range(1, p - 1):
                assert repr(stripped_tails(seq, m, z, lowest)) == repr(tails[lowest - 1 :]), (
                    trial, z, lowest)


def test_identity_residual_keeps_mpmath_precision():
    # at an mpmath point the folds read the exact pairs, so both sides keep
    # the working precision: a holding identity leaves a residual near
    # 10^-50, and a failing one stays far above it
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(1701)
    holding = failing = 0
    with mpmath.workdps(50):
        for trial in range(24):
            p = rng.randint(3, 10)
            periodic = (
                doubly_palindromic_period(rng, p, rng.randint(1, p - 2))
                if trial % 3
                else random_periodic(rng, p)
            )
            preperiodic = random_periodic(rng, rng.randint(0, 3))
            seq = normalize_kp(JacobiSequence(tuple(preperiodic), tuple(periodic)))
            z = mpmath.mpc(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            splits = brute_splits(periodic)
            for ell, check in cross_check(seq, z).items():
                if ell in splits:
                    holding += 1
                    assert check["residual"] <= 1e-40 and check["ok"], (seq, ell)
                else:
                    failing += 1
                    assert check["residual"] >= 1e-6 and not check["ok"], (seq, ell)
    assert holding >= 16 and failing >= 40


def test_numeric_identity_agreement_when_holds():
    # both sides are backward level folds, which contract in the upper half
    # plane, so double precision witnesses a holding identity to about 1e-15
    rng = random.Random(405)
    for _ in range(12):
        p = rng.randint(3, 12)
        ell = rng.randint(1, p - 2)
        periodic = doubly_palindromic_period(rng, p, ell, max_mag=3)
        preperiodic = random_periodic(rng, rng.randint(0, 2), max_mag=3)
        seq = normalize_kp(JacobiSequence(tuple(preperiodic), tuple(periodic)))
        for _ in range(5):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2.5))
            check = cross_check(seq, z)[ell]
            assert check["residual"] <= 1e-10 and check["ok"]


def test_numeric_identity_disagreement_when_fails():
    periodic = [pair(1, 0), pair(1, 0), pair(2, 3), pair(1, 3)]
    checks = cross_check(normalize_kp(purely_periodic(periodic)), 0.3 + 1.1j)
    assert checks[1]["ok"] and checks[1]["residual"] < 1e-12
    assert checks[2]["residual"] > 1e-3 and not checks[2]["ok"]


def test_cross_check_flags_planted_faults():
    # at a holding ell the check stays ok, and it flags the neighbouring
    # ell - 1 and ell + 1 where those fail; moving b_{ell+2}, the first level
    # of the stripped tail, by 1e-6 * max(|b|, 1) is flagged too, unless
    # ell = p - 2, where b_{ell+2} = b_p is a one-pair palindrome and the
    # moved sequence still holds
    rng = random.Random(2201)
    flagged = moved_flagged = 0
    for trial in range(64):
        p = rng.randint(3, 24)
        ell = rng.randint(1, p - 2)
        periodic = doubly_palindromic_period(rng, p, ell)
        preperiodic = tuple(random_periodic(rng, rng.randint(0, 3)))
        checks = cross_check(normalize_kp(JacobiSequence(preperiodic, tuple(periodic))))
        assert checks[ell]["ok"], (trial, ell)
        splits = brute_splits(periodic)
        for near in (ell - 1, ell + 1):
            if 1 <= near <= p - 2 and near not in splits:
                assert not checks[near]["ok"], (trial, near)
                flagged += 1
        i = (ell + 1) % p
        b = periodic[i].b
        periodic[i] = pair(periodic[i].a, b + max(abs(b), 1) / 10**6)
        moved = cross_check(normalize_kp(JacobiSequence(preperiodic, tuple(periodic))))
        assert moved[ell]["ok"] == (ell == p - 2) == (ell in brute_splits(periodic)), trial
        moved_flagged += ell < p - 2
    assert flagged >= 60 and moved_flagged >= 50


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


_ENTRIES = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_A_ENTRIES = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@st.composite
def _empty_block_periods(draw):
    """A period of p = 1..12 pairs: random, doubly palindromic, or one block
    repeated two or more times."""
    p = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("random", "doubly palindromic", "repeated")))
    if kind == "doubly palindromic" and p >= 3:
        ell = draw(st.integers(1, p - 2))

        def palindromes(entries, n):  # of lengths n and p - n
            return [mirror(draw(st.lists(entries, min_size=m, max_size=m))) for m in (n, p - n)]

        (a1, a2), (b1, b2) = palindromes(_A_ENTRIES, ell), palindromes(_ENTRIES, ell + 1)
        return tuple(map(pair, a1 + a2, b1 + b2))
    q = p
    if kind == "repeated" and p > 1:
        q = draw(st.sampled_from([d for d in range(1, p) if p % d == 0]))
    block = draw(st.lists(st.builds(pair, _A_ENTRIES, _ENTRIES), min_size=q, max_size=q))
    return tuple(block * (p // q))


@settings(max_examples=100, deadline=None)
@given(_empty_block_periods())
def test_prepare_treats_an_empty_block_as_one_period(periodic):
    # `prepare` reads a_k off the period and strips appended periods before
    # the pullback, so an empty block and the one period `normalize_kp`
    # appends give the same relations, and `reverse_asymptotics` needs no
    # normalization of its own
    seq = JacobiSequence((), periodic)
    got, want = prepare(seq), prepare(normalize_kp(seq))
    for name in ("relation", "scaled_tail", "ak2", "cofactor_degrees"):
        assert getattr(got, name) == getattr(want, name), name
    assert reverse_asymptotics(seq) == reverse_asymptotics(normalize_kp(seq))


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
            m = fold_preperiodic(seq, eval_periodic_m(seq, z), z)
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
