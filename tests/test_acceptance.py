"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Criterion 1 sweeps a few hundred exact
verifications and dominates the runtime (well under its 60 s budget).
"""

import functools
import json
import random
import time
from fractions import Fraction
from itertools import islice

import pytest

from palinfrac import (
    JacobiSequence,
    eval_m,
    eval_periodic_m,
    eval_truncated,
    normalize_kp,
    pair,
    periodic_quadratic,
    prepare,
    recover_coefficients,
    reverse_asymptotics,
    verify_main_identity,
    verify_splits,
)
from palinfrac.cli import main as cli_main
from palinfrac.exactalg import Mat2, Poly, decode
from palinfrac.jacobi import int_pairs
from palinfrac.orthopoly import packed_walk, packed_width
from conftest import (
    brute_splits,
    det,
    doubly_palindromic_period,
    purely_periodic,
    random_periodic,
    random_rational,
    reversed_periodic,
    strip_identity_check,
)
from test_jacobi import paper_example_periodic


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {description}")
                raise
            print(f"[criterion {number:2d}] PASS  {description}")
            return result

        return wrapper

    return decorate


@criterion(1, "detector equivalence on 200 random periodic parts, p in 3..12")
def test_criterion_1_detector_equivalence():
    rng = random.Random(20260808)
    started = time.monotonic()
    for trial in range(200):
        p = rng.randint(3, 12)
        if trial % 3 == 0:
            periodic = doubly_palindromic_period(rng, p, rng.randint(1, p - 2), max_mag=9)
        else:
            periodic = random_periodic(rng, p, max_mag=9)
        seq = normalize_kp(purely_periodic(periodic))
        holds = [ell for ell, report in verify_splits(prepare(seq)).items() if report.holds]
        assert holds == brute_splits(periodic), f"mismatch on trial {trial}: {periodic}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget is 60s"


@criterion(2, "100 generator-recipe positives verify with exactly zero residuals")
def test_criterion_2_constructive_positives():
    rng = random.Random(20260809)
    for _ in range(100):
        p = rng.randint(3, 10)
        ell = rng.randint(1, p - 2)
        periodic = doubly_palindromic_period(rng, p, ell)
        seq = normalize_kp(purely_periodic(periodic))
        report = verify_main_identity(prepare(seq), ell)
        assert report.holds
        assert report.residual_P_degree == -1
        assert report.residual_Q_degree == -1


@criterion(3, "100 single-entry perturbations rejected with nonzero residuals")
def test_criterion_3_constructive_negatives():
    rng = random.Random(20260810)
    produced = 0
    while produced < 100:
        p = rng.randint(3, 10)
        ell = rng.randint(1, p - 2)
        periodic = list(doubly_palindromic_period(rng, p, ell))
        index = rng.randrange(p)
        old = periodic[index]
        bump = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        if rng.random() < 0.5:
            periodic[index] = pair(old.a + bump, old.b)
        else:
            periodic[index] = pair(old.a, old.b + bump)
        if ell in brute_splits(periodic):
            continue  # perturbation happened to preserve the split
        seq = normalize_kp(purely_periodic(periodic))
        report = verify_main_identity(prepare(seq), ell)
        assert not report.holds
        assert (report.residual_P_degree, report.residual_Q_degree) != (-1, -1)
        produced += 1


@criterion(4, "doubled example string detected and verified through the CLI")
def test_criterion_4_paper_example_cli(tmp_path, capsys):
    doc = {
        "periodic": [[str(q.a), str(q.b)] for q in paper_example_periodic()],
    }
    path = tmp_path / "example.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["analyze", "--input", str(path), "--json"]) == 0
    analyze_report = json.loads(capsys.readouterr().out)
    assert analyze_report["p"] == 10
    assert 4 in analyze_report["splits"]
    assert cli_main(["verify", "--input", str(path), "--ell", "4"]) == 0
    capsys.readouterr()


@criterion(5, "transfer-matrix determinant is exactly 1 for n <= 50, 50 lists")
def test_criterion_5_determinant_invariant():
    rng = random.Random(20260811)
    one = Poly.const(1)
    for _ in range(50):
        coeffs = random_periodic(rng, 50, max_mag=9)
        # the n-th state of the packed walk, decoded, is conj_transfer(coeffs, n)
        pairs = int_pairs(coeffs)
        w = packed_width(pairs, 1, 1)
        for *entries, den in islice(packed_walk(pairs, w), 1, None):
            assert det(Mat2(*(decode(x, den, w) for x in entries))) == one


@criterion(6, "constant-stream evaluation matches the closed form to 1e-12")
def test_criterion_6_chebyshev_oracle():
    import cmath

    seq = purely_periodic([pair(1, 0)])
    for i in range(5):
        for j in range(5):
            z = complex(-2.0 + i * 1.0, 0.5 + j * 0.875)
            root = cmath.sqrt(z * z - 4)
            closed = (-z + root) / 2
            if closed.imag <= 0:
                closed = (-z - root) / 2
            assert abs(eval_m(seq, z) - closed) < 1e-12


@criterion(7, "eval_m agrees with depth-2000 truncation to 1e-8")
def test_criterion_7_truncation_consistency():
    rng = random.Random(20260812)
    for _ in range(20):
        seq = JacobiSequence(
            tuple(random_periodic(rng, rng.randint(0, 3), max_mag=10)),
            tuple(random_periodic(rng, rng.randint(1, 6), max_mag=10)),
        )
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.5))
            assert abs(eval_m(seq, z) - eval_truncated(seq, z, 2000)) < 1e-8


@criterion(8, "strip identities: Moebius route, and stripped-vs-reversed gap")
def test_criterion_8_stripping_identities():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20260813)
    with mpmath.workdps(40):
        # random streams: the two evaluation routes agree
        for _ in range(40):
            seq = JacobiSequence(
                tuple(random_periodic(rng, rng.randint(0, 3), max_mag=8)),
                tuple(random_periodic(rng, rng.randint(1, 6), max_mag=8)),
            )
            count = rng.randint(1, 6)
            z = mpmath.mpc(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            assert strip_identity_check(seq, count, z) < 1e-9
        # palindromic streams: stripping ell+1 lands exactly on the reversal
        for _ in range(25):
            p = rng.randint(3, 7)
            ell = rng.randint(1, p - 2)
            periodic = doubly_palindromic_period(rng, p, ell, max_mag=4)
            z = mpmath.mpc(rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2))
            stripped = eval_m(
                JacobiSequence((), tuple(periodic[ell + 1 :] + periodic[: ell + 1])), z
            )
            m_minus = eval_periodic_m(purely_periodic(reversed_periodic(periodic)), z)
            assert abs(stripped - m_minus) < 1e-9
    # generic non-split ell: visibly different functions
    rng2 = random.Random(20260814)
    rejected = 0
    while rejected < 25:
        p = rng2.randint(3, 7)
        periodic = random_periodic(rng2, p, max_mag=5)
        splits = set(brute_splits(periodic))
        candidates = [ell for ell in range(1, p - 1) if ell not in splits]
        if not candidates:
            continue
        ell = rng2.choice(candidates)
        z = complex(rng2.uniform(-1, 1), rng2.uniform(0.5, 1.2))
        stripped = eval_m(
            JacobiSequence((), tuple(periodic[ell + 1 :] + periodic[: ell + 1])), z
        )
        m_minus = eval_periodic_m(purely_periodic(reversed_periodic(periodic)), z)
        assert abs(stripped - m_minus) > 1e-3
        rejected += 1


@criterion(9, "Laurent round trip recovers (a_j^2, b_j) exactly for j <= 2p")
def test_criterion_9_roundtrip_recovery(tmp_path, capsys):
    # Determining 2p pairs takes 4p+1 expansion coefficients (two per pair
    # plus the normalization); the peel reads them off the relation
    # directly.  `recover --order N` reports (N-1)//2 pairs, so the default
    # order 2p+6 reports p+2 of them, and order 2 none: an input error.
    rng = random.Random(20260815)
    path = tmp_path / "period.json"
    for _ in range(50):
        p = rng.randint(1, 6)
        periodic = random_periodic(rng, p, max_mag=6)
        recovered = recover_coefficients(periodic_quadratic(periodic), 2 * p)
        stream = purely_periodic(periodic).pairs(2 * p)
        assert len(recovered) == 2 * p
        for rec, exp in zip(recovered, stream):
            assert rec.a_sq == exp.a * exp.a
            assert rec.b == exp.b

        path.write_text(json.dumps({"periodic": [[str(q.a), str(q.b)] for q in periodic]}))
        assert cli_main(["recover", "--input", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["order"] == 2 * p + 6
        assert report["compared_pairs"] == len(report["pairs_recovered"]) == p + 2
        assert report["roundtrip_matches"]
    assert cli_main(["recover", "--input", str(path), "--order", "2"]) == 2
    capsys.readouterr()


@criterion(10, "reverse probe: mismatched graft fails with the predicted decay")
def test_criterion_10_reverse_obstruction():
    rng = random.Random(20260816)
    # k=1 grafts with alpha_1 != a_p over one-pair tails
    cases = [(2, 1), (3, 1), (3, 2), (Fraction(1, 2), 1), (Fraction(5, 2), 2)]
    for alpha1, ap in cases:
        beta1 = random_rational(rng, -3, 3, 3)
        b_tail = random_rational(rng, -3, 3, 3)
        seq = JacobiSequence((pair(alpha1, beta1),), (pair(ap, b_tail),))
        report = reverse_asymptotics(seq)
        assert not report.is_m_like
        expected = -1.0 / (1.0 - float(Fraction(alpha1) ** 2 / Fraction(ap) ** 2))
        assert abs(report.decay_constant - expected) < 1e-2 * abs(expected)
    # purely periodic doubly palindromic streams pass
    for _ in range(5):
        p = rng.randint(3, 6)
        ell = rng.randint(1, p - 2)
        periodic = doubly_palindromic_period(rng, p, ell, max_mag=2, max_den=2)
        seq = normalize_kp(purely_periodic(periodic))
        report = reverse_asymptotics(seq)
        assert report.is_m_like
