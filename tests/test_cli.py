"""Command-line surface: reports, exit codes, JSON round trips."""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import palinfrac
from palinfrac.cli import main
from conftest import brute_splits, doubly_palindromic_period, random_periodic
from test_jacobi import paper_example_periodic


def write_input(tmp_path, periodic, preperiodic=(), name="seq.json"):
    doc = {
        "preperiodic": [[str(q.a), str(q.b)] for q in preperiodic],
        "periodic": [[str(q.a), str(q.b)] for q in periodic],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_paper_example(tmp_path, capsys):
    path = write_input(tmp_path, paper_example_periodic())
    code, report = run_json(capsys, ["analyze", "--input", path, "--json"])
    assert code == 0
    assert report["schema"] == 1
    assert report["p"] == 10
    assert report["splits"] == [4]
    assert report["exit_status"] == 0


def test_analyze_constant_p4(tmp_path, capsys):
    from palinfrac import pair

    path = write_input(tmp_path, [pair(1, 0)] * 4)
    code, report = run_json(capsys, ["analyze", "--input", path, "--json"])
    assert code == 0
    assert report["splits"] == [1, 2]


def test_analyze_reports_doubling_reveals(tmp_path, capsys):
    from palinfrac import pair

    # p=5 half of the doubling example: splits appear only at 2p
    half_a = [1, 2, 2, 1, 3]
    half_b = [0, 1, -1, 1, 0]
    path = write_input(tmp_path, [pair(a, b) for a, b in zip(half_a, half_b)])
    code, report = run_json(capsys, ["analyze", "--input", path, "--json"])
    assert code == 0
    assert report["splits"] == []
    assert 4 in report["doubling_reveals_splits"]


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"periodic": []}')
    assert main(["analyze", "--input", str(path)]) == 2


def test_verify_valid_split_exit_0(tmp_path, capsys):
    path = write_input(tmp_path, paper_example_periodic())
    assert main(["verify", "--input", path, "--ell", "4"]) == 0


def test_verify_invalid_split_exit_1(tmp_path, capsys):
    path = write_input(tmp_path, paper_example_periodic())
    assert main(["verify", "--input", path, "--ell", "3"]) == 1


def test_verify_out_of_range_ell_exit_2(tmp_path, capsys):
    path = write_input(tmp_path, paper_example_periodic())
    assert main(["verify", "--input", path, "--ell", "9"]) == 2


def test_verify_all_matches_analyze(tmp_path, capsys):
    rng = random.Random(601)
    for trial in range(6):
        p = rng.randint(3, 6)
        if trial % 2 == 0:
            periodic = doubly_palindromic_period(rng, p, rng.randint(1, p - 2))
        else:
            periodic = random_periodic(rng, p, max_mag=4)
        path = write_input(tmp_path, periodic, name=f"seq{trial}.json")
        code_v, verify_report = run_json(capsys, ["verify", "--input", path, "--all", "--json"])
        code_a, analyze_report = run_json(capsys, ["analyze", "--input", path, "--json"])
        assert verify_report["holds_set"] == analyze_report["splits"]
        assert verify_report["holds_set"] == brute_splits(periodic)
        expected = 0 if len(verify_report["holds_set"]) == p - 2 else 1
        assert code_v == expected


def test_verify_inconclusive_exit_3(tmp_path, capsys, monkeypatch):
    # no valid input reaches exit 3: M is never rational (the proof is in
    # the `quadratic` module docstring), so the exit path is exercised by
    # stubbing the verifier
    from palinfrac.errors import DegenerateRelation
    import palinfrac.cli as cli

    def explode(*args, **kwargs):
        raise DegenerateRelation("stub")

    monkeypatch.setattr(cli, "verify_splits", explode)
    path = write_input(tmp_path, paper_example_periodic())
    assert main(["verify", "--input", path, "--all"]) == 3


def test_eval_chebyshev_point(tmp_path, capsys):
    from palinfrac import pair

    path = write_input(tmp_path, [pair(1, 0)])
    code, report = run_json(
        capsys, ["eval", "--input", path, "--points", "0,2", "--json"]
    )
    assert code == 0
    row = report["points"][0]
    value = complex(row["M"].replace("j", "j"))
    assert abs(value - 0.41421356237j) < 1e-9
    assert row["im_M_positive"]
    assert row["truncation_gap"] < 1e-10


def test_eval_rejects_lower_half_plane(tmp_path, capsys):
    from palinfrac import pair

    path = write_input(tmp_path, [pair(1, 0)])
    assert main(["eval", "--input", path, "--points", "0,0"]) == 2
    assert main(["eval", "--input", path, "--points", "1,-2"]) == 2
    assert main(["eval", "--input", path, "--points=nan,1"]) == 2
    assert main(["eval", "--input", path, "--points=0,inf"]) == 2


def test_non_finite_tolerance_is_an_input_error(tmp_path, capsys):
    # nan and inf have no JSON form, and inf would accept every residual
    path = write_input(tmp_path, paper_example_periodic())
    for value in ("nan", "inf", "-inf"):
        for argv in (
            ["verify", "--input", path, "--all"],
            ["eval", "--input", path, "--points", "0.3,1.5"],
        ):
            assert main([*argv, "--json", f"--tolerance={value}"]) == 2, (argv, value)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("input error:") and "--tolerance" in captured.err


def test_negative_tolerance_is_an_input_error(tmp_path, capsys):
    # a residual is never negative, so a negative tolerance would flag every
    # holding identity; zero is accepted
    path = write_input(tmp_path, paper_example_periodic())
    for argv in (
        ["verify", "--input", path, "--all"],
        ["eval", "--input", path, "--points", "0.3,1.5"],
    ):
        for value in ("-1e-8", "-0.5"):
            assert main([*argv, "--json", f"--tolerance={value}"]) == 2, (argv, value)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"input error: --tolerance must be nonnegative, got {float(value)}\n"
            )
        assert main([*argv, "--json", "--tolerance=0"]) in (0, 1)
        assert strict_json(capsys.readouterr().out)["tolerance"] == 0.0


def test_eval_seeded_points_reproducible(tmp_path, capsys):
    from palinfrac import pair

    path = write_input(tmp_path, [pair(1, 0), pair(2, 1), pair(1, 0)])
    code1, report1 = run_json(capsys, ["eval", "--input", path, "--seed", "7", "--json"])
    code2, report2 = run_json(capsys, ["eval", "--input", path, "--seed", "7", "--json"])
    assert code1 == code2 == 0
    assert report1 == report2


def test_eval_reports_identity_residual_at_split(tmp_path, capsys):
    path = write_input(tmp_path, paper_example_periodic())
    code, report = run_json(
        capsys, ["eval", "--input", path, "--points", "0.3,1.5", "--json"]
    )
    assert code == 0
    assert report["ell"] == 4
    # the identity holds exactly at ell = 4, and both sides of the check are
    # contracting level folds, so the residual is near double precision
    assert report["points"][0]["within_tolerance"] is True
    assert report["points"][0]["identity_residual"] < 1e-12


def test_recover_roundtrip_exit_0(tmp_path, capsys):
    rng = random.Random(602)
    periodic = random_periodic(rng, 3, max_mag=4)
    path = write_input(tmp_path, periodic)
    code, report = run_json(capsys, ["recover", "--input", path, "--json"])
    assert code == 0
    assert report["roundtrip_matches"]
    assert report["order"] == 2 * 3 + 6
    assert len(report["pairs_recovered"]) == (report["order"] - 1) // 2


def test_recover_default_order_stays_within_the_cap(tmp_path, capsys):
    import palinfrac.cli as cli

    # from p = 30 on, 2p+6 exceeds MAX_ORDER: the default is capped there,
    # while asking for 2p+6 explicitly is an input error
    rng = random.Random(604)
    path = write_input(tmp_path, random_periodic(rng, 30, max_mag=4))
    code, report = run_json(capsys, ["recover", "--input", path, "--json"])
    assert code == 0 and report["roundtrip_matches"]
    assert report["order"] == cli.MAX_ORDER
    assert main(["recover", "--input", path, "--order", str(2 * 30 + 6)]) == 2


def test_recover_constant_stream(tmp_path, capsys):
    from palinfrac import pair

    path = write_input(tmp_path, [pair(1, 0)])
    code, report = run_json(capsys, ["recover", "--input", path, "--json"])
    assert code == 0
    assert all(rec["a_sq"] == "1" and rec["b"] == "0" for rec in report["pairs_recovered"])


def test_recover_insufficient_order_exit_2(tmp_path, capsys):
    rng = random.Random(603)
    path = write_input(tmp_path, random_periodic(rng, 3, max_mag=4))
    assert main(["recover", "--input", path, "--order", "2"]) == 2


def test_json_reports_roundtrip(tmp_path, capsys):
    # --json output parses back to the same report dict
    path = write_input(tmp_path, paper_example_periodic())
    for argv in (
        ["analyze", "--input", path, "--json"],
        ["verify", "--input", path, "--all", "--json"],
        ["recover", "--input", path, "--json"],
        ["eval", "--input", path, "--points", "0,2", "--json"],
    ):
        main(argv)
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert json.loads(json.dumps(parsed)) == parsed
        assert parsed["schema"] == 1
        assert "exit_status" in parsed


def test_text_output_mentions_verdict(tmp_path, capsys):
    path = write_input(tmp_path, paper_example_periodic())
    main(["verify", "--input", path, "--ell", "4"])
    out = capsys.readouterr().out
    assert "HOLDS" in out
    main(["verify", "--input", path, "--ell", "2"])
    out = capsys.readouterr().out
    assert "fails" in out


def test_missing_input_file_exit_2(tmp_path):
    assert main(["analyze", "--input", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("argv", [["analyze"], ["verify", "--all", "--json"]])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, argv):
    # past its depth the decoder raises RecursionError, not ValueError
    path = tmp_path / "deep.json"
    path.write_text('{"periodic": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: invalid JSON: ")


DATA = Path(__file__).parent / "data"


def strict_json(text):
    """Parse a report, refusing NaN and Infinity."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_eval_survives_a_vanishing_moebius_denominator(capsys):
    # the identity holds at ell = 1; at this point the double-precision
    # Moebius denominator C(z)*M + D(z) of a forward transport of M through
    # T3*T2(1)*T1 is exactly 0, while the two level folds stay finite
    path = str(DATA / "eval_moebius_pole.json")
    code = main(
        ["eval", "--input", path, "--points=-0.8979579079625268,2.820635731159206", "--json"]
    )
    report = strict_json(capsys.readouterr().out)
    assert code == 0 and report["exit_status"] == 0
    assert report["ell"] == 1
    row = report["points"][0]
    assert 0 <= row["identity_residual"] <= report["tolerance"]
    assert row["within_tolerance"] is True


def test_eval_survives_coefficients_too_large_for_a_double(capsys):
    # M(z) is finite, but the relation's and the product's float coefficients
    # overflow: Mtilde and the identity residual are unavailable, the rest
    # of each row is reported and the request succeeds
    path = str(DATA / "verify_float_overflow.json")
    code = main(["eval", "--input", path, "--points", "0.3,1.5", "--json"])
    report = strict_json(capsys.readouterr().out)
    assert code == 0 and report["exit_status"] == 0 and report["ell"] == 1
    row = report["points"][0]
    assert row["M"] == "-0.128205128205+0.641025641026j"
    assert row["m"] == "-0.0595845798766+0.494256785473j"
    assert row["truncation_gap"] == 0.0
    assert row["Mtilde"] is None and row["identity_residual"] is None
    assert row["within_tolerance"] is False
    assert main(["eval", "--input", path, "--points", "0.3,1.5"]) == 0
    out = capsys.readouterr().out
    assert "Mtilde = unavailable" in out and "identity residual unavailable" in out


def test_verify_survives_a_vanishing_moebius_denominator(capsys):
    # the double-precision denominator C(z0)*M + D(z0) of a forward transport
    # through T3*T2(6)*T1 is exactly 0, while the level folds give a finite
    # residual there; the exact verdicts alone decide the report and the
    # exit code
    path = str(DATA / "verify_sweep_pole.json")
    code = main(["verify", "--input", path, "--all", "--json"])
    report = strict_json(capsys.readouterr().out)
    assert code == 1 and report["exit_status"] == 1
    assert report["holds_set"] == []
    assert [v["ell"] for v in report["verdicts"]] == list(range(1, 8))
    assert all(v["numeric_ok"] is None for v in report["verdicts"])
    assert math.isfinite(report["verdicts"][5]["numeric_residual"])


def test_verify_survives_a_failing_cross_check(capsys):
    # both identities hold exactly at ell = 1, and M(z0) is finite, but the
    # float coefficients of M's relation overflow on both inputs (a = 1e-200
    # makes them hold 1e400), and T1's on the second; the exact verdicts
    # alone decide the report and the exit code
    for name in ("verify_branch_failure.json", "verify_float_overflow.json"):
        path = str(DATA / name)
        code = main(["verify", "--input", path, "--all", "--json"])
        report = strict_json(capsys.readouterr().out)
        assert code == 0 and report["holds_set"] == [1], name
        assert report["verdicts"][0]["numeric_residual"] is None
        assert report["verdicts"][0]["numeric_ok"] is False
        assert main(["verify", "--input", path, "--ell", "1"]) == 0
        assert "= unavailable)" in capsys.readouterr().out


def test_verify_survives_an_unavailable_second_solution(capsys, monkeypatch):
    import palinfrac.cli as cli
    from palinfrac import DivisionByZero

    # when Mtilde(z0) cannot be formed, every ell keeps its exact verdict and
    # reports its cross-check as unavailable
    def vanishing(*args):
        raise DivisionByZero("second solution undefined: alpha(z)*m = 0")

    monkeypatch.setattr(cli, "second_solution_value", vanishing)
    path = str(DATA / "verify_p24.json")
    code = main(["verify", "--input", path, "--all", "--json"])
    report = strict_json(capsys.readouterr().out)
    assert code == 1 and report["holds_set"] == [9]
    assert [v["ell"] for v in report["verdicts"]] == list(range(1, 23))
    for verdict in report["verdicts"]:
        assert verdict["numeric_residual"] is None
        assert verdict["numeric_ok"] is (False if verdict["holds"] else None)


def test_verify_forms_no_polynomial_product(capsys, monkeypatch):
    # M is never rational, so no request tests the discriminant, and the
    # pullback and the split sweep run on fused steps and scalings alone
    from palinfrac.exactalg import Poly

    calls = []
    product = Poly.__mul__

    def counted(self, other):
        calls.append(other)
        return product(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    path = str(DATA / "verify_p24.json")
    assert main(["verify", "--input", path, "--all", "--json"]) == 1
    assert main(["verify", "--input", path, "--ell", "9"]) == 0
    assert calls == []


def test_verify_walks_the_period_once(tmp_path, capsys, monkeypatch):
    import palinfrac.orthopoly as orthopoly
    from palinfrac import load_sequence

    # verify --all walks the period once on packed integers for the tail and
    # the Q cofactors and steps the packed N_P once per periodic pair before
    # the last (ell = 1 reads two pairs); the preperiodic block is never
    # walked, however long the normalized block is
    calls = []
    step = orthopoly.packed_step

    def counting(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(orthopoly, "packed_step", counting)
    path = str(DATA / "verify_p24.json")
    seq = load_sequence((DATA / "verify_p24.json").read_bytes())
    p = seq.p
    appended = write_input(tmp_path, seq.periodic, seq.preperiodic[:-1] + seq.periodic[:1])
    pure = write_input(tmp_path, seq.periodic, name="pure.json")
    for source in (path, appended, pure):
        calls.clear()
        assert main(["verify", "--input", source, "--all", "--json"]) == 1
        assert len(calls) == p + (p - 1)
    # one --ell steps N_P only up to that ell
    calls.clear()
    assert main(["verify", "--input", path, "--ell", "9"]) == 0
    assert len(calls) == p + 9 + 1
    capsys.readouterr()


@pytest.mark.parametrize("p", [1, 2])
def test_verify_ell_on_a_period_shorter_than_three(tmp_path, capsys, p):
    from palinfrac import pair

    path = write_input(tmp_path, [pair(1, 0), pair(2, 1)][:p])
    assert main(["verify", "--input", path, "--ell", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: --ell needs p >= 3: a period of p = {p} has no first length to check\n"
    )
    assert main(["verify", "--input", path, "--all"]) == 0
    assert capsys.readouterr().out.endswith("holds for ell in []\n")


def test_second_solution_is_formed_once_per_point(tmp_path, capsys, monkeypatch):
    import palinfrac.cli as cli

    calls = []
    original = cli.second_solution_value

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "second_solution_value", counting)
    path = write_input(tmp_path, paper_example_periodic())
    for argv, expected in (
        (["verify", "--input", path, "--all", "--json"], 1),
        (["eval", "--input", path, "--points", "0.3,1.5;-1,0.5;0,2", "--json"], 3),
    ):
        calls.clear()
        main(argv)
        assert len(calls) == expected, argv


def test_eval_answers_at_an_extreme_point(tmp_path, capsys):
    from palinfrac import pair

    # the level-map tail stays finite at 1e300*i, where m and M are -1/z to
    # double precision; Horner on M's relation is not finite there on the
    # first stream, so its Mtilde is unavailable.  Where m is subnormal, at
    # 1.7e308*i, no root is a normal double off the real axis (or the tail
    # overflows), and the request fails
    pole, chebyshev = str(DATA / "eval_moebius_pole.json"), write_input(tmp_path, [pair(1, 0)])
    for path, m_tilde in ((pole, None), (chebyshev, "-0-1e+300j")):
        assert main(["eval", "--input", path, "--points=0,1e300", "--json"]) == 0
        row = strict_json(capsys.readouterr().out)["points"][0]
        for key in ("M", "m"):
            assert abs(complex(row[key]) * 1e300j + 1) < 1e-12, (path, key)
        assert row["Mtilde"] == m_tilde
        assert main(["eval", "--input", path, "--points=0,1.7e308"]) == 1
        assert "computation failed" in capsys.readouterr().err
    assert main(["eval", "--input", pole, "--points=0,1e300"]) == 0
    assert "Mtilde = unavailable" in capsys.readouterr().out


def test_relation_is_built_once_per_request(tmp_path, capsys, monkeypatch):
    import palinfrac.quadratic as quadratic

    calls = []
    original = quadratic.pullback_quadratic

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quadratic, "pullback_quadratic", counting)
    path = write_input(tmp_path, paper_example_periodic())
    for argv, expected in (
        (["verify", "--input", path, "--all", "--json"], 1),
        (["eval", "--input", path, "--points", "0.3,1.5;-1,0.5;0,2", "--json"], 0),
    ):
        calls.clear()
        assert main(argv) == expected
        assert len(calls) == 1, argv


GOLDEN_POINTS = (
    "--points=-0.8979579079625268,2.820635731159206;0.37,1.31;-1.5,0.5;"
    "2,0.01;0,100;0,1000;0,10000"
)


def test_eval_report_bytes_are_pinned(capsys):
    # the report of the exact-arithmetic evaluators, byte for byte; the float
    # fast paths must reproduce it, including the 1e4*i probe height
    path = str(DATA / "eval_moebius_pole.json")
    assert main(["eval", "--input", path, GOLDEN_POINTS, "--json"]) == 0
    expected = (DATA / "eval_moebius_pole.golden.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_recover_report_bytes_are_pinned(capsys):
    # stdout and exit code of the fixed-point expansion and iterated stripping
    # on a p = 8 rational period, text and --json, at the default order and
    # at order 33; the peel of the relation must reproduce them
    assert_golden(capsys, "recover", "recover_p8", 4)


def test_recover_report_bytes_are_pinned_at_the_order_cap(capsys):
    # a p = 16 period whose a are rational squares over mixed denominators,
    # at --order 64, the cap; pinned from the Fraction-per-operation series
    # layer, which the peel must reproduce
    assert_golden(capsys, "recover", "recover_p16", 2)


def assert_golden(capsys, command, name, count):
    path = str(DATA / f"{name}.json")
    cases = json.loads((DATA / f"{name}.golden.json").read_text(encoding="utf-8"))
    assert len(cases) == count
    for case in cases:
        assert main([command, "--input", path, *case["args"]]) == case["exit_code"]
        captured = capsys.readouterr()
        assert captured.out == case["stdout"], case["args"]
        assert captured.err == ""


def test_eval_solves_the_tail_once_per_point(tmp_path, capsys, monkeypatch):
    import palinfrac.cli as cli
    import palinfrac.mfun as mfun

    calls = []
    original = mfun.eval_periodic_m

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mfun, "eval_periodic_m", counting)
    monkeypatch.setattr(cli, "eval_periodic_m", counting)
    path = write_input(tmp_path, paper_example_periodic())
    assert main(["eval", "--input", path, "--points", "0.3,1.5;-1,0.5;0,2", "--json"]) == 0
    assert len(calls) == 3


def test_cross_check_folds_no_level_below_the_lowest_ell(tmp_path, capsys, monkeypatch):
    import palinfrac.cli as cli

    # verify --ell N and eval read one stripped tail; the fold stops at it
    calls = []
    original = cli.stripped_tails

    def counting(seq, m_val, z, lowest=1):
        values = original(seq, m_val, z, lowest)
        calls.append((seq.p, lowest, len(values)))
        return values

    monkeypatch.setattr(cli, "stripped_tails", counting)
    assert main(["verify", "--ell", "9", "--input", str(DATA / "verify_p24.json")]) == 0
    assert calls == [(24, 9, 14)]
    calls.clear()
    capsys.readouterr()
    path = write_input(tmp_path, paper_example_periodic())
    assert main(["eval", "--input", path, "--points", "0.3,1.5;-1,0.5", "--json"]) == 0
    ell, p = json.loads(capsys.readouterr().out)["ell"], len(paper_example_periodic())
    assert ell > 1 and calls == [(p, ell, p - 1 - ell)] * 2


def test_eval_converts_each_pair_to_float_once_per_request(tmp_path, capsys, monkeypatch):
    import palinfrac.jacobi as jacobi
    from palinfrac import load_sequence

    # the pairs become floats once per request, not at every point, and the
    # cross-check reads a_k^2 off the block's table; normalize_kp turns a
    # purely periodic input into a block of one period, which lends its
    # float pairs to the period: 2p conversions, a pair's b and a^2 each
    calls = []
    convert = jacobi._float_pairs

    def counting(pairs):
        table = convert(pairs)
        calls.extend(value for row in table for value in row)
        return table

    periodic = load_sequence((DATA / "verify_p24.json").read_text(encoding="utf-8")).periodic
    lone_period = write_input(tmp_path, periodic)
    monkeypatch.setattr(jacobi, "_float_pairs", counting)
    rng = random.Random(14)
    for path in (str(DATA / "verify_p24.json"), lone_period):
        counts = []
        for n in (1, 64):
            points = ";".join(f"{rng.uniform(-2, 2)},{rng.uniform(0.5, 3)}" for _ in range(n))
            calls.clear()
            assert main(["eval", "--input", path, f"--points={points}"]) == 0
            counts.append(len(calls))
        capsys.readouterr()
        assert counts[0] == counts[1]
    assert counts[0] == 2 * len(periodic) == 48


def test_json_reports_have_no_nan_or_infinity(tmp_path, capsys):
    from palinfrac import pair

    parsed = 0
    for golden in sorted(DATA.glob("*.golden.json")):
        doc = strict_json(golden.read_text(encoding="utf-8"))
        for case in doc if isinstance(doc, list) else []:
            if "--json" in case["args"]:
                strict_json(case["stdout"])
                parsed += 1
    assert parsed > 0
    # at a subnormal height the float truncation fold overflows to nan: the
    # gap is reported unavailable, and the rest of the row stands
    path = write_input(tmp_path, [pair(1, 0), pair(1, 0), pair(2, 0)])
    assert main(["eval", "--input", path, "--points=0,1e-310", "--json"]) == 0
    row = strict_json(capsys.readouterr().out)["points"][0]
    assert row["truncation_gap"] is None
    assert row["M"] == "3.06161699787e-17+0.5j"
    assert main(["eval", "--input", path, "--points=0,1e-310"]) == 0
    assert "truncation gap unavailable" in capsys.readouterr().out


def test_depth_and_order_are_capped(tmp_path, capsys, monkeypatch):
    import palinfrac.cli as cli
    from palinfrac import pair

    monkeypatch.setattr(cli, "MAX_DEPTH", 5)
    monkeypatch.setattr(cli, "MAX_ORDER", 9)
    path = write_input(tmp_path, [pair(1, 0), pair(2, 1)])
    for argv, expected in (
        (["eval", "--input", path, "--points", "0,2", "--depth", "5"], 0),
        (["eval", "--input", path, "--points", "0,2", "--depth", "6"], 2),
        (["recover", "--input", path, "--order", "9"], 0),
        (["recover", "--input", path, "--order", "10"], 2),
    ):
        assert main(argv) == expected, argv
        err = capsys.readouterr().err
        if expected == 2:
            assert err.startswith("input error:") and argv[-2] in err


def test_depth_below_one_is_an_input_error_at_any_point(tmp_path, capsys):
    # --depth is checked before any point is evaluated, so the exit code
    # does not depend on whether the tail can be solved at the point: at
    # 1e200 + 1i no root of this tail is off the real axis
    from palinfrac import pair

    path = write_input(tmp_path, [pair(1, 0), pair(2, 1), pair(2, -1)])
    for points in ("0,1", "1e200,1"):
        assert main(["eval", "--input", path, "--points", points, "--depth", "0"]) == 2, points
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: depth must be at least 1, got 0\n"


def test_verify_rejects_ell_with_all(tmp_path, capsys):
    path = write_input(tmp_path, paper_example_periodic())
    for argv in (["--all", "--ell", "4"], ["--ell", "4", "--all", "--json"]):
        assert main(["verify", "--input", path, *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: verify takes --ell N or --all, not both\n"


def test_analyze_report_bytes_are_pinned(capsys):
    # stdout and exit code of analyze, text and --json, on the p = 5 half of
    # the paper's period: purely periodic, so normalization applies, with no
    # split of its own and the split ell = 4 revealed by doubling
    assert_golden(capsys, "analyze", "analyze_reveals", 2)


def test_verify_report_bytes_are_pinned(capsys):
    # stdout and exit code of verify --all, text and --json, captured before
    # the polynomial kernel became fraction-free: the Moebius pole fixture,
    # and a p = 24, k = 2 sequence whose identity holds at ell = 9 only;
    # and captured while `poly_gcd` ran a remainder sequence: a p = 96
    # sequence that `normalize_kp` extends to k = 98; and captured while the
    # period walks ran on `Poly`: a p = 12 sequence whose entries are 50- and
    # 200-digit numerators over 200- and 50-digit denominators, near
    # MAX_ENTRY_DIGITS, whose packed walks run at widths of over 20,000 bits;
    # and captured while `prepare` decoded the whole period's transfer: a
    # doubly palindromic block of 8 pairs three times over after one pair,
    # whose tail is now read off the block's transfer
    for name in (
        "verify_moebius_pole", "verify_p24", "verify_p96", "verify_hiheight", "verify_repeated"
    ):
        path = str(DATA / f"{name}.json")
        cases = json.loads((DATA / f"{name}.golden.json").read_text(encoding="utf-8"))
        assert len(cases) == 2
        for case in cases:
            assert main(["verify", "--input", path, *case["args"]]) == case["exit_code"]
            assert capsys.readouterr().out == case["stdout"], (name, case["args"])


# One request in a fresh interpreter: its stdout, exit code, which OpenSSL
# modules it loaded, and which of CPython's built-in SHA-256 modules import
_FOOTPRINT = """
import contextlib, io, json, sys
from palinfrac.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["verify", "--all", "--json", "--input", sys.argv[1]])
loaded = sorted({"_hashlib", "_ssl"} & set(sys.modules))
builtin = []
for name in ("_sha2", "_sha256"):
    try:
        __import__(name)
        builtin.append(name)
    except ImportError:
        pass
json.dump({"code": code, "stdout": out.getvalue(), "loaded": loaded, "builtin": builtin},
          sys.stdout)
"""


def test_cli_loads_no_openssl_and_digests_the_raw_bytes():
    # -S keeps site hooks out of the child's modules: what it loads is the CLI's
    path = DATA / "verify_p24.json"
    src = str(Path(palinfrac.__file__).parent.parent)
    child = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT, str(path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(child.stdout)
    if sys.implementation.name == "cpython":
        # a CPython that lost or renamed its built-in SHA-256 would fall back
        # to hashlib unseen; it must fail here instead
        assert result["builtin"]
    if result["builtin"]:
        assert result["loaded"] == []
    report = json.loads(result["stdout"])
    assert report["input_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
    golden = json.loads((DATA / "verify_p24.golden.json").read_text(encoding="utf-8"))
    case = next(c for c in golden if c["args"] == ["--all", "--json"])
    assert (result["code"], result["stdout"]) == (case["exit_code"], case["stdout"])


def test_cli_falls_back_to_hashlib_without_a_builtin_sha256():
    # a None entry in sys.modules makes the import raise ImportError
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib, palinfrac.cli as cli\n"
        "print(cli.sha256 is hashlib.sha256, cli.sha256(b'abc').hexdigest())\n"
    )
    src = str(Path(palinfrac.__file__).parent.parent)
    child = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert child.stdout.split() == ["True", hashlib.sha256(b"abc").hexdigest()]


_CROSS_CHECK_FIELDS = (
    # JSON: the double-precision residual and its budget verdict
    (re.compile(r'("numeric_(?:residual|ok)"): [^,\n]+'), r"\1: *"),
    # text: the residual value and the budget note after it
    (re.compile(r"(numeric residual at \S+ = )[^)]*"), r"\1*"),
)


def _mask_cross_check(text: str) -> str:
    for pattern, replacement in _CROSS_CHECK_FIELDS:
        text = pattern.sub(replacement, text)
    return text


def test_verify_reports_match_the_product_route_outside_the_cross_check(capsys):
    # the *.product_route.golden.json files hold the reports of the sweep
    # that formed T3*T2(ell)*T1 exactly and evaluated it by Horner; only the
    # float cross-check may differ from them, every other byte and the exit
    # code must not
    for name in ("verify_moebius_pole", "verify_p24"):
        path = str(DATA / f"{name}.json")
        cases = json.loads(
            (DATA / f"{name}.product_route.golden.json").read_text(encoding="utf-8")
        )
        assert len(cases) == 2
        for case in cases:
            assert main(["verify", "--input", path, *case["args"]]) == case["exit_code"]
            out = capsys.readouterr().out
            assert _mask_cross_check(out) == _mask_cross_check(case["stdout"]), (
                name, case["args"])


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    import argparse

    path = write_input(tmp_path, paper_example_periodic())
    argv = ["analyze", "--input", path]
    assert main(argv) == 0
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(argv) == 0
    assert main(["verify", "--input", path, "--ell", "4"]) == 0
    assert built == []


def test_help_shows_the_caps(capsys):
    import palinfrac.cli as cli

    # rebuild, in case a test that patches the caps built the shared parser
    cli.build_parser.cache_clear()
    for command, cap in (("eval", cli.MAX_DEPTH), ("recover", cli.MAX_ORDER)):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert f"at most {cap})" in " ".join(capsys.readouterr().out.split())
