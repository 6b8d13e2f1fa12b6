"""Command-line interface.

Four subcommands drive the library over the JSON input format:

    analyze  - period/preperiod layout and palindrome splits
    verify   - exact identity verdicts at one or all first lengths
    eval     - numeric values of M, m, Mtilde and identity residuals
    recover  - round trip from the tail's quadratic back to coefficients

Exit codes: 0 everything requested holds, 1 some requested check fails,
2 input error, 3 inconclusive (the library raised DegenerateRelation; no
valid input reaches this exit).  `main` alone prints a report, and returns
its "exit_status"; an input error, inconclusive or failed run prints none.

Reports are plain text by default; --json emits a stable layout with a
"schema": 1 field, carrying the same data.  All rationals are emitted as
strings so the JSON round-trips exactly.  Every report's "input_digest" is
the SHA-256 hex digest of the raw input bytes, the value `sha256sum`
prints.  It comes from CPython's built-in SHA-256 module, so the CLI loads
no OpenSSL library; `hashlib` is the fallback where that module is absent.
`verify` and `eval` check a point through one helper, `_at_point`, so one
rule decides when Mtilde is unavailable (null, with the residuals that need
it); it decides no verdict or exit code.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from itertools import cycle
from typing import Callable, Iterator

# CPython's own SHA-256, as random.py takes sha512: hashlib would map
# OpenSSL's libcrypto into every request's process to hash one input
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from .errors import (
    BranchAmbiguity,
    DegenerateRelation,
    DivisionByZero,
    IndexOutOfRange,
    InsufficientOrder,
    NotAnMFunction,
    NotNormalized,
    ParseError,
)
from .jacobi import (
    JacobiSequence,
    double_period,
    find_palindrome_splits,
    load_sequence,
    normalize_kp,
)
from .mfun import (
    eval_periodic_m,
    eval_truncated,
    fold_preperiodic,
    recover_coefficients,
)
from .quadratic import (
    numeric_identity_check,
    periodic_quadratic,
    prepare,
    reversed_fold,
    second_solution_value,
    stripped_tails,
    verify_main_identity,
    verify_splits,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3

# The point at which `verify` cross-checks the identity numerically
_Z0 = complex(0.37, 1.31)

# Largest --depth (eval) and --order (recover) accepted.  The truncation
# unrolls `depth` levels at every point.  `recover` peels (order-1)//2 pairs
# at O(p) integer operations each: 0.8 ms at order 64 and 1.7 ms at order
# 129 for a p = 16 period of rationals with numerators and denominators up
# to 9, 0.9 ms and 1.9 ms for tests/data/recover_p16.json (best of 7,
# 2-vCPU x86 container, Python 3.11).
MAX_DEPTH = 100_000
MAX_ORDER = 64

_INPUT_ERRORS = (
    ParseError,
    InsufficientOrder,
    IndexOutOfRange,
    NotNormalized,
    OSError,
)


Formatter = Callable[[dict], Iterator[str]]


def _read_input(args: argparse.Namespace) -> tuple[JacobiSequence, dict]:
    """The sequence in --input, and the fields that open every report."""
    with open(args.input, "rb") as handle:
        raw = handle.read()
    seq = load_sequence(raw)
    return seq, {"schema": 1, "command": args.command, "input_digest": sha256(raw).hexdigest()}


def _check_limit(option: str, value: int | None, limit: int) -> None:
    if value is not None and value > limit:
        raise ParseError(f"{option} must be at most {limit}, got {value}")


def _check_tolerance(value: float) -> None:
    # nan and inf have no JSON form, and inf would pass every check; a
    # residual is never negative, so a negative value would fail every check
    if not math.isfinite(value):
        raise ParseError(f"--tolerance must be finite, got {value}")
    if value < 0:
        raise ParseError(f"--tolerance must be nonnegative, got {value}")


def _format_complex(value: complex) -> str:
    return f"{value.real:.12g}{value.imag:+.12g}j"


def _parse_points(text: str) -> list[complex]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ParseError(f"bad point {chunk!r}: expected re,im")
        try:
            point = complex(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ParseError(f"bad point {chunk!r}: {exc}") from exc
        if not cmath.isfinite(point):
            raise ParseError(f"bad point {chunk!r}: coordinates must be finite")
        if point.imag <= 0:
            raise ParseError(f"points must lie in the upper half plane, got {point}")
        points.append(point)
    if not points:
        raise ParseError("no evaluation points given")
    return points


def _at_point(seq: JacobiSequence, relation, z, lowest: int | None) -> tuple:
    """m(z), M(z), Mtilde(z) and the identity's two level folds at z.

    m(z) raises as `eval_periodic_m` does.  Mtilde is None where alpha(z)*M
    vanishes or its Horner value overflows or is not finite (huge rationals,
    extreme heights).  With `lowest` None nothing is folded; else the folds
    are fold_R(1/(ak^2 * Mtilde)), None with Mtilde or where a level
    vanishes, and m_{ell+1}, ell = lowest .. p-2.
    """
    m_tail = eval_periodic_m(seq, z)
    m_full = fold_preperiodic(seq, m_tail, z)
    try:
        second = second_solution_value(relation, m_full, z)
        second = second if cmath.isfinite(second) else None
    except (DivisionByZero, OverflowError):
        second = None
    if lowest is None:
        return m_tail, m_full, second, None, None
    try:
        folded = None if second is None else reversed_fold(seq, second, z)
    except ZeroDivisionError:
        folded = None
    return m_tail, m_full, second, folded, stripped_tails(seq, m_tail, z, lowest)


def cmd_analyze(args: argparse.Namespace) -> tuple[dict, Formatter]:
    seq, report = _read_input(args)
    normalized = normalize_kp(seq)
    splits = find_palindrome_splits(normalized.periodic)
    doubled = double_period(normalized)
    doubled_splits = find_palindrome_splits(doubled.periodic)
    reveals = sorted(set(doubled_splits) - set(splits))
    report.update(
        {
            "p": normalized.p,
            "k": normalized.k,
            "normalization_applied": normalized is not seq,
            "splits": splits,
            "doubled_period_splits": doubled_splits,
            "doubling_reveals_splits": reveals,
            "exit_status": EXIT_OK,
        }
    )
    return report, _analyze_text


def _analyze_text(report: dict) -> Iterator[str]:
    p, reveals = report["p"], report["doubling_reveals_splits"]
    yield f"period p = {p}, preperiodic length k = {report['k']}" + (
        " (normalization applied)" if report["normalization_applied"] else "")
    yield f"palindrome splits: {report['splits'] or 'none'}"
    yield f"splits after period doubling (p = {2 * p}): {report['doubled_period_splits'] or 'none'}"
    if reveals:
        yield f"doubling reveals additional splits: {reveals}"


def cmd_verify(args: argparse.Namespace) -> tuple[dict, Formatter]:
    _check_tolerance(args.tolerance)
    seq, report = _read_input(args)
    normalized = normalize_kp(seq)
    p = normalized.p
    if args.all:
        if args.ell is not None:
            raise ParseError("verify takes --ell N or --all, not both")
    else:
        if args.ell is None:
            raise ParseError("verify needs --ell N or --all")
        if p < 3:
            raise IndexOutOfRange(
                f"--ell needs p >= 3: a period of p = {p} has no first length to check"
            )
        if not 1 <= args.ell <= p - 2:
            raise IndexOutOfRange(f"--ell must lie in 1 .. p-2 = {p - 2}, got {args.ell}")

    verdicts = []
    prep = prepare(normalized)
    results = verify_splits(prep) if args.all else {args.ell: verify_main_identity(prep, args.ell)}
    # the stripped tails from the lowest requested ell up, no level below it
    lowest = 1 if args.all else args.ell
    try:
        *_, folded, stripped = _at_point(normalized, prep.relation, _Z0, lowest)
    except (BranchAmbiguity, ZeroDivisionError, OverflowError):
        # the cross-check only annotates: every ell reports it unavailable
        folded, stripped = None, [None] * (p - 1 - lowest)
    all_hold = True
    for ell, result in results.items():
        check = numeric_identity_check(stripped[ell - lowest], folded, args.tolerance)
        verdicts.append(
            {
                "ell": ell,
                "holds": result.holds,
                "residual_P_degree": result.residual_P_degree,
                "residual_Q_degree": result.residual_Q_degree,
                "numeric_residual": check["residual"],
                # a numeric claim is only meaningful when the identity holds;
                # the exact residual polynomials carry the negative verdicts
                "numeric_ok": check["ok"] if result.holds else None,
            }
        )
        all_hold = all_hold and result.holds
    report.update(
        {
            "p": p,
            "k": normalized.k,
            "verdicts": verdicts,
            "holds_set": [v["ell"] for v in verdicts if v["holds"]],
            "tolerance": args.tolerance,
            "exit_status": EXIT_OK if all_hold else EXIT_FAIL,
        }
    )
    return report, _verify_text


def _verify_text(report: dict) -> Iterator[str]:
    yield f"period p = {report['p']}, preperiodic length k = {report['k']}"
    at = _format_complex(_Z0)
    for v in report["verdicts"]:
        numeric = v["numeric_residual"]
        numeric_text = "unavailable" if numeric is None else f"{numeric:.3e}"
        budget_note = ""
        if v["holds"] and numeric is not None:
            budget_note = ", within fp budget" if v["numeric_ok"] else ", EXCEEDS fp budget"
        yield (
            f"ell = {v['ell']}: {'HOLDS' if v['holds'] else 'fails'} "
            f"(deg residual_P = {v['residual_P_degree']}, "
            f"deg residual_Q = {v['residual_Q_degree']}, "
            f"numeric residual at {at} = {numeric_text}{budget_note})"
        )
    yield f"holds for ell in {report['holds_set']}"


def cmd_eval(args: argparse.Namespace) -> tuple[dict, Formatter]:
    _check_limit("--depth", args.depth, MAX_DEPTH)
    if args.depth < 1:
        raise ParseError(f"depth must be at least 1, got {args.depth}")
    _check_tolerance(args.tolerance)
    if args.points is not None:
        points = _parse_points(args.points)
    else:
        import random  # only the default points need it

        rng = random.Random(args.seed)
        points = [
            complex(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0)) for _ in range(5)
        ]
    seq, report = _read_input(args)
    normalized = normalize_kp(seq)

    ell = next(iter(find_palindrome_splits(normalized.periodic)), None)
    prep = prepare(normalized)
    rows = []
    for z in points:
        m_tail, m_full, second, folded, stripped = _at_point(normalized, prep.relation, z, ell)
        truncation_gap = abs(m_full - eval_truncated(normalized, z, args.depth))
        if not math.isfinite(truncation_gap):
            # the float fold overflows at subnormal heights; nan is not JSON
            truncation_gap = None
        residual = residual_ok = None
        if ell is not None:
            check = numeric_identity_check(stripped[0], folded, args.tolerance)
            residual, residual_ok = check["residual"], check["ok"]
        rows.append({
            "z": _format_complex(z),
            "M": _format_complex(m_full),
            "m": _format_complex(m_tail),
            "Mtilde": None if second is None else _format_complex(second),
            "im_M_positive": m_full.imag > 0,
            "truncation_gap": truncation_gap,
            "identity_residual": residual,
            "within_tolerance": residual_ok,
        })
    report.update(
        {
            "ell": ell,
            "depth": args.depth,
            "tolerance": args.tolerance,
            "points": rows,
            "exit_status": EXIT_OK,
        }
    )
    return report, functools.partial(_eval_text, normalized)


def _eval_text(seq: JacobiSequence, report: dict) -> Iterator[str]:
    ell = report["ell"]
    yield (
        f"period p = {seq.p}, preperiodic length k = {seq.k}, "
        f"identity checked at ell = {ell if ell is not None else 'none (no splits)'}"
    )
    for row in report["points"]:
        residual = row["identity_residual"]
        if residual is not None:
            note = " (within fp budget)" if row["within_tolerance"] else " (EXCEEDS fp budget)"
            residual_text = f", identity residual = {residual:.3e}{note}"
        elif ell is not None:
            residual_text = ", identity residual unavailable"
        else:
            residual_text = ""
        gap = row["truncation_gap"]
        gap_text = "truncation gap unavailable" if gap is None else f"truncation gap = {gap:.3e}"
        yield (
            f"z = {row['z']}: M = {row['M']}, m = {row['m']}, "
            f"Mtilde = {row['Mtilde'] or 'unavailable'}, {gap_text}{residual_text}"
        )


def cmd_recover(args: argparse.Namespace) -> tuple[dict, Formatter]:
    _check_limit("--order", args.order, MAX_ORDER)
    seq, report = _read_input(args)
    p = seq.p
    order = args.order if args.order is not None else min(2 * p + 6, MAX_ORDER)
    count = (order - 1) // 2
    if count < 1:
        raise InsufficientOrder(
            f"order {order} cannot recover any pairs (need order >= 3)"
        )
    recovered = recover_coefficients(periodic_quadratic(seq.periodic), count)
    matches = all(
        rec.a_sq == exp.a * exp.a and rec.b == exp.b
        for rec, exp in zip(recovered, cycle(seq.periodic))
    )
    report.update(
        {
            "order": order,
            "pairs_recovered": [
                {
                    "a_sq": str(rec.a_sq),
                    "b": str(rec.b),
                    "a": str(rec.a) if rec.a_exact else repr(rec.a),
                    "a_exact": rec.a_exact,
                }
                for rec in recovered
            ],
            "compared_pairs": count,
            "roundtrip_matches": matches,
            "exit_status": EXIT_OK if matches else EXIT_FAIL,
        }
    )
    return report, _recover_text


def _recover_text(report: dict) -> Iterator[str]:
    # str and repr of a float agree, so "a" is the text's a either way
    yield (
        f"Laurent order {report['order']} of the periodic tail relation, "
        f"recovering {report['compared_pairs']} pairs"
    )
    for j, rec in enumerate(report["pairs_recovered"], start=1):
        yield f"  pair {j}: a^2 = {rec['a_sq']}, b = {rec['b']}, a = {rec['a']}"
    if report["roundtrip_matches"]:
        yield "round trip matches the periodic stream"
    else:
        yield "ROUND TRIP MISMATCH (implementation bug)"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged, so one instance serves every
    `main` call in the process.
    """
    parser = argparse.ArgumentParser(
        prog="palinfrac",
        description="Palindromic structure of periodic continued fractions, decided exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="path to the JSON sequence file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p_analyze = sub.add_parser("analyze", help="report period layout and palindrome splits")
    add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="exact identity verdicts")
    add_common(p_verify)
    p_verify.add_argument("--ell", type=int, help="candidate first length")
    p_verify.add_argument("--all", action="store_true", help="test every ell in 1..p-2")
    p_verify.add_argument("--tolerance", type=float, default=1e-8,
                          help="numeric cross-check tolerance (default 1e-8)")
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate M, m, Mtilde at points")
    add_common(p_eval)
    p_eval.add_argument("--points", help='evaluation points as "re,im;re,im;...", written '
                        '--points=... when the first one starts with "-"')
    p_eval.add_argument("--depth", type=int, default=2000,
                        help="truncation depth for the cross-check "
                        f"(default 2000, at most {MAX_DEPTH})")
    p_eval.add_argument("--seed", type=int, default=0,
                        help="seed for random points when --points is omitted")
    p_eval.add_argument("--tolerance", type=float, default=1e-8,
                        help="numeric residual tolerance (default 1e-8)")
    p_eval.set_defaults(func=cmd_eval)

    p_recover = sub.add_parser("recover", help="Laurent round trip to coefficients")
    add_common(p_recover)
    p_recover.add_argument("--order", type=int,
                           help=f"Laurent expansion order (default min(2p+6, {MAX_ORDER}), "
                           f"at most {MAX_ORDER})")
    p_recover.set_defaults(func=cmd_recover)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one request: print its report and return its "exit_status"."""
    args = build_parser().parse_args(argv)
    try:
        report, text = args.func(args)
    except DegenerateRelation as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BranchAmbiguity, DivisionByZero, NotAnMFunction, OverflowError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(*text(report), sep="\n")
    return report["exit_status"]

