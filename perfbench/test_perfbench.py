"""Tests of the benchmark itself: generator, oracles, tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import islice

import pytest

import oracles
import run
import tracer as tracing
import workloads

cli = run.import_cli()

# The paper's period-doubling example: p = 10, doubly palindromic at ell = 4.
PAPER_A = [1, 2, 2, 1, 3] * 2
PAPER_B = [0, 1, -1, 1, 0] * 2
PAPER = tuple((Fraction(a), Fraction(b)) for a, b in zip(PAPER_A, PAPER_B))


def report_for(request, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(request.document()))
    code, out, _, _ = run.call(cli, [request.command, "--input", str(path), "--json", *request.args])
    return code, run.parse_report(out)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = list(islice(workloads.rounds(workload, 11), 2))
    again = list(islice(workloads.rounds(workload, 11), 2))
    other = list(islice(workloads.rounds(workload, 12), 2))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_sequence_repeats_within_a_plan(workload):
    requests = [r for batch in islice(workloads.rounds(workload, 3), 6) for r in batch]
    keys = {json.dumps(r.document()) for r in requests}
    assert len(keys) == len(requests)


def test_verify_classes_have_the_promised_splits():
    import random

    entries = workloads.Entries(random.Random(5))
    for p in workloads.VERIFY_P:
        assert oracles.brute_splits(workloads.multi_split_period(entries, p))[1:]
        ell = entries.rng.randint(1, p - 2)
        assert ell in oracles.brute_splits(workloads.doubly_palindromic(entries, p, ell))


def test_oracles_agree_with_the_paper_example(tmp_path):
    assert oracles.brute_splits(PAPER) == [4]

    verify = workloads.Request("verify", (), PAPER, ("--all",))
    code, report = report_for(verify, tmp_path)
    verdict = oracles.check_verify(verify, code, report)
    assert verdict.ok and verdict.units == 8 and verdict.holding == 1

    points = (complex(0.3, 1.1), complex(-1.5, 0.5), complex(0.0, 100.0))
    evaluate = workloads.Request(
        "eval", (), PAPER, (workloads.format_points(points),), points=points
    )
    code, report = report_for(evaluate, tmp_path)
    assert report["ell"] == 4
    assert oracles.check_eval(evaluate, code, report).ok

    recover = workloads.Request("recover", (), PAPER, ("--order", "21"), order=21)
    code, report = report_for(recover, tmp_path)
    assert oracles.check_recover(recover, code, report).units == 10


def test_oracles_reject_a_wrong_answer(tmp_path):
    verify = workloads.Request("verify", (), PAPER, ("--all",))
    code, report = report_for(verify, tmp_path)
    report["verdicts"][0]["holds"] = True
    assert not oracles.check_verify(verify, code, report).ok
    assert not oracles.check_verify(verify, 1, None).answered


def test_cf_value_matches_the_constant_stream_closed_form():
    import cmath

    z = complex(0.4, 0.9)
    root = cmath.sqrt(z * z - 4)
    closed = (-z + root) / 2 if ((-z + root) / 2).imag > 0 else (-z - root) / 2
    value = oracles.cf_value((), ((Fraction(1), Fraction(0)),), z)
    assert abs(value - closed) < 1e-13


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 1.0]


def test_self_time_merges_overlapping_children():
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == 10.0 - 5.0 - 2.0


def bindings() -> dict:
    """Every name bound in a palinfrac module or on the patched classes."""
    from palinfrac.exactalg import Mat2, Poly

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "palinfrac" or name.startswith("palinfrac."):
            out.update({(name, key): value for key, value in vars(module).items()})
    for cls in (Poly, Mat2):
        out.update({(cls.__name__, key): value for key, value in vars(cls).items()})
    return out


def small_plan():
    """One round of the three shortest verify-sweep requests."""
    requests = next(workloads.rounds("verify-sweep", 2))
    return [sorted(requests, key=lambda r: len(r.periodic))[:3]]


def test_traced_run_restores_every_binding_and_repeats_its_counts(tmp_path):
    before = bindings()
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            assert cli.verify_splits is not before["palinfrac.cli", "verify_splits"]
            tally = run.drive(cli, small_plan(), tmp_path, tracer)
        after = bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)
        own = tracer.self_times()
        for request, total in tracer.request_self_totals(own).items():
            assert total <= tally.latencies[request]
        counts.append({k: v for k, v in tracer.layer_metrics(own).items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["quadratic.verify_splits.calls"] == (3, "count")
