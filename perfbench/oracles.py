"""Independent oracles for the CLI's --json reports.

Nothing here imports palinfrac: the expected answers come from the request's
own pairs by other means than the library uses.  Palindrome splits are found
by slicing, recovered pairs are read off the unrolled stream, and function
values come from backward evaluation of the continued fraction, deepened
until it stops moving.

Each check returns a Verdict: whether a report came back and is right, how
many units of work it delivered (ell verdicts, recovered pairs or points),
and, among the exact verdicts that hold, how many the double-precision
cross-check flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from workloads import Request

# A wrong branch or formula is off by O(1).  The CLI's roots of the
# quadratic lose relative accuracy in proportion to |z|^2 through
# cancellation (about 1e-14 |z|^2 at worst on these inputs), and it prints
# 12 significant digits (about 5e-12).  `tolerance` allows some 100 and 20
# times these; the worst error seen is reported on its own (Verdict.error),
# so the loss still shows.
def tolerance(z: complex) -> float:
    return 1e-10 + 1e-12 * abs(z) ** 2


CF_START_DEPTH = 64
CF_MAX_DEPTH = 1 << 17
CF_RTOL = 1e-14


@dataclass(frozen=True)
class Verdict:
    """`ok` when the report is right; `answered` is false when none came back."""

    ok: bool
    answered: bool = True
    units: int = 0
    holding: int = 0
    flagged: int = 0
    error: float = 0.0
    reason: str = ""


NO_REPORT = Verdict(False, answered=False, reason="no report")


def _reject(reason: str) -> Verdict:
    return Verdict(False, reason=reason)


def brute_splits(periodic) -> list[int]:
    """First lengths ell at which the period is doubly palindromic, by slicing."""
    p = len(periodic)
    a = [q[0] for q in periodic]
    b = [q[1] for q in periodic]
    return [
        ell
        for ell in range(1, p - 1)
        if a[:ell] == a[:ell][::-1]
        and a[ell:] == a[ell:][::-1]
        and b[: ell + 1] == b[: ell + 1][::-1]
        and b[ell + 1 :] == b[ell + 1 :][::-1]
    ]


def unrolled(preperiodic, periodic, n: int) -> list[tuple[Fraction, Fraction]]:
    """The first n pairs of the stream preperiodic + periodic + periodic + ..."""
    out = list(preperiodic)
    while len(out) < n:
        out.extend(periodic)
    return out[:n]


def normalized_k(preperiodic, periodic) -> int:
    """Preperiod length after the CLI appends a period when it must."""
    if preperiodic and preperiodic[-1] == periodic[-1]:
        return len(preperiodic)
    return len(preperiodic) + len(periodic)


def cf_value(preperiodic, periodic, z: complex) -> complex:
    """The m-function of the stream at z by backward continued-fraction evaluation.

    Evaluated with tail value 0 at doubling depths until two successive
    depths agree to CF_RTOL, far below the tolerance the CLI is held to.
    """
    head = [(float(a) ** 2, float(b)) for a, b in preperiodic]
    cycle = [(float(a) ** 2, float(b)) for a, b in periodic]
    previous = None
    depth = CF_START_DEPTH
    while True:
        stream = head + cycle * (depth // len(cycle) + 1)
        value = 0j
        for a_sq, b in reversed(stream[:depth]):
            value = 1 / (b - z - a_sq * value)
        if previous is not None and abs(value - previous) <= CF_RTOL * abs(value):
            return value
        if depth >= CF_MAX_DEPTH:
            raise ArithmeticError(f"continued fraction did not settle at z = {z}")
        previous = value
        depth *= 2


def relative_error(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


def check_verify(request: Request, code: int, report: dict | None) -> Verdict:
    """`verify --all`: every ell's verdict equals the brute split set."""
    if report is None:
        return NO_REPORT
    p = len(request.periodic)
    expected = brute_splits(request.periodic)
    want_code = 0 if len(expected) == p - 2 else 1
    if code != want_code or report.get("exit_status") != want_code:
        return _reject(f"exit {code}, expected {want_code}")
    if report["p"] != p or report["k"] != normalized_k(request.preperiodic, request.periodic):
        return _reject("wrong p or k")
    verdicts = report["verdicts"]
    if [v["ell"] for v in verdicts] != list(range(1, p - 1)):
        return _reject("ell list is not 1 .. p-2")
    for v in verdicts:
        if v["holds"] != (v["ell"] in expected):
            return _reject(f"wrong verdict at ell = {v['ell']}")
    if report["holds_set"] != expected:
        return _reject("wrong holds_set")
    flagged = sum(1 for v in verdicts if v["holds"] and v["numeric_ok"] is False)
    return Verdict(True, units=p - 2, holding=len(expected), flagged=flagged)


def check_recover(request: Request, code: int, report: dict | None) -> Verdict:
    """`recover --order N`: (a^2, b) of the first (N-1)//2 pairs of the stream."""
    if report is None:
        return NO_REPORT
    count = (request.order - 1) // 2
    if code != 0 or report.get("exit_status") != 0 or not report["roundtrip_matches"]:
        return _reject(f"exit {code}")
    if report["order"] != request.order or report["compared_pairs"] != count:
        return _reject("wrong order or pair count")
    got = [(Fraction(r["a_sq"]), Fraction(r["b"])) for r in report["pairs_recovered"]]
    want = [(a * a, b) for a, b in unrolled((), request.periodic, count)]
    if got != want:
        return _reject("recovered pairs differ from the stream")
    return Verdict(True, units=count)


def check_eval(request: Request, code: int, report: dict | None) -> Verdict:
    """`eval --points=...`: M and m at every point, and the split the identity uses."""
    if report is None:
        return NO_REPORT
    if code != 0 or report.get("exit_status") != 0:
        return _reject(f"exit {code}")
    splits = brute_splits(request.periodic)
    if report["ell"] != (splits[0] if splits else None):
        return _reject("identity checked at the wrong ell")
    rows = report["points"]
    if len(rows) != len(request.points):
        return _reject("wrong number of points")
    flagged = 0
    worst = 0.0
    for z, row in zip(request.points, rows):
        if relative_error(complex(row["z"]), z) > tolerance(z):
            return _reject(f"point {z} echoed as {row['z']}")
        for key, want in (
            ("M", cf_value(request.preperiodic, request.periodic, z)),
            ("m", cf_value((), request.periodic, z)),
        ):
            error = relative_error(complex(row[key]), want)
            if error > tolerance(z):
                return _reject(f"{key} at {z}: {row[key]}, oracle {want!r}")
            worst = max(worst, error)
        if row["im_M_positive"] != (complex(row["M"]).imag > 0):
            return _reject(f"im_M_positive wrong at {z}")
        flagged += row["within_tolerance"] is False
    return Verdict(True, units=len(rows), holding=len(rows), flagged=flagged, error=worst)


CHECKS = {"verify": check_verify, "recover": check_recover, "eval": check_eval}
