"""Per-layer spans, recorded by patching palinfrac from outside.

The program is not changed: `Tracer.install` replaces each traced function
with a wrapper wherever a palinfrac module binds it by name (`cli` imports
`verify_splits` and `eval_m`, `quadratic` imports `build_T1` .. `build_T3`,
`mfun` imports `periodic_quadratic`, and so on), and replaces the traced
methods on their class.  `Tracer.remove` puts every original back.

A span is one call: its name, start, end, the span that was open when it
began (its parent, -1 for none), the request it belongs to, and whether it
raised.  Spans live in flat arrays while the run lasts and are written out
once at the end.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (span name, module, attribute); "Class.method" patches the class itself.
SPANS = (
    ("cli.main", "palinfrac.cli", "main"),
    ("jacobi.load_sequence", "palinfrac.jacobi", "load_sequence"),
    ("jacobi.normalize_kp", "palinfrac.jacobi", "normalize_kp"),
    ("jacobi.find_palindrome_splits", "palinfrac.jacobi", "find_palindrome_splits"),
    ("orthopoly.build_T1", "palinfrac.orthopoly", "build_T1"),
    ("orthopoly.build_T2", "palinfrac.orthopoly", "build_T2"),
    ("orthopoly.build_T3", "palinfrac.orthopoly", "build_T3"),
    ("orthopoly.conj_transfer", "palinfrac.orthopoly", "conj_transfer"),
    ("quadratic.periodic_quadratic", "palinfrac.quadratic", "periodic_quadratic"),
    ("quadratic.pullback_quadratic", "palinfrac.quadratic", "pullback_quadratic"),
    ("quadratic.poly_is_square", "palinfrac.exactalg", "poly_is_square"),
    ("quadratic.verify_splits", "palinfrac.quadratic", "verify_splits"),
    ("quadratic.numeric_identity_check", "palinfrac.quadratic", "numeric_identity_check"),
    ("quadratic.second_solution_value", "palinfrac.quadratic", "second_solution_value"),
    ("mfun.eval_m", "palinfrac.mfun", "eval_m"),
    ("mfun.eval_periodic_m", "palinfrac.mfun", "eval_periodic_m"),
    ("mfun.eval_truncated", "palinfrac.mfun", "eval_truncated"),
    ("mfun.laurent_of_quadratic", "palinfrac.mfun", "laurent_of_quadratic"),
    ("mfun.recover_coefficients", "palinfrac.mfun", "recover_coefficients"),
    ("exactalg.Poly.mul", "palinfrac.exactalg", "Poly.__mul__"),
    ("exactalg.Poly.eval", "palinfrac.exactalg", "Poly.__call__"),
    ("exactalg.Mat2.matmul", "palinfrac.exactalg", "Mat2.__matmul__"),
    ("exactalg.poly_gcd", "palinfrac.exactalg", "poly_gcd"),
    ("exactalg.mobius_apply", "palinfrac.exactalg", "mobius_apply"),
)

SPAN_NAMES = tuple(name for name, _, _ in SPANS)


def _coeff_bits(relation) -> int:
    """Largest numerator or denominator bit length in a quadratic relation."""
    return max(
        (
            max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            for poly in (relation.alpha, relation.beta, relation.gamma)
            for c in poly.coeffs
        ),
        default=0,
    )


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.request = -1
        self.names = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        self.errors = array("b")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # counters read off return values
        self.coeff_bits_max = 0
        self.ells_checked = 0
        self.ells_holding = 0
        self.checks_run = 0
        self.checks_flagged = 0

    def _observe(self, name: str, result) -> None:
        if name == "quadratic.pullback_quadratic":
            self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))
        elif name == "quadratic.verify_splits":
            self.ells_checked += len(result)
            self.ells_holding += sum(report.holds for report in result.values())
        elif name == "quadratic.numeric_identity_check":
            self.checks_run += 1
            self.checks_flagged += not result["ok"]

    def _wrap(self, index: int, fn):
        name = SPAN_NAMES[index]
        observed = name in (
            "quadratic.pullback_quadratic",
            "quadratic.verify_splits",
            "quadratic.numeric_identity_check",
        )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.starts)
            self.names.append(index)
            self.parents.append(stack[-1] if stack else -1)
            self.requests.append(self.request)
            self.errors.append(0)
            self.ends.append(0.0)
            stack.append(span)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.ends[span] = perf_counter()
                self.errors[span] = 1
                raise
            else:
                self.ends[span] = perf_counter()
                if observed:
                    self._observe(name, result)
                return result
            finally:
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every binding of every traced callable in loaded palinfrac modules."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "palinfrac" or key.startswith("palinfrac."))
        ]
        for index, (_, module_name, attr) in enumerate(SPANS):
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(index, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def remove(self) -> None:
        """Put back every original binding, in reverse order of patching."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def layer_metrics(self, own: list[float]) -> dict[str, tuple[float, str]]:
        """Calls, self seconds and errors per span name, plus the return-value ratios.

        `own` holds the self time of every span, as `self_times` gives it.
        """
        calls = [0] * len(SPANS)
        busy = [0.0] * len(SPANS)
        errors = [0] * len(SPANS)
        for i, index in enumerate(self.names):
            calls[index] += 1
            busy[index] += own[i]
            errors[index] += self.errors[i]
        out: dict[str, tuple[float, str]] = {}
        for index, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (calls[index], "count")
            out[f"{name}.self_s"] = (busy[index], "s")
            out[f"{name}.errors"] = (errors[index], "count")
        out["quadratic.relation.coeff_bits_max"] = (self.coeff_bits_max, "bits")
        out["quadratic.verify_splits.holds_ratio"] = (
            _ratio(self.ells_holding, self.ells_checked),
            "ratio",
        )
        out["quadratic.numeric_identity_check.flagged_ratio"] = (
            _ratio(self.checks_flagged, self.checks_run),
            "ratio",
        )
        return out

    def request_self_totals(self, own: list[float]) -> dict[int, float]:
        """Sum of span self times within each request."""
        totals: dict[int, float] = {}
        for request, seconds in zip(self.requests, own):
            totals[request] = totals.get(request, 0.0) + seconds
        return totals

    def write(self, path) -> None:
        """One tab-separated line per span, times in seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\trequest\terror\n")
            for i in range(len(self.starts)):
                handle.write(
                    f"{SPAN_NAMES[self.names[i]]}\t{self.starts[i]!r}\t{self.ends[i]!r}\t"
                    f"{self.parents[i]}\t{self.requests[i]}\t{self.errors[i]}\n"
                )


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and merged where they
    overlap, so the result holds for any set of child intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        reach = lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((hi - lo) - covered)
    return out
