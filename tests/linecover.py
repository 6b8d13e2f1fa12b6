"""Line-coverage gate: Tier-1 must run every executable line of src/palinfrac/.

The suite runs in this process under a line tracer limited to the files of
src/palinfrac/.  Hypothesis runs only its explicit examples (`@example`),
so a line that only a random draw reaches counts as unrun: every line must
be reached by a fixed case.  ALLOWED names, as source text, the lines that
may stay unrun, each with its reason.  The script prints every unrun line
that ALLOWED does not name and exits 1 if there is one or if the suite
fails; it raises if an ALLOWED text is not found exactly once:

    python tests/linecover.py [extra pytest arguments]
"""

from __future__ import annotations

import dis
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "palinfrac"

# (file under src/palinfrac/, its source text, why its lines may stay
# unrun); the text is matched line by line, indentation aside, and must
# occur exactly once in the file
ALLOWED = [
    (
        "cli.py",
        """
        try:
            from _sha2 import sha256  # 3.12+
        except ImportError:
            try:
                from _sha256 import sha256  # 3.10, 3.11
            except ImportError:
                from hashlib import sha256
        """,
        "each Python takes one of the three SHA-256 imports: 3.12+ the first, "
        "3.10 and 3.11 the second, and the third is for interpreters without either",
    ),
]


def allowed_lines(path: Path, source: list[str]) -> set[int]:
    """The line numbers of `path` that ALLOWED names.

    Raises:
        LookupError: an entry for `path` does not occur exactly once.
    """
    stripped = [line.strip() for line in source]
    lines: set[int] = set()
    for name, text, _ in ALLOWED:
        if name != path.name:
            continue
        want = [line.strip() for line in text.strip().splitlines()]
        starts = [
            i for i in range(len(stripped) - len(want) + 1)
            if stripped[i : i + len(want)] == want
        ]
        if len(starts) != 1:
            raise LookupError(f"{name}: an ALLOWED text occurs {len(starts)} times: {want[0]} ...")
        lines.update(range(starts[0] + 1, starts[0] + len(want) + 1))
    return lines


def executable_lines(path: Path) -> set[int]:
    """The lines of `path` at which its bytecode starts a line (line 0 is
    the module's own start, not a line of the file).

    A nested code object's first line (its `def`, `class` or decorator
    line) belongs to the code that defines it, so only that code counts it.
    """
    lines: set[int] = set()
    codes = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), True)]
    while codes:
        code, top = codes.pop()
        lines.update(
            line for _, line in dis.findlinestarts(code)
            if line and (top or line != code.co_firstlineno)
        )
        codes.extend((c, False) for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code over `args` and the (file, line) pairs of src/palinfrac/ that ran."""
    import pytest

    class ExplicitExamplesOnly:
        @pytest.hookimpl(trylast=True)
        def pytest_configure(self, config):
            from hypothesis import Phase, settings

            settings.register_profile("linecover", phases=[Phase.explicit])
            settings.load_profile("linecover")

    prefix = str(SRC)
    ran: set[tuple[str, int]] = set()
    # a code object stops being traced once each of its lines has run
    left: dict = {}

    def line_tracer(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran.add((code.co_filename, frame.f_lineno))
            left[code].discard(frame.f_lineno)
            if not left[code]:
                return None
        return line_tracer

    def call_tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        if code not in left:
            left[code] = {line for _, line in dis.findlinestarts(code) if line}
        return line_tracer if left[code] else None

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[ExplicitExamplesOnly()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main(argv: list[str]) -> int:
    # palinfrac is imported under the tracer, so its module-level lines count
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    status, ran = traced_run(argv or [str(ROOT / "tests")])
    elapsed = time.perf_counter() - start
    bad = total = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        allowed = allowed_lines(path, source)
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) in ran:
                continue
            unrun += 1
            if line not in allowed:
                print(f"{path.relative_to(ROOT)}:{line}: not run: {source[line - 1].strip()}")
                bad += 1
    print(
        f"{total - unrun} of {total} executable lines of src/palinfrac/ run, "
        f"{unrun} unrun, {bad} not allowed; pytest exit {status}; {elapsed:.1f} s"
    )
    return 1 if bad or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
