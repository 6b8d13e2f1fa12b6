"""Mutation check: every test that a row of tests/mutations.json names must
fail on that row's mutant.

A row names a file of the repository, an exact text in it, the text that
replaces it, and test ids.  For each row, src/ is copied to a temporary
directory, the row is applied to the copy (its old text must occur there
exactly once), and pytest runs the row's tests with the copy first on
PYTHONPATH.  The script prints one line per row and exits 1 if a mutant
survives (a named test passes) or a row does not apply or does not run:

    python tests/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "mutations.json"


def run(row: dict) -> str:
    """The outcome of one row: "killed", "SURVIVED ..." or "ERROR ..."."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / row["file"]
        text = path.read_text(encoding="utf-8")
        if text.count(row["old"]) != 1:
            return f"ERROR: the old text occurs {text.count(row['old'])} times in {row['file']}"
        path.write_text(text.replace(row["old"], row["new"]), encoding="utf-8")
        pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rf", "-p", "no:cacheprovider", *row["tests"]],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
        )
    if done.returncode not in (0, 1):
        return f"ERROR: pytest exited {done.returncode}\n{done.stdout}{done.stderr}"
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    passed = [test for test in row["tests"] if test not in failed]
    return "SURVIVED: " + ", ".join(passed) + " passed" if passed else "killed"


def main() -> int:
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    bad = 0
    for row in rows:
        outcome = run(row)
        print(f"{outcome.splitlines()[0]} ({row['mutant']})", *outcome.splitlines()[1:], sep="\n")
        bad += outcome != "killed"
    print(f"{len(rows) - bad} of {len(rows)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
