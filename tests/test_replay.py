"""Same bytes: the benchmark's seed-101..103 plans, replayed through `cli.main`.

Every request of the rounds that `perfbench/run.py --seconds 15` runs (the
first 3 of verify-sweep, 3 of series-roundtrip and 2 of eval-points) is
written as the benchmark client writes it and run in process, once as text
and once with --json.  Each call's exit code and the SHA-256 of its stdout
and stderr must equal the committed manifest.  A change that alters output
on purpose regenerates the manifest, and explains every change, as for the
golden files:

    PYTHONPATH=src python tests/test_replay.py
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path

from palinfrac.cli import main
from conftest import perfbench_module

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "replay.manifest.json"
SEEDS = (101, 102, 103)
# the rounds `run.plan` takes at --seconds 15 (`run.ROUNDS_AT_15_S`)
ROUNDS = {"verify-sweep": 3, "series-roundtrip": 3, "eval-points": 2}


def _call(argv: list[str]) -> str:
    """One in-process CLI call's record: "exit-code stdout-sha256 stderr-sha256"."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    digests = [sha256(s.getvalue().encode()).hexdigest() for s in (stdout, stderr)]
    return " ".join([str(code), *digests])


def replay(workdir: Path) -> dict[str, str]:
    """Each call's `_call` record, keyed by "workload seed round.request mode"."""
    workloads = perfbench_module("workloads")
    out = {}
    for workload, count in ROUNDS.items():
        for seed in SEEDS:
            source = workloads.rounds(workload, seed)
            for r in range(count):
                for i, request in enumerate(next(source)):
                    path = workdir / f"{workload}-{seed}-{r}-{i}.json"
                    path.write_text(json.dumps(request.document()), encoding="utf-8")
                    argv = [request.command, "--input", str(path)]
                    key = f"{workload} {seed} {r}.{i}"
                    out[f"{key} text"] = _call([*argv, *request.args])
                    out[f"{key} json"] = _call([*argv, "--json", *request.args])
    return out


def test_replay_matches_the_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert len(expected) == 798
    got = replay(tmp_path)
    differ = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not differ, f"{len(differ)} calls differ from the manifest:\n" + "\n".join(differ)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        manifest = replay(Path(workdir))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} calls to {MANIFEST.relative_to(ROOT)}", file=sys.stderr)
