"""palinfrac benchmark: CLI workloads in a closed loop, checked by oracles.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One client drives `palinfrac.cli.main` in this process with `--json` and
sends the next request only when the previous one has returned.  Inputs come
from the seed (perfbench/workloads.py) and are written to JSON files before
timing starts; every report is checked by perfbench/oracles.py after its
request returns, outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same requests
with every traced layer patched (perfbench/tracer.py) and prints the
per-layer metrics; its spans go to .perfbench/spans-<workload>.tsv.
--workload all runs every workload both ways in child processes and prints
one table, with the tracing overhead.  The last line of output is always
one JSON object; METRICS.md describes each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracles
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Whole rounds per run at --seconds 15, scaled in proportion to --seconds.
# A round is a fixed list of requests, so every run of a seed does the same
# requests and a traced run's call counts repeat exactly.  At reference
# speed a round takes about 6.4 s (verify-sweep), 3.4 s (series-roundtrip)
# and 7.5 s (eval-points).  verify-sweep gets the most rounds because its
# latencies vary the most from seed to seed.
ROUNDS_AT_15_S = {"verify-sweep": 3, "series-roundtrip": 3, "eval-points": 2}
# Fresh-interpreter imports per run, taken a few before each round so that
# their median spans the run rather than one moment of it.
SETUP_SAMPLES = 12
# Stop sending requests once a run has taken this long, so it ends in time
# even if the program under test became much slower.
WALL_LIMIT_S = 150.0
TAIL_BEYOND = 10
# Seconds `_kernel` takes on the reference container when it runs at full
# speed.  The CPU this benchmark gets swings by up to 45% within seconds
# (each of the 2 vCPUs on its own), so every time is scaled by
# KERNEL_REF_S / (kernel time measured right before and after it).
KERNEL_REF_S = 1.0e-3

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)


@dataclass
class Tally:
    """What a run saw, request by request."""

    latencies: list[float] = field(default_factory=list)  # seconds as measured
    scaled: list[float] = field(default_factory=list)  # the same at reference speed
    answered_s: float = 0.0  # scaled seconds of the requests that returned a report
    units: int = 0
    failed: int = 0
    wrong: int = 0
    holding: int = 0
    flagged: int = 0
    max_error: float = 0.0
    reasons: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)  # each makes the run invalid

    @property
    def failed_share(self) -> float:
        return self.failed / len(self.latencies)

    @property
    def false_alarm_share(self) -> float:
        return self.flagged / self.holding if self.holding else 0.0


def plan(workload: str, seed: int, seconds: int) -> list[list[workloads.Request]]:
    count = max(1, round(ROUNDS_AT_15_S[workload] * seconds / 15))
    source = workloads.rounds(workload, seed)
    return [next(source) for _ in range(count)]


def import_cli():
    """Import palinfrac.cli from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "palinfrac" / "cli.py").is_file():
        print(f"no palinfrac sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from palinfrac import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"palinfrac was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli


def _kernel() -> None:
    """A fixed mix of the arithmetic the program spends its time in."""
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 7) * Fraction(2 * i + 1, 3)
    z, v = 0.3 + 1.1j, 0j
    for _ in range(1000):
        v = 1 / (0.5 - z - 2.0 * v)
    total = 0
    for i in range(7500):
        total += i * i


def kernel_seconds() -> float:
    """How long the kernel takes on this CPU now: the better of two runs."""
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds at reference speed, given kernel times around the measurement."""
    return seconds * KERNEL_REF_S / ((before + after) / 2)


def setup_samples(count: int) -> list[float]:
    """Reference-speed seconds each of `count` fresh interpreters takes to
    import palinfrac.cli."""
    code = (
        "import time; t = time.perf_counter(); import palinfrac.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(count):
        before = kernel_seconds()
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        out.append(scaled(float(done.stdout), before, kernel_seconds()))
    return out


def call(cli, argv: list[str]) -> tuple[int, str, float, str]:
    """Run one CLI request; returns exit code, stdout, seconds and stderr or traceback."""
    out, err = io.StringIO(), io.StringIO()
    crash = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a CLI user would see a traceback and exit 1
            code = 1
            crash = traceback.format_exc()
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed, crash or err.getvalue()


def parse_report(text: str) -> dict | None:
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return None
    return report if isinstance(report, dict) else None


def drive(cli, rounds, workdir: Path, tracer: Tracer | None = None, before_round=None) -> Tally:
    """Send every request of every round in turn and check each report."""
    paths = []
    for r, batch in enumerate(rounds):
        paths.append([])
        for i, request in enumerate(batch):
            path = workdir / f"{r:03d}-{i:03d}.json"
            path.write_text(json.dumps(request.document()), encoding="utf-8")
            paths[-1].append(str(path))
    tally = Tally()
    started = perf_counter()
    speed = kernel_seconds()
    for batch, batch_paths in zip(rounds, paths):
        if before_round is not None:
            before_round()
            speed = kernel_seconds()
        for request, path in zip(batch, batch_paths):
            if perf_counter() - started > WALL_LIMIT_S:
                tally.problems.append(f"stopped after {WALL_LIMIT_S:.0f} s, plan not finished")
                return tally
            if tracer is not None:
                tracer.request = len(tally.latencies)
            argv = [request.command, "--input", path, "--json", *request.args]
            code, out, elapsed, err = call(cli, argv)
            previous, speed = speed, kernel_seconds()
            tally.latencies.append(elapsed)
            tally.scaled.append(scaled(elapsed, previous, speed))
            verdict = oracles.CHECKS[request.command](request, code, parse_report(out))
            if verdict.answered:
                tally.answered_s += tally.scaled[-1]
            if verdict.ok:
                tally.units += verdict.units
                tally.holding += verdict.holding
                tally.flagged += verdict.flagged
                tally.max_error = max(tally.max_error, verdict.error)
                continue
            tally.failed += 1
            tally.wrong += verdict.answered
            if verdict.answered:
                reason = verdict.reason
            else:
                reason = f"exit {code}: " + (err.strip().splitlines() or [""])[-1]
            tally.reasons[reason[:100]] += 1
    return tally


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n, n


def describe(workload: str, seed: int, tally: Tally) -> list[str]:
    value, percentile, n = tail(tally.scaled)
    lines = [
        f"workload {workload}, seed {seed}: {len(tally.latencies)} requests, "
        "one closed-loop client",
        f"  failed_share {tally.failed_share:.4f} ({tally.failed} failed, "
        f"{tally.wrong} of them with a wrong answer)",
        f"  false_alarm_share {tally.false_alarm_share:.4f} "
        f"({tally.flagged} of {tally.holding} checks of holding identities flagged)",
        f"  worst relative error of M or m against the oracle: {tally.max_error:.3g}",
        f"  latency_tail_s is p{percentile:.1f} of {n} requests: {value:.6f} s",
        f"  median latency as measured, before scaling to reference speed: "
        f"{statistics.median(tally.latencies):.6f} s",
        "  queue wait: none (a single client never queues)",
    ]
    lines += [f"  INVALID RUN: {problem}" for problem in tally.problems]
    lines += [f"  failure: {reason} x{count}" for reason, count in tally.reasons.most_common()]
    return lines


def measure(workload: str, seed: int, seconds: int) -> tuple[Tally, dict]:
    """The untraced run: end-to-end metrics, setup imports taken between rounds."""
    cli = import_cli()
    rounds = plan(workload, seed, seconds)
    per_round = math.ceil(SETUP_SAMPLES / len(rounds))
    setup_samples(1)  # writes the bytecode cache that every later import reads
    samples: list[float] = []
    with _workdir(workload, seed) as workdir:
        tally = drive(cli, rounds, workdir, None, lambda: samples.extend(setup_samples(per_round)))
    metrics = {
        "setup_s": statistics.median(samples),
        "latency_p50_s": statistics.median(tally.scaled),
        "latency_tail_s": tail(tally.scaled)[0],
        "work_per_s": tally.units / tally.answered_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, {name: (metrics[name], unit) for name, unit in END_TO_END}


def trace(workload: str, seed: int, seconds: int) -> tuple[Tally, dict]:
    """The traced run: the same requests with every layer patched."""
    cli = import_cli()
    with _workdir(workload, seed) as workdir, Tracer() as tracer:
        tally = drive(cli, plan(workload, seed, seconds), workdir, tracer)
    own = tracer.self_times()
    metrics = tracer.layer_metrics(own)
    metrics["cli.failed_share"] = (tally.failed_share, "ratio")
    metrics["cli.false_alarm_share"] = (tally.false_alarm_share, "ratio")
    metrics["mfun.eval.max_rel_error"] = (tally.max_error, "ratio")
    metrics["trace.work_per_s"] = (tally.units / tally.answered_s, "1/s")
    over = [
        i for i, total in tracer.request_self_totals(own).items() if total > tally.latencies[i]
    ]
    if over:
        tally.problems.append(f"self times exceed the latency of requests {over[:5]}")
    spans = WORK / f"spans-{workload}.tsv"
    tracer.write(spans)
    print(f"{len(tracer.starts)} spans written to {spans.relative_to(ROOT)}")
    return tally, metrics


@contextlib.contextmanager
def _workdir(workload: str, seed: int):
    path = WORK / f"{workload}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_one(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    # One CPU for the requests, the kernel timings and the child imports, so
    # that the kernel measures the speed of the CPU the work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tally, metrics = (trace if traced else measure)(workload, seed, seconds)
    for line in describe(workload, seed, tally):
        print(line)
    return {
        "correct": tally.wrong == 0 and not tally.problems,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: int) -> dict:
    """Every workload untraced and traced, each in its own process."""
    results = {}
    for workload in workloads.WORKLOADS:
        for traced in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(traced)],
                capture_output=True,
                text=True,
                timeout=600,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                sys.exit(done.returncode)
            results[workload, traced] = json.loads(done.stdout.splitlines()[-1])

    def row(label: str, unit: str, cells) -> None:
        print(f"{label:<22}{unit:<7}" + "".join(f"{c:>18}" for c in cells))

    def value(workload: str, traced: int, name: str) -> float:
        return results[workload, traced]["metrics"][name]["value"]

    row("metric", "unit", workloads.WORKLOADS)
    for name, unit in END_TO_END:
        row(name, unit, (f"{value(w, 0, name):.6g}" for w in workloads.WORKLOADS))
    for name in ("cli.failed_share", "cli.false_alarm_share"):
        row(name[4:], "ratio", (f"{value(w, 1, name):.4f}" for w in workloads.WORKLOADS))
    row("attempted", "count", (results[w, 0]["attempted"] for w in workloads.WORKLOADS))
    overhead = []
    for w in workloads.WORKLOADS:
        plain, traced = value(w, 0, "work_per_s"), value(w, 1, "trace.work_per_s")
        overhead.append(f"{plain - traced:.4g} ({(plain - traced) / plain:.0%})")
    row("tracing overhead", "1/s", overhead)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": results[w, 0]["metrics"][name]
            for w in workloads.WORKLOADS
            for name, _ in END_TO_END
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
