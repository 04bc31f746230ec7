"""Serving benchmark for ``repro.service.SchedulingService``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout that holds ``src/repro``.  With
``--trace 0`` the command times set-up in two fresh processes, then runs
the timed closed loop in another fresh process, which times its own
set-up first; it prints every end-to-end metric of ``BENCHMARK.json``,
``setup_s`` as the median of the three set-ups.  With
``--trace 1`` it runs a traced measurement and prints every per-layer
metric instead.  Each run prints an environment header and a table of
metrics with their units and sample counts; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every answer checked out and
the service's counters reconciled with the traffic sent.

The workloads are described in ``workloads.py``, the measurement and
its steadiness measures in ``measure.py`` and the tracing in
``tracing.py``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE = HERE / "measure.py"

#: Fresh processes that only time one set-up; with the measuring
#: process's own set-up, their median is setup_s.
SETUP_PROCESSES = 2
#: Wall-clock budget of one command, below the 180 s a run may take.
BUDGET_S = 170.0
#: String hashing is randomised per process unless this is fixed, which
#: changes dict and set layouts, and so timings, from run to run.
DEFAULT_HASHSEED = "0"
#: Metric units whose values are work counts, which must repeat exactly.
COUNT_UNITS = ("count", "ratio")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no BENCHMARK.json at {ROOT}")
    return json.loads(path.read_text())


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over ``src/``, naming the program where no commit is known."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child(arguments, deadline: float) -> dict:
    """Run ``measure.py`` in a fresh process; its last output line."""
    env = dict(os.environ)
    env.setdefault("PYTHONHASHSEED", DEFAULT_HASHSEED)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a measurement could start")
    try:
        done = subprocess.run(
            [sys.executable, str(MEASURE), *arguments],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"measurement {arguments} ran out of time")
    if done.returncode != 0:
        raise BenchError(f"measurement {arguments} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"measurement {arguments} printed nothing")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [] if trace else [child(common + ["--setup-only"], deadline)
                               for _ in range(SETUP_PROCESSES)]
    result = child(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        times = [setup["setup_s"] for setup in setups] + [result["setup_s"]]
        result["metrics"]["setup_s"] = statistics.median(times)
        result["notes"]["setup_s"] = (
            f"median of {len(times)} fresh processes: "
            + ", ".join(f"{t:.3f}" for t in times)
        )
    # Each set-up process sent one warm-up request and checked its answer.
    for setup in setups:
        result["attempted"] += 1
        result["failed"] += bool(setup["failures"])
        result["failures"] += setup["failures"]
    return result


def expected_metrics(spec, trace: int) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(spec, args, result) -> bool:
    """Print the header, the metric table and the JSON line; whether the
    run is correct."""
    units = expected_metrics(spec, args.trace)
    metrics, notes, env = result["metrics"], result["notes"], result["env"]
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    env_line = " ".join(f"{k}={v}" for k, v in env.items())
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env: commit={commit()} src_sha256={source_digest()} {env_line}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:34s} {metrics[name]:14.4f} {unit:8s} {notes.get(name, '')}")
    for name, (value, unit, note) in result["info"].items():
        print(f"  {name:34s} {value:14.4f} {unit:8s} {note} (printed, not bounded)")
    if "spans" in notes:
        print(f"  spans: {notes['spans']}")
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"digests_checked={result['sampled_digests']} "
          f"counter_mismatches={len(result['mismatches'])}")
    for line in result["failures"] + result["mismatches"]:
        print(f"  ! {line}")
    if missing or extra:
        print(f"  ! metrics missing {missing}, unexpected {extra}")
    correct = (result["failed"] == 0 and not result["mismatches"]
               and not missing and not extra)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return correct


def self_test(spec) -> int:
    """A few operations per workload: every metric printed with its unit,
    no failed operation, count metrics identical on a second run."""
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = measure(workload, 1, 0, 0)
        traced = [measure(workload, 1, 0, 1) for _ in range(2)]
        for trace, result in ((0, plain), (1, traced[0]), (1, traced[1])):
            names = set(expected_metrics(spec, trace))
            if set(result["metrics"]) != names:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(set(result['metrics']) ^ names)} differ")
            if result["failed"] or result["mismatches"]:
                problems.append(f"{workload} trace={trace}: {result['failures']} "
                                f"{result['mismatches']}")
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
        for name in counts:
            first, second = (r["metrics"].get(name) for r in traced)
            if first != second:
                problems.append(f"{workload}: {name} was {first} then {second}")
        print(f"self-test {workload}: {plain['attempted']} + "
              f"{traced[0]['attempted']} x 2 operations checked")
    for problem in problems:
        print(f"  ! {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving benchmark for repro.service.SchedulingService.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the running
    # measurement process is killed and waited for before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = load_spec()
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no src/repro package under {ROOT}: nothing to measure")
        if args.self_test:
            return self_test(spec)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0 if report(spec, args, result) else 1


if __name__ == "__main__":
    sys.exit(main())
