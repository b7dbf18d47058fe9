#!/usr/bin/env python3
"""Builds and runs the wdr benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the library
from src/) under .bench_build/perfbench, or under $CARGO_TARGET_DIR/perfbench
when that is set. Build output goes to stderr; the last line of stdout is
the result JSON described in perfbench/README.md. Traced runs also write
their spans to <build dir>/traces/.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
PINNED_ENV = ("WDR_MODE", "WDR_PLAN", "WDR_ENCODING")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def child_env():
    env = dict(os.environ)
    for name in PINNED_ENV:
        env.pop(name, None)
    return env


def build(target):
    """Configures (Release) and builds one target; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no wdr sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(out), "--target", target, "-j", jobs]]
    if not cache.is_file() or "CMAKE_BUILD_TYPE:STRING=Release" not in (
        cache.read_text(errors="replace")
    ):
        steps.insert(0, ["cmake", "-S", str(PACKAGE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        try:
            subprocess.run(step, check=True, stdout=sys.stderr,
                           env=child_env())
        except (OSError, subprocess.CalledProcessError) as e:
            fail(f"build failed: {e}")
    return out / target


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns the error in a result line, or None when it is well formed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return f"result keys are not exactly {sorted(RESULT_KEYS)}"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "nothing was attempted"
    want = expected_metrics(trace)
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or sorted(metrics) != sorted(want):
        return "metric names differ from BENCHMARK.json"
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"} or not isinstance(
                metric["value"], (int, float)):
            return f"metric {name} is malformed"
    return None


def run(args):
    binary = build("wdr_perfbench_traced" if args.trace else "wdr_perfbench")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.tsv")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env(),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"the benchmark exited with code {proc.returncode}")
    error = check_result(lines[-1], args.trace)
    if error is not None:
        print("\n".join(lines[:-1]))
        fail(error)
    print("\n".join(lines))
    return 0


def selftest():
    binary = build("perfbench_selftest")
    return subprocess.run([str(binary)], env=child_env()).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["serve-read", "serve-rw", "embedded"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
