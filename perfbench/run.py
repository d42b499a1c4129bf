#!/usr/bin/env python3
"""Builds and runs the fabricpp end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run of one workload in a fresh process. The last line of standard
      output is the result JSON; build output goes to standard error.
  python3 perfbench/run.py --self-test
      Shows that the output checks catch two planted violations.
  python3 perfbench/run.py --steady --workload <name> [--runs 10] [--first-seed 1]
      Repeats one workload with consecutive seeds and prints, per metric, the
      median, quartiles and quartile spread against the bound in
      BENCHMARK.json.

The program is built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark binary; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """One run in a fresh process; returns (exit code, stdout)."""
    spans = os.path.join(build_dir(), "spans-%s.csv" % workload)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--spans", spans],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def steady(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    values = {name: [] for name in bounds}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        code, stdout = run_once(binary, args.workload, seed, seconds, args.trace)
        lines = stdout.strip().splitlines()
        if code != 0 or not lines:
            print("seed %d: exit code %d" % (seed, code))
            print(stdout)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: output checks failed" % seed)
            return 1
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in values)),
            flush=True)
    print("\n%s, %d runs of %g s, seeds %d..%d" % (
        args.workload, args.runs, seconds, args.first_seed,
        args.first_seed + args.runs - 1))
    print("failed share per run: %s" % sorted(set(shares)))
    print("%-34s %14s %14s %14s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "(spread not gated)"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
        print("%-34s %14.6g %14.6g %14.6g %8.4f %6s  %s" % (
            name, med, q1, q3, spread, "" if bound is None else bound, verdict))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    if args.self_test:
        return subprocess.run([binary, "--self-test"], timeout=RUN_TIMEOUT_S).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.steady:
        return steady(binary, args)
    if args.seed is None or args.seconds is None:
        parser.error("--seed and --seconds are required")
    try:
        code, stdout = run_once(binary, args.workload, args.seed, args.seconds,
                                args.trace)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
