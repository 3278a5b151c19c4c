#!/usr/bin/env python3
"""End-to-end benchmark of the timebounds checker.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first form builds the benchmark (a Cargo package of its own, into
$CARGO_TARGET_DIR, default `.bench_build`) and runs one workload in its own
process; the last line of its standard output is the JSON result. `all`
runs every workload of BENCHMARK.json, each in its own process, and prints
every metric by name with its unit. `--selftest` checks the benchmark
itself on the small n = 3 shape: every declared metric prints with its
unit, a deliberately wrong pinned answer fails the run, and the traced
and untraced runs give identical answers.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace, extra=(), quiet=False):
    """Runs one workload; returns (exit code, stdout lines, result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    stderr = subprocess.DEVNULL if quiet else None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=stderr, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_all(binary, args):
    spec = load_spec()
    failed = False
    for workload in spec["workloads"]:
        code, lines, result = run_one(binary, workload["name"], args.seed,
                                      args.seconds, args.trace)
        for line in lines[:-1]:
            print(line)
        if code != 0 or result is None or not result["correct"]:
            print(f"perfbench: {workload['name']} FAILED (exit {code})")
            failed = True
    return 1 if failed else 0


def selftest(binary):
    spec = load_spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        answers = {}
        for trace in (0, 1):
            code, lines, result = run_one(binary, workload, 7, 0, trace,
                                          ("--shape", "n3"))
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics {got} != declared {expected[trace]}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: not correct: {result}")
            answers[trace] = [l for l in lines if " answers = " in l]
        if answers.get(0) != answers.get(1):
            problems.append(f"{workload}: traced answers {answers.get(1)} != untraced {answers.get(0)}")
        code, _, result = run_one(binary, workload, 7, 0, 0, ("--shape", "n3", "--break-pin"),
                                  quiet=True)
        if code == 0 or result is None or result["correct"]:
            problems.append(f"{workload}: a wrong pinned answer did not fail the run (exit {code})")
    for p in problems:
        print(f"perfbench: selftest: {p}")
    print("perfbench: selftest " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload or --selftest is required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.workload == "all":
        return run_all(binary, args)
    code, lines, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
