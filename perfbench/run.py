#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --check-fingerprint

The OCaml program (perfbench/main.ml) does the work; this wrapper builds
it with dune inside the checkout, runs it with a time limit, and checks
that the JSON object on its last output line names exactly the metrics
BENCHMARK.json declares. It exits non-zero, without printing a result,
when the simulator sources are missing, the build fails, the program
fails an output check, or the output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def check_result(line, trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        return "metrics %s do not match BENCHMARK.json %s" % (got, want)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--check-fingerprint", action="store_true")
    args = ap.parse_args()
    if not args.check_fingerprint and None in (
        args.workload, args.seed, args.seconds, args.trace
    ):
        ap.error("--workload, --seed, --seconds and --trace are required")

    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("the simulator sources (dune-project, lib/) are not here")

    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build did not finish: %s" % e)
    if build.returncode != 0:
        return fail("build failed")

    if args.check_fingerprint:
        cmd = [EXE, "--check-fingerprint"]
    else:
        cmd = [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
        ]
    try:
        run = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if args.check_fingerprint:
        print("\n".join(lines))
        return run.returncode

    problem = None
    try:
        problem = check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        problem = "unreadable result line: %s" % e
    if problem is not None:
        print("\n".join(lines[:-1]))
        return fail(problem, code=1)
    print("\n".join(lines))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
