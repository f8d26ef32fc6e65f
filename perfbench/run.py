#!/usr/bin/env python3
"""Build and run the lssim benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload oltp4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-digests FIRST LAST   # rewrites digests.txt

The first call configures and builds the simulator library and the
benchmark binary into .bench_build/ (CMake, RelWithDebInfo); later calls
rebuild only what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lssim_perfbench")
DIGESTS = os.path.join(HERE, "digests.txt")
WORKLOADS = ["oltp4", "stencil128", "replay_oltp", "oltp4_observed"]
BUILD_JOBS = "4"


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/ next to the benchmark")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS,
                  "--target", "lssim_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step), 1)


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = done.stdout.strip()
    return commit if done.returncode == 0 and commit else "unknown"


def record_digests(first, last):
    lines = set()
    for workload in WORKLOADS:
        done = subprocess.run([BINARY, "--record-digests", workload,
                               str(first), str(last)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            fail("recording digests failed for " + workload, 1)
        lines.update(line for line in done.stdout.splitlines() if line)
    with open(DIGESTS, "w") as out:
        out.write("# RunResult digests (FNV-1a over every field), one per "
                  "simulation key,\n# for workload seeds %d..%d. Written by "
                  "perfbench/run.py --record-digests.\n" % (first, last))
        out.writelines(line + "\n" for line in sorted(lines))
    print("perfbench: %d digests written to %s" % (len(lines), DIGESTS))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-digests", nargs=2, type=int,
                        metavar=("FIRST", "LAST"))
    args = parser.parse_args()
    run_args = [args.workload, args.seed, args.seconds, args.trace]
    if not args.selftest and not args.record_digests and None in run_args:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.selftest:
        return subprocess.run([BINARY, "--selftest"]).returncode
    if args.record_digests:
        record_digests(*args.record_digests)
        return 0
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", git_commit()]
    if os.path.isfile(DIGESTS):
        command += ["--digests", DIGESTS]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
