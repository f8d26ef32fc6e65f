#!/usr/bin/env python3
"""Golden stdout of the 18 paper binaries (fig3-7, tables, ablations,
extensions and sweeps).

Each binary's stdout is checked in as tests/golden/paper/<binary>.txt.
Check one or more binaries (exit 1 with a unified diff on a mismatch):

    python3 tests/golden/paper_golden.py --bench-dir build/bench fig6_lu

With no binary named, all 18 are checked. Re-record all 18 after a
deliberate output change (name each changed file and the reason in
CHANGES.md):

    python3 tests/golden/paper_golden.py --bench-dir build/bench --record

Binaries that accept `--jobs` get it: their per-protocol runs are
independent deterministic simulations, so the thread count changes wall
clock only, never a printed number.
"""

import argparse
import difflib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "paper")

# Binary -> extra arguments.
BINARIES = {
    "fig3_mp3d": ["--jobs", "3"],
    "fig4_cholesky": ["--jobs", "3"],
    "fig5_cholesky_inv": ["--jobs", "3"],
    "fig6_lu": ["--jobs", "3"],
    "fig7_oltp": ["--jobs", "3"],
    "table2_ls_occurrence": [],
    "table2_protocol_family": ["--jobs", "3"],
    "table3_coverage": [],
    "table4_false_sharing": [],
    "table_occurrence_all": [],
    "ablation_variations": [],
    "ablation_consistency": [],
    "ablation_topology": [],
    "ablation_directory": [],
    "ext_instruction_centric": [],
    "ext_workloads": [],
    "sweep_cache_config": [],
    "sweep_directory_nodes": ["--jobs", "3"],
}


def run(bench_dir, name):
    cmd = [os.path.join(bench_dir, name), *BINARIES[name]]
    done = subprocess.run(cmd, capture_output=True)
    if done.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (
            " ".join(cmd), done.returncode, done.stderr.decode()))
    return done.stdout


def golden_path(name):
    return os.path.join(GOLDEN_DIR, name + ".txt")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding the built paper binaries")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the golden files instead of checking")
    parser.add_argument("binaries", nargs="*", metavar="BINARY",
                        help="binaries to check (default: all 18)")
    args = parser.parse_args()

    names = args.binaries or list(BINARIES)
    unknown = [n for n in names if n not in BINARIES]
    if unknown:
        parser.error("unknown binary: " + ", ".join(unknown))

    if args.record:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        for name in names:
            with open(golden_path(name), "wb") as f:
                f.write(run(args.bench_dir, name))
        print("recorded %d goldens to %s" % (len(names), GOLDEN_DIR))
        return 0

    failed = 0
    for name in names:
        actual = run(args.bench_dir, name)
        with open(golden_path(name), "rb") as f:
            expected = f.read()
        if actual == expected:
            continue
        failed += 1
        sys.stderr.writelines(difflib.unified_diff(
            expected.decode().splitlines(keepends=True),
            actual.decode().splitlines(keepends=True),
            "golden/" + name, "actual/" + name))
    if failed:
        print("%d of %d paper goldens differ; re-record with --record if "
              "the change is deliberate" % (failed, len(names)),
              file=sys.stderr)
        return 1
    print("paper goldens OK: %s" % " ".join(names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
