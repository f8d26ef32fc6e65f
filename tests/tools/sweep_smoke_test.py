#!/usr/bin/env python3
"""End-to-end smoke tests for tools/lssim_sweep + bench_compare --store.

Drives the real binary the way CI's sweep smoke job does: generate a
small matrix, run it sharded into JSONL stores, interrupt + resume, and
feed the stores to tools/bench_compare.py --store. Needs LSSIM_SWEEP
(and optionally BENCH_COMPARE) in the environment — tests/CMakeLists.txt
wires both.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SWEEP = os.environ.get("LSSIM_SWEEP")
BENCH_COMPARE = os.environ.get(
    "BENCH_COMPARE",
    os.path.join(os.path.dirname(__file__), "..", "..", "tools",
                 "bench_compare.py"),
)

SMALL_MATRIX = [
    "--workloads", "pingpong",
    "--protocols", "Baseline,LS",
    "--nodes", "2,4",
    "--set", "rounds=20",
    "--no-timing",
]


def run_sweep(*argv):
    return subprocess.run([SWEEP, *argv], capture_output=True, text=True)


def load_store(path):
    header, records = None, []
    with open(path) as f:
        for line in f:
            doc = json.loads(line)
            if doc.get("kind") == "header":
                header = doc
            elif doc.get("kind") == "result":
                records.append(doc)
    return header, records


@unittest.skipIf(SWEEP is None, "LSSIM_SWEEP not set")
class SweepSmokeTest(unittest.TestCase):
    def test_count_and_list_need_no_store(self):
        proc = run_sweep(*SMALL_MATRIX, "--count")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("units 4", proc.stdout)
        proc = run_sweep(*SMALL_MATRIX, "--list")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        self.assertEqual(len(lines), 4)
        hashes = [line.split()[0] for line in lines]
        self.assertEqual(len(set(hashes)), 4, "config hashes must be unique")
        for h in hashes:
            self.assertTrue(h.startswith("0x"))

    def test_run_resume_and_store_contents(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = os.path.join(tmp, "sweep.jsonl")
            proc = run_sweep(*SMALL_MATRIX, "--store", store, "--jobs", "2")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            header, records = load_store(store)
            self.assertEqual(header["schema_version"], 1)
            self.assertEqual(header["generator"], "lssim_sweep")
            self.assertEqual(len(records), 4)
            self.assertTrue(all(r["result"]["exec_cycles"] > 0
                                for r in records))

            # Rerun: everything skips, zero re-executed hashes.
            before = open(store, "rb").read()
            proc = run_sweep(*SMALL_MATRIX, "--store", store, "--jobs", "2")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertIn("4 skipped", proc.stderr)
            self.assertIn("0 executed", proc.stderr)
            self.assertEqual(open(store, "rb").read(), before)

            # Interrupt (truncate mid-record) and resume: byte-identical.
            newline_offsets = [i for i, b in enumerate(before)
                               if b == ord("\n")]
            with open(store, "r+b") as f:
                f.truncate(newline_offsets[2] + 12)
            proc = run_sweep(*SMALL_MATRIX, "--store", store, "--jobs", "2")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertEqual(open(store, "rb").read(), before,
                             "resume is not byte-identical")

    def test_sharding_partitions_without_overlap(self):
        with tempfile.TemporaryDirectory() as tmp:
            stores = []
            for shard in range(2):
                store = os.path.join(tmp, f"shard{shard}.jsonl")
                proc = run_sweep(*SMALL_MATRIX, "--store", store,
                                 "--shard", f"{shard}/2")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                stores.append(store)
            seen = []
            for store in stores:
                _, records = load_store(store)
                seen.extend(r["hash"] for r in records)
            self.assertEqual(len(seen), 4)
            self.assertEqual(len(set(seen)), 4, "shards overlap")

    def test_usage_errors_exit_2(self):
        self.assertEqual(run_sweep("--no-such-flag").returncode, 2)
        self.assertEqual(run_sweep(*SMALL_MATRIX).returncode, 2)  # No store.
        for shard in ("3/2", "0/2junk", "0/4294967298", "-1/2", "1"):
            self.assertEqual(
                run_sweep(*SMALL_MATRIX, "--store", "x", "--shard", shard)
                .returncode, 2, shard)

    def test_unparsed_numbers_exit_2_naming_the_flag(self):
        # Each once parsed with no end check: --seed abc swept seed 0,
        # --max-cycles abc turned the watchdog off, --jobs abc meant all
        # cores. --list shows the matrix without running it.
        for flag in ("--seed", "--max-cycles", "--jobs", "--batch"):
            for value in ("abc", "12x", "-1"):
                proc = run_sweep(*SMALL_MATRIX, flag, value, "--list")
                self.assertEqual(proc.returncode, 2, (flag, value))
                self.assertIn(flag, proc.stderr)

    def test_machine_axes_reject_values_their_field_cannot_hold(self):
        # --l1 5g once listed l1=1073741824 (5 GiB narrowed to 32 bits).
        for flag, value in (("--l1", "5g"), ("--l2", "4g"),
                            ("--blocks", "512"), ("--nodes", "4294967297"),
                            ("--l1", "4k,,8k")):
            proc = run_sweep(*SMALL_MATRIX, flag, value, "--list")
            self.assertEqual(proc.returncode, 2, (flag, value))
            self.assertIn(flag, proc.stderr)
            self.assertEqual(proc.stdout, "")
        proc = run_sweep(*SMALL_MATRIX, "--l1", "8k", "--seed", "7",
                         "--list")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("l1=8192", proc.stdout)

    def test_refuses_non_store_file_without_clobbering(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "precious.txt")
            with open(path, "w") as f:
                f.write("not a results store\n")
            proc = run_sweep(*SMALL_MATRIX, "--store", path)
            self.assertEqual(proc.returncode, 3, proc.stderr)
            self.assertEqual(open(path).read(), "not a results store\n")

    def test_bench_compare_store_gate_and_trend(self):
        with tempfile.TemporaryDirectory() as tmp:
            old = os.path.join(tmp, "old.jsonl")
            new = os.path.join(tmp, "new.jsonl")
            for store in (old, new):
                proc = run_sweep(*SMALL_MATRIX, "--store", store)
                self.assertEqual(proc.returncode, 0, proc.stderr)
            compare = subprocess.run(
                [sys.executable, BENCH_COMPARE, "--store", old, new],
                capture_output=True, text=True)
            self.assertEqual(compare.returncode, 0, compare.stderr)
            self.assertIn("4 shared", compare.stdout)
            trend = subprocess.run(
                [sys.executable, BENCH_COMPARE, "--store", "--trend",
                 old, new],
                capture_output=True, text=True)
            self.assertEqual(trend.returncode, 0, trend.stderr)


if __name__ == "__main__":
    unittest.main()
