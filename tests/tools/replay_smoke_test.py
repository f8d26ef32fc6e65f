#!/usr/bin/env python3
"""End-to-end smoke test for the capture/replay CLI (docs/PERFORMANCE.md).

Drives the real lssim_run binary (path via $LSSIM_RUN) through the
capture-once / replay-many surface and asserts the documented exit
codes:

  0 — capture, replay from a matching trace, and a cross-check on a
      feedback-insensitive workload (private-RMW with sync=0)
  1 — replaying a trace file with an out-of-range or misaligned record
  2 — replaying a trace on a machine whose protocol-insensitive config
      differs (both config hashes must appear in the diagnostic)
  5 — cross-check divergence on a feedback-sensitive workload
      (ping-pong's spin count depends on protocol-induced timing)
"""

import os
import struct
import subprocess
import tempfile
import unittest

LSSIM_RUN = os.environ.get("LSSIM_RUN")

# Small, fast workload parameters shared by every invocation.
PRIVATE = ["--workload", "private", "--set", "words_per_proc=512",
           "--set", "sweeps=1", "--set", "sync=0"]
PINGPONG = ["--workload", "pingpong", "--set", "rounds=40"]


def run(*args):
    return subprocess.run([LSSIM_RUN, *args], capture_output=True, text=True)


@unittest.skipUnless(LSSIM_RUN and os.path.exists(LSSIM_RUN),
                     "LSSIM_RUN not set (needs the built driver binary)")
class ReplaySmokeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.trace = os.path.join(self.tmp.name, "run.lstrace")

    def tearDown(self):
        self.tmp.cleanup()

    def test_capture_then_replay_from_matching_machine(self):
        proc = run(*PRIVATE, "--capture-trace", self.trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(os.path.getsize(self.trace) > 0)

        proc = run(*PRIVATE, "--replay-from", self.trace,
                   "--protocols", "baseline,ad,ls,ils,ls+ad")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        # One result row per protocol in the normal driver output.
        for name in ("Baseline", "AD", "LS", "ILS", "LS+AD"):
            self.assertIn(name, proc.stdout)

    def test_replay_from_mismatched_machine_exits_2_with_both_hashes(self):
        proc = run(*PRIVATE, "--capture-trace", self.trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)

        proc = run(*PRIVATE, "--replay-from", self.trace, "--l2", "32k")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        # The diagnostic lists the trace's hash and the machine's hash.
        hashes = [w for w in proc.stderr.split() if w.startswith("0x")]
        self.assertGreaterEqual(len(hashes), 2, proc.stderr)
        self.assertNotEqual(hashes[0], hashes[1])

    def test_crosscheck_agrees_on_feedback_insensitive_workload(self):
        proc = run(*PRIVATE, "--replay-crosscheck",
                   "--protocols", "baseline,ad,ls,ils,ls+ad",
                   "--directories", "full-map,limited-ptr",
                   "--jobs", "2")
        self.assertEqual(proc.returncode, 0,
                         proc.stderr + "\n" + proc.stdout)

    def test_crosscheck_reports_divergence_on_spin_workload(self):
        proc = run(*PINGPONG, "--replay-crosscheck",
                   "--protocols", "baseline,ls")
        self.assertEqual(proc.returncode, 5, proc.stderr)
        self.assertIn("executed", proc.stderr)
        self.assertIn("replayed", proc.stderr)

    def test_replay_compare_runs_matrix_from_one_capture(self):
        proc = run(*PINGPONG, "--replay-compare",
                   "--protocols", "baseline,ad,ls",
                   "--format", "csv")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for name in ("Baseline", "AD", "LS"):
            self.assertIn(name, proc.stdout)

    def test_replay_from_corrupt_trace_exits_1_naming_the_field(self):
        # A version-1 file with one record whose op byte is 200.
        with open(self.trace, "wb") as f:
            f.write(b"LSTRACE1" + struct.pack("<Q", 1) +
                    struct.pack("<QQBBBB", 0x40, 0, 0, 200, 4, 0))
        proc = run(*PRIVATE, "--replay-from", self.trace)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("record 0 has op 200", proc.stderr)

    def test_replay_from_misaligned_trace_exits_1_naming_the_record(self):
        # A version-1 file with one 8-byte read at 0x44.
        with open(self.trace, "wb") as f:
            f.write(b"LSTRACE1" + struct.pack("<Q", 1) +
                    struct.pack("<QQBBBB", 0x44, 0, 0, 0, 8, 0))
        proc = run(*PRIVATE, "--replay-from", self.trace)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("record 0 has address 0x44", proc.stderr)


if __name__ == "__main__":
    unittest.main()
