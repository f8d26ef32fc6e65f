#!/usr/bin/env python3
"""lssim_fuzz's numeric flags.

Drives the real binary (path via $LSSIM_FUZZ). Every numeric flag is a
whole number inside its range, or the run exits 2 naming the flag before
any trace is checked: `fuzz --iterations -1` once checked 0 traces and
exited 0, and `explore --nodes 4294967298` explored a 2-node machine.
"""

import os
import subprocess
import unittest

LSSIM_FUZZ = os.environ.get("LSSIM_FUZZ")


def run(*args):
    return subprocess.run([LSSIM_FUZZ, *args], capture_output=True,
                          text=True, timeout=120)


@unittest.skipUnless(LSSIM_FUZZ and os.path.exists(LSSIM_FUZZ),
                     "LSSIM_FUZZ not set (needs the built lssim_fuzz)")
class FuzzCliTest(unittest.TestCase):
    def test_bad_numbers_exit_2_naming_the_flag(self):
        cases = [
            ("fuzz", "--iterations", "-1"),
            ("fuzz", "--iterations", "0"),
            ("fuzz", "--iterations", "4294967297"),
            ("fuzz", "--iterations", "12x"),
            ("fuzz", "--length", "-4"),
            ("fuzz", "--length", "0"),
            ("fuzz", "--length", ""),
            ("fuzz", "--length", "1000001"),
            ("fuzz", "--seed", "-1"),
            ("fuzz", "--seed", "18446744073709551616"),
            ("fuzz", "--seed", "abc"),
            ("fuzz", "--heartbeat-interval", "-1"),
            ("fuzz", "--heartbeat-interval", "nan"),
            ("fuzz", "--heartbeat-interval", "inf"),
            ("fuzz", "--heartbeat-interval", "1s"),
            ("explore", "--nodes", "4294967298"),
            ("explore", "--nodes", "-2"),
            ("explore", "--nodes", "5"),
            ("explore", "--nodes", "1"),
            ("explore", "--blocks", "3"),
            ("explore", "--blocks", "4294967297"),
            ("explore", "--depth", "0"),
            ("explore", "--depth", "9"),
            ("explore", "--depth", "+3"),
        ]
        for mode, flag, value in cases:
            proc = run(mode, flag, value)
            self.assertEqual(proc.returncode, 2, (mode, flag, value))
            self.assertIn("bad " + flag, proc.stderr, (mode, flag, value))
            self.assertEqual(proc.stdout, "", (mode, flag, value))

    def test_values_at_the_range_edges_run(self):
        proc = run("fuzz", "--iterations", "1", "--length", "1", "--seed",
                   "18446744073709551615", "--heartbeat-interval", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("fuzz: 1 traces, 1 accesses, 0 failing", proc.stdout)
        proc = run("explore", "--nodes", "4", "--blocks", "1", "--depth",
                   "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("explore: ", proc.stdout)
        self.assertIn(" 0 failing", proc.stdout)


if __name__ == "__main__":
    unittest.main()
