#!/usr/bin/env python3
"""lssim_run rejects a malformed --set value as a usage error.

Drives the real binary (path via $LSSIM_RUN): a value that does not parse
as its parameter's type, or lies outside its range, exits 2 with a
message naming the key; an unknown key stays a runtime error (exit 1).
"""

import os
import subprocess
import unittest

LSSIM_RUN = os.environ.get("LSSIM_RUN")


def run(*args):
    return subprocess.run([LSSIM_RUN, "--workload", "pingpong", *args],
                          capture_output=True, text=True)


@unittest.skipUnless(LSSIM_RUN and os.path.exists(LSSIM_RUN),
                     "LSSIM_RUN not set (needs the built driver binary)")
class SetParamCliTest(unittest.TestCase):
    def test_non_numeric_value_exits_2_naming_the_key(self):
        proc = run("--set", "rounds=abc")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("rounds", proc.stderr)
        self.assertIn("'abc'", proc.stderr)

    def test_negative_value_exits_2_naming_the_key(self):
        proc = run("--set", "rounds=-5")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("rounds", proc.stderr)
        self.assertIn("'-5'", proc.stderr)

    def test_malformed_value_exits_2_in_replay_mode_too(self):
        proc = run("--set", "rounds=abc", "--replay-compare")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("rounds", proc.stderr)

    def test_oltp_hot_spans_past_the_account_table_exit_2(self):
        proc = subprocess.run([LSSIM_RUN, "--workload", "oltp",
                               "--procs", "32"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("hot_accounts", proc.stderr)
        self.assertIn("accounts (1048576)", proc.stderr)

    def test_unknown_key_stays_a_runtime_error(self):
        proc = run("--set", "bogus=1")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("bogus", proc.stderr)


if __name__ == "__main__":
    unittest.main()
