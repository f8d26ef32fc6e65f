#!/usr/bin/env python3
"""lssim_run's machine flags and the manifest's machine object.

Drives the real binary (path via $LSSIM_RUN). A size or count that its
machine field cannot hold exits 2 naming the flag, where it once
narrowed silently: `--l1 5g --l2 6g` ran a 1 GiB L1 and a 2 GiB L2, and
`--dir-entries 4294967297` a 1-entry directory. The manifest's machine
object names the protocol that ran and carries every machine field.
"""

import json
import os
import subprocess
import tempfile
import unittest

LSSIM_RUN = os.environ.get("LSSIM_RUN")


def run(*args):
    return subprocess.run([LSSIM_RUN, "--workload", "pingpong", *args],
                          capture_output=True, text=True)


@unittest.skipUnless(LSSIM_RUN and os.path.exists(LSSIM_RUN),
                     "LSSIM_RUN not set (needs the built driver binary)")
class MachineFlagCliTest(unittest.TestCase):
    def test_values_the_field_cannot_hold_exit_2_naming_the_flag(self):
        cases = [
            (["--l1", "5g", "--l2", "6g"], "--l1"),
            (["--l2", "6g"], "--l2"),
            (["--directory", "sparse", "--dir-entries", "4294967297"],
             "--dir-entries"),
            (["--block", "512"], "--block"),
            (["--assoc", "4294967296"], "--assoc"),
        ]
        for args, flag in cases:
            proc = run(*args)
            self.assertEqual(proc.returncode, 2, (args, proc.stderr))
            self.assertIn(flag, proc.stderr)
            self.assertEqual(proc.stdout, "")

    def test_manifest_names_the_protocol_that_ran(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.json")
            proc = run("--protocol", "LS", "--manifest-out", path)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(path) as f:
                machine = json.load(f)["machine"]
        self.assertEqual(machine["protocol"], "LS")
        self.assertEqual(machine["latency"]["hop"], 40)
        self.assertEqual(machine["tag_hysteresis"], 1)
        self.assertIs(machine["keep_tag_on_lone_write"], False)


if __name__ == "__main__":
    unittest.main()
