#!/usr/bin/env python3
"""End-to-end smoke test for the observability artifacts.

Runs the lssim_run driver (path via $LSSIM_RUN) with the latency,
audit, heartbeat and Perfetto outputs enabled on a small five-protocol pingpong sweep,
then validates every artifact with tools/check_observability.py (path
via $CHECK_OBSERVABILITY) — the same validator the CI smoke step uses.
A second, untruncated two-protocol run exercises the audit-versus-trace
cross-check. Also asserts the validator actually rejects corrupted
artifacts, so a validator that rubber-stamps everything cannot pass.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

LSSIM_RUN = os.environ.get("LSSIM_RUN")
CHECK = os.environ.get(
    "CHECK_OBSERVABILITY",
    os.path.join(os.path.dirname(__file__), "..", "..", "tools",
                 "check_observability.py"),
)
PROTOCOLS = "Baseline,AD,LS,ILS,LS+AD"


def run_check(*args):
    return subprocess.run(
        [sys.executable, CHECK, *args], capture_output=True, text=True
    )


@unittest.skipUnless(LSSIM_RUN and os.path.exists(LSSIM_RUN),
                     "LSSIM_RUN not set (needs the built driver binary)")
class ObservabilitySmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.latency = os.path.join(cls.tmp.name, "latency.json")
        cls.audit = os.path.join(cls.tmp.name, "audit.jsonl")
        cls.heartbeat = os.path.join(cls.tmp.name, "heartbeat.jsonl")
        cls.perfetto = os.path.join(cls.tmp.name, "trace.json")
        proc = subprocess.run(
            [
                LSSIM_RUN,
                "--workload", "pingpong",
                "--protocols", "baseline,ad,ls,ils,ls+ad",
                "--latency-out", cls.latency,
                "--audit-out", cls.audit,
                "--heartbeat-out", cls.heartbeat,
                "--heartbeat-interval", "0",
                "--perfetto-out", cls.perfetto,
                # Keeps the trace small and makes dropped_events > 0.
                "--trace-capacity", "2048",
            ],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                "lssim_run failed (%d):\n%s" % (proc.returncode, proc.stderr)
            )
        # A second, untruncated pair: the validator cross-checks the audit
        # trail against the trace only when neither dropped anything.
        cls.full_audit = os.path.join(cls.tmp.name, "full_audit.jsonl")
        cls.full_perfetto = os.path.join(cls.tmp.name, "full_trace.json")
        proc = subprocess.run(
            [
                LSSIM_RUN,
                "--workload", "pingpong",
                "--protocols", "ad,ls",
                "--audit-out", cls.full_audit,
                "--perfetto-out", cls.full_perfetto,
            ],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                "lssim_run failed (%d):\n%s" % (proc.returncode, proc.stderr)
            )

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_all_artifacts_pass_the_validator(self):
        proc = run_check(
            "--latency", self.latency,
            "--audit", self.audit,
            "--heartbeat", self.heartbeat,
            "--perfetto", self.perfetto,
            "--protocols", PROTOCOLS,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("latency report OK", proc.stdout)
        self.assertIn("audit trail OK", proc.stdout)
        self.assertIn("heartbeat OK", proc.stdout)
        self.assertIn("perfetto trace OK", proc.stdout)

    def test_heartbeat_has_one_line_per_run_plus_final(self):
        with open(self.heartbeat) as f:
            lines = [json.loads(l) for l in f if l.strip()]
        # --heartbeat-interval 0: one heartbeat per protocol run, then
        # exactly one final line — a deterministic count.
        self.assertEqual(len(lines), 6)
        self.assertEqual([l["type"] for l in lines[:-1]], ["heartbeat"] * 5)
        self.assertEqual(lines[-1]["type"], "final")
        self.assertEqual(lines[-1]["done"], 5)
        self.assertIn("simulate", lines[-1].get("phases", {}))

    def test_validator_rejects_missing_protocol(self):
        proc = run_check("--latency", self.latency,
                         "--protocols", "Baseline,NoSuchProtocol")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("NoSuchProtocol", proc.stderr)

    def test_validator_rejects_corrupted_latency_report(self):
        with open(self.latency) as f:
            doc = json.load(f)
        doc["runs"][0]["ownership_latency"]["read-miss"].pop("p95")
        bad = os.path.join(self.tmp.name, "bad_latency.json")
        with open(bad, "w") as f:
            json.dump(doc, f)
        proc = run_check("--latency", bad)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("p95", proc.stderr)

    def test_validator_rejects_truncated_audit_trail(self):
        with open(self.audit) as f:
            lines = f.readlines()
        # Drop one record line: the per-protocol count no longer matches
        # the summary's `retained`.
        record_idx = next(
            i for i, l in enumerate(lines)
            if json.loads(l).get("event") != "summary"
        )
        bad = os.path.join(self.tmp.name, "bad_audit.jsonl")
        with open(bad, "w") as f:
            f.writelines(lines[:record_idx] + lines[record_idx + 1:])
        proc = run_check("--audit", bad)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("retained", proc.stderr)

    def test_truncated_trace_skips_the_cross_check(self):
        proc = run_check("--audit", self.audit, "--perfetto", self.perfetto)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("audit vs perfetto", proc.stdout)

    def test_audit_matches_trace_instants(self):
        proc = run_check("--audit", self.full_audit,
                         "--perfetto", self.full_perfetto)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("audit vs perfetto OK", proc.stdout)

    def test_validator_rejects_instant_on_another_block(self):
        with open(self.full_perfetto) as f:
            doc = json.load(f)
        detag = next(e for e in doc["traceEvents"]
                     if e["ph"] == "i" and e["name"] in ("tag", "detag"))
        detag["args"]["block"] = hex(int(detag["args"]["block"], 16) + 64)
        bad = os.path.join(self.tmp.name, "bad_block_trace.json")
        with open(bad, "w") as f:
            json.dump(doc, f)
        proc = run_check("--audit", self.full_audit, "--perfetto", bad)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("audit vs perfetto", proc.stderr)

    def corrupted_perfetto(self, mutate):
        with open(self.perfetto) as f:
            doc = json.load(f)
        mutate(doc)
        bad = os.path.join(self.tmp.name, "bad_trace.json")
        with open(bad, "w") as f:
            json.dump(doc, f)
        return run_check("--perfetto", bad)

    def test_validator_rejects_span_without_duration(self):
        def drop_dur(doc):
            span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
            del span["dur"]
        proc = self.corrupted_perfetto(drop_dur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("dur", proc.stderr)

    def test_validator_rejects_unnamed_thread(self):
        def drop_thread_names(doc):
            doc["traceEvents"] = [e for e in doc["traceEvents"]
                                  if e["name"] != "thread_name"]
        proc = self.corrupted_perfetto(drop_thread_names)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("thread_name", proc.stderr)

    def test_validator_rejects_non_integer_drop_count(self):
        def stringify_drops(doc):
            doc["otherData"]["dropped_events"] = "0"
        proc = self.corrupted_perfetto(stringify_drops)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("dropped_events", proc.stderr)


if __name__ == "__main__":
    unittest.main()
