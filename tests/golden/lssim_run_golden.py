#!/usr/bin/env python3
"""Golden sha256 digests of lssim_run's output and artifacts.

Runs fixed lssim_run invocations and digests what each leaves
behind: stdout, the Perfetto trace (one digest per protocol process plus
one for the document header), the audit trail, the metrics, the latency
report and the manifest with `wall_seconds` stripped. The digests live in
tests/golden/lssim_run.sha256, one "<sha256>  <run>/<artifact>" line each.

Check (exit 1 and name every differing artifact on a mismatch):

    python3 tests/golden/lssim_run_golden.py --lssim-run build/tools/lssim_run

Re-record after a deliberate output change (name each changed line and
the reason in CHANGES.md):

    python3 tests/golden/lssim_run_golden.py --lssim-run build/tools/lssim_run --record
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "lssim_run.sha256")

RUNS = [
    ("pingpong-compare", ["--workload", "pingpong", "--compare"]),
    # A small L2 makes AD's replacement de-tags frequent.
    ("oltp-l2-32k-compare", ["--workload", "oltp", "--compare", "--l2", "32k",
                             "--set", "txns_per_proc=300"]),
    ("stencil-32n-ls", ["--workload", "stencil", "--procs", "32",
                        "--protocol", "LS"]),
]

# Every protocol x organisation x transport on 8 nodes. Two pointers,
# two-node regions and 256 entries make Dir_2B overflow, imprecise coarse
# sharer sets and sparse evictions reach every home state. Small trace
# and audit rings keep the 80-run artifacts a few MB.
MATRIX = ["--procs", "8",
          "--protocols", "Baseline,AD,LS,ILS,LS+AD,MESI,MOESI,Dragon,"
                         "LS+MESI,LS+Dragon",
          "--directories", "full-map,limited-ptr,coarse,sparse",
          "--interconnects", "network,bus",
          "--dir-pointers", "2", "--dir-region", "2", "--dir-entries", "256",
          "--trace-capacity", "1000", "--audit-capacity", "1000"]
RUNS += [
    ("oltp-matrix", ["--workload", "oltp", "--set", "txns_per_proc=300",
                     "--l2", "32k", *MATRIX]),
    ("mp3d-matrix", ["--workload", "mp3d", "--set", "particles=500",
                     "--set", "steps=2", *MATRIX]),
    ("pingpong-matrix", ["--workload", "pingpong", *MATRIX]),
]

ARTIFACTS = {
    "perfetto": ("--perfetto-out", "trace.json"),
    "audit": ("--audit-out", "audit.jsonl"),
    "metrics": ("--metrics-out", "metrics.json"),
    "latency": ("--latency-out", "latency.json"),
    "manifest": ("--manifest-out", "manifest.json"),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def canonical(value):
    return json.dumps(value, separators=(",", ":")).encode()


def perfetto_digests(path):
    """One digest per process (named by its process_name), plus the
    document without its events, so a change names the protocol."""
    with open(path, "rb") as f:
        doc = json.load(f)
    by_pid = {}
    names = {}
    for ev in doc.get("traceEvents", []):
        by_pid.setdefault(ev.get("pid"), []).append(ev)
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            names[ev.get("pid")] = ev["args"]["name"]
    header = {k: v for k, v in doc.items() if k != "traceEvents"}
    out = {"perfetto": sha256(canonical(header))}
    for pid, events in by_pid.items():
        out["perfetto." + names.get(pid, "pid%s" % pid)] = \
            sha256(canonical(events))
    return out


def manifest_digest(path):
    with open(path, "rb") as f:
        doc = json.load(f)
    doc.pop("wall_seconds", None)
    return sha256(canonical(doc))


def digest_run(lssim_run, name, args, workdir):
    cmd = [lssim_run, *args, "--jobs", "2"]
    for flag, filename in ARTIFACTS.values():
        cmd += [flag, os.path.join(workdir, name + "." + filename)]
    done = subprocess.run(cmd, capture_output=True)
    if done.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (
            " ".join(cmd), done.returncode, done.stderr.decode()))
    out = {"stdout": sha256(done.stdout)}
    for artifact, (_, filename) in ARTIFACTS.items():
        path = os.path.join(workdir, name + "." + filename)
        if artifact == "perfetto":
            out.update(perfetto_digests(path))
        elif artifact == "manifest":
            out[artifact] = manifest_digest(path)
        else:
            with open(path, "rb") as f:
                out[artifact] = sha256(f.read())
    return {name + "/" + key: value for key, value in out.items()}


def load_digests():
    digests = {}
    with open(DIGESTS, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                value, key = line.split(None, 1)
                digests[key] = value
    return digests


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lssim-run", required=True,
                        help="path to the lssim_run binary")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the digest file instead of checking")
    args = parser.parse_args()

    actual = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, run_args in RUNS:
            actual.update(digest_run(args.lssim_run, name, run_args, workdir))

    if args.record:
        with open(DIGESTS, "w", encoding="utf-8") as f:
            f.write("# sha256 of lssim_run output; written by "
                    "tests/golden/lssim_run_golden.py --record\n")
            for key, value in actual.items():
                f.write("%s  %s\n" % (value, key))
        print("recorded %d digests to %s" % (len(actual), DIGESTS))
        return 0

    expected = load_digests()
    problems = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            problems.append("%s: no longer produced" % key)
        elif key not in expected:
            problems.append("%s: not in the golden file" % key)
        elif expected[key] != actual[key]:
            problems.append("%s: digest %s, golden %s"
                            % (key, actual[key][:16], expected[key][:16]))
    for problem in problems:
        print("golden mismatch: " + problem, file=sys.stderr)
    if problems:
        print("re-record with --record if the change is deliberate",
              file=sys.stderr)
        return 1
    print("lssim_run goldens OK: %d digests" % len(actual))
    return 0


if __name__ == "__main__":
    sys.exit(main())
