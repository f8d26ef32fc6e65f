#!/usr/bin/env python3
"""Schema validator for lssim's observability artifacts.

Validates lssim's observability outputs (docs/OBSERVABILITY.md):

  * --latency-out   ownership-latency report (JSON)
  * --audit-out     tag-decision audit trail (JSONL)
  * --heartbeat-out progress heartbeats (JSONL)
  * --perfetto-out  Chrome trace-event timeline (JSON)

Used by the CI observability smoke step and the ctest wrapper
(tests/tools/observability_smoke_test.py); exits non-zero with a
description on the first violation, so a schema drift fails the build
instead of silently breaking downstream consumers.

Usage:
  check_observability.py --latency FILE [--protocols A,B,...]
  check_observability.py --audit FILE [--protocols A,B,...]
  check_observability.py --heartbeat FILE
  check_observability.py --perfetto FILE [--protocols A,B,...]
(any combination may be given in one invocation)

Given both --perfetto and --audit, and when neither artifact reports
dropped or overwritten records, every audit tag/detag record must also
appear as the Perfetto instant of the same name, in the same order, on
the same (time, node, block): protocol -> process name, time -> ts,
node -> tid, block -> args.block. Both are views of one event stream.
"""

import argparse
import json
import sys

LATENCY_OPS = ("read-miss", "write-miss", "upgrade")

AUDIT_EVENTS = {"tag", "detag", "tag-progress", "detag-progress"}
# Audit events that the Perfetto trace also records, as instants.
TAG_EVENTS = ("tag", "detag")
AUDIT_REASONS = {
    "ls-sequence",
    "migratory-detect",
    "migratory-fallback",
    "lone-write",
    "foreign-access",
    "replacement",
    "upgrade-invalidations",
}


class SchemaError(Exception):
    pass


def fail(message):
    raise SchemaError(message)


def check_latency(path, protocols):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail("latency report: top level must be an object")
    if doc.get("schema_version") != 1:
        fail("latency report: schema_version must be 1, got %r"
             % doc.get("schema_version"))
    if doc.get("generator") != "lssim":
        fail("latency report: generator must be 'lssim'")
    for key in ("workload", "seed", "runs"):
        if key not in doc:
            fail("latency report: missing %r" % key)
    runs = doc["runs"]
    if not isinstance(runs, list) or not runs:
        fail("latency report: 'runs' must be a non-empty array")
    seen = []
    for run in runs:
        if not isinstance(run, dict) or "protocol" not in run:
            fail("latency report: each run needs a 'protocol'")
        seen.append(run["protocol"])
        latency = run.get("ownership_latency")
        if latency is None:
            fail("latency report: run %r has no ownership_latency "
                 "(metrics were off?)" % run["protocol"])
        if not isinstance(latency, dict):
            fail("latency report: ownership_latency must be an object")
        for op, digest in latency.items():
            if op not in LATENCY_OPS:
                fail("latency report: unknown op %r" % op)
            for key in ("samples", "sum", "mean", "p50", "p95", "p99",
                        "buckets"):
                if key not in digest:
                    fail("latency report: %s/%s missing %r"
                         % (run["protocol"], op, key))
            if digest["samples"] > 0:
                if not (digest["p50"] <= digest["p95"] <= digest["p99"]):
                    fail("latency report: %s/%s percentiles not "
                         "monotonic: p50=%r p95=%r p99=%r"
                         % (run["protocol"], op, digest["p50"],
                            digest["p95"], digest["p99"]))
                if sum(digest["buckets"]) != digest["samples"]:
                    fail("latency report: %s/%s bucket counts do not sum "
                         "to samples" % (run["protocol"], op))
    for wanted in protocols:
        if wanted not in seen:
            fail("latency report: protocol %r missing (have: %s)"
                 % (wanted, ", ".join(seen)))
    return len(runs)


def check_audit(path, protocols, tag_events):
    """Validates the audit trail; appends each protocol's tag/detag
    records to `tag_events` ({protocol: [(event, time, node, block)]})."""
    records = 0
    summaries = {}
    per_protocol_records = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as ex:
                fail("audit line %d: not JSON (%s)" % (lineno, ex))
            if not isinstance(rec, dict):
                fail("audit line %d: must be an object" % lineno)
            proto = rec.get("protocol")
            if not isinstance(proto, str):
                fail("audit line %d: missing 'protocol'" % lineno)
            if rec.get("event") == "summary":
                if proto in summaries:
                    fail("audit line %d: duplicate summary for %r"
                         % (lineno, proto))
                for key in ("recorded", "retained"):
                    if not isinstance(rec.get(key), int):
                        fail("audit line %d: summary needs integer %r"
                             % (lineno, key))
                if rec["retained"] > rec["recorded"]:
                    fail("audit line %d: retained > recorded" % lineno)
                summaries[proto] = rec
                continue
            records += 1
            per_protocol_records[proto] = \
                per_protocol_records.get(proto, 0) + 1
            if rec.get("event") not in AUDIT_EVENTS:
                fail("audit line %d: unknown event %r"
                     % (lineno, rec.get("event")))
            if rec.get("reason") not in AUDIT_REASONS:
                fail("audit line %d: unknown reason %r"
                     % (lineno, rec.get("reason")))
            for key in ("time", "block", "node", "tag_progress",
                        "detag_progress"):
                if not isinstance(rec.get(key), int):
                    fail("audit line %d: missing integer %r" % (lineno, key))
            if not isinstance(rec.get("tagged"), bool):
                fail("audit line %d: missing boolean 'tagged'" % lineno)
            if proto in summaries:
                fail("audit line %d: record after summary for %r"
                     % (lineno, proto))
            if rec["event"] in TAG_EVENTS:
                tag_events.setdefault(proto, []).append(
                    (rec["event"], rec["time"], rec["node"], rec["block"]))
    if not summaries:
        fail("audit trail: no summary lines")
    for proto, summary in summaries.items():
        have = per_protocol_records.get(proto, 0)
        if have != summary["retained"]:
            fail("audit trail: %r has %d records but summary says "
                 "retained=%d" % (proto, have, summary["retained"]))
    for wanted in protocols:
        if wanted not in summaries:
            fail("audit trail: protocol %r missing (have: %s)"
                 % (wanted, ", ".join(sorted(summaries))))
    overwritten = any(s["retained"] != s["recorded"]
                      for s in summaries.values())
    return records, overwritten


def check_heartbeat(path):
    lines = 0
    finals = 0
    last_type = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as ex:
                fail("heartbeat line %d: not JSON (%s)" % (lineno, ex))
            if rec.get("type") not in ("heartbeat", "final"):
                fail("heartbeat line %d: unknown type %r"
                     % (lineno, rec.get("type")))
            for key in ("unit", "done", "accesses", "elapsed_seconds",
                        "accesses_per_sec"):
                if key not in rec:
                    fail("heartbeat line %d: missing %r" % (lineno, key))
            if rec["elapsed_seconds"] < 0:
                fail("heartbeat line %d: negative elapsed_seconds" % lineno)
            lines += 1
            last_type = rec["type"]
            if rec["type"] == "final":
                finals += 1
    if lines == 0:
        fail("heartbeat: no lines")
    if finals != 1:
        fail("heartbeat: expected exactly one final line, got %d" % finals)
    if last_type != "final":
        fail("heartbeat: final line must be last")
    return lines


PERFETTO_PHASES = {"X", "i", "M"}


def is_int(value):
    # json.load maps true/false to bool, which is an int subclass.
    return isinstance(value, int) and not isinstance(value, bool)


def check_perfetto(path, protocols, tag_events):
    """Validates the trace; appends each process's tag/detag instants to
    `tag_events` ({process name: [(name, ts, tid, block)]})."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail("perfetto trace: top level must be an object")
    if not isinstance(doc.get("displayTimeUnit"), str):
        fail("perfetto trace: missing string 'displayTimeUnit'")
    other = doc.get("otherData")
    if not isinstance(other, dict) or not is_int(other.get("dropped_events")):
        fail("perfetto trace: otherData needs integer 'dropped_events'")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("perfetto trace: 'traceEvents' must be an array")
    used_tids = set()
    named_tids = set()
    process_names = []
    pid_names = {}
    instants = {}
    for index, ev in enumerate(events):
        where = "perfetto event %d" % index
        if not isinstance(ev, dict):
            fail("%s: must be an object" % where)
        for key in ("name", "ph", "pid"):
            if key not in ev:
                fail("%s: missing %r" % (where, key))
        ph = ev["ph"]
        if ph not in PERFETTO_PHASES:
            fail("%s: unknown ph %r" % (where, ph))
        if not is_int(ev["pid"]):
            fail("%s: pid must be an integer" % where)
        if ph == "M":
            args = ev.get("args")
            if not isinstance(args, dict) or not isinstance(
                    args.get("name"), str):
                fail("%s: metadata needs a string args.name" % where)
            if ev["name"] == "thread_name":
                if not is_int(ev.get("tid")):
                    fail("%s: thread_name needs an integer tid" % where)
                named_tids.add((ev["pid"], ev["tid"]))
            elif ev["name"] == "process_name":
                process_names.append(args["name"])
                pid_names[ev["pid"]] = args["name"]
            continue
        if not is_int(ev.get("ts")):
            fail("%s: %s event needs an integer ts" % (where, ph))
        if not is_int(ev.get("tid")):
            fail("%s: %s event needs an integer tid" % (where, ph))
        used_tids.add((ev["pid"], ev["tid"]))
        if ph == "X":
            if not is_int(ev.get("dur")):
                fail("%s: X event needs an integer dur" % where)
            args = ev.get("args")
            if not isinstance(args, dict) or "block" not in args:
                fail("%s: X event needs args.block" % where)
        elif ev["name"] in TAG_EVENTS:
            block = (ev.get("args") or {}).get("block")
            try:
                block = int(block, 16)
            except (TypeError, ValueError):
                fail("%s: %s instant needs a hex args.block"
                     % (where, ev["name"]))
            instants.setdefault(ev["pid"], []).append(
                (ev["name"], ev["ts"], ev["tid"], block))
    unnamed = sorted(used_tids - named_tids)
    if unnamed:
        fail("perfetto trace: tid %d of pid %d has no thread_name metadata"
             % (unnamed[0][1], unnamed[0][0]))
    for wanted in protocols:
        if wanted not in process_names:
            fail("perfetto trace: protocol %r missing (have: %s)"
                 % (wanted, ", ".join(process_names)))
    for pid, events_of_pid in instants.items():
        tag_events[pid_names.get(pid, "pid %d" % pid)] = events_of_pid
    return len(events), other["dropped_events"] > 0


def cross_check_tags(audit_tags, trace_tags):
    """Each protocol's audit tag/detag records against its Perfetto
    instants: same events, same order."""
    for proto in sorted(set(audit_tags) | set(trace_tags)):
        audit = audit_tags.get(proto, [])
        trace = trace_tags.get(proto, [])
        for i, (a, t) in enumerate(zip(audit, trace)):
            if a != t:
                fail("audit vs perfetto: %s %s #%d differs: audit "
                     "(time %d, node %d, block 0x%x), trace "
                     "(ts %d, tid %d, block 0x%x)"
                     % (proto, a[0], i, a[1], a[2], a[3], t[1], t[2], t[3]))
        if len(audit) != len(trace):
            fail("audit vs perfetto: %s has %d tag/detag audit records "
                 "but %d trace instants" % (proto, len(audit), len(trace)))
    return sum(len(v) for v in audit_tags.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--latency", help="ownership-latency report (JSON)")
    parser.add_argument("--audit", help="tag-decision audit trail (JSONL)")
    parser.add_argument("--heartbeat", help="heartbeat stream (JSONL)")
    parser.add_argument("--perfetto", help="Chrome trace-event timeline "
                                           "(JSON)")
    parser.add_argument("--protocols", default="",
                        help="comma-separated protocol names that must "
                             "appear in --latency/--audit/--perfetto")
    args = parser.parse_args()
    if not (args.latency or args.audit or args.heartbeat or args.perfetto):
        parser.error("give at least one of "
                     "--latency/--audit/--heartbeat/--perfetto")
    protocols = [p for p in args.protocols.split(",") if p]

    try:
        if args.latency:
            n = check_latency(args.latency, protocols)
            print("latency report OK: %d run(s)" % n)
        audit_tags, trace_tags = {}, {}
        audit_complete = trace_complete = False
        if args.audit:
            n, overwritten = check_audit(args.audit, protocols, audit_tags)
            audit_complete = not overwritten
            print("audit trail OK: %d record(s)" % n)
        if args.heartbeat:
            n = check_heartbeat(args.heartbeat)
            print("heartbeat OK: %d line(s)" % n)
        if args.perfetto:
            n, dropped = check_perfetto(args.perfetto, protocols, trace_tags)
            trace_complete = not dropped
            print("perfetto trace OK: %d event(s)" % n)
        if audit_complete and trace_complete:
            n = cross_check_tags(audit_tags, trace_tags)
            print("audit vs perfetto OK: %d tag/detag event(s)" % n)
    except SchemaError as ex:
        print("check_observability: %s" % ex, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
