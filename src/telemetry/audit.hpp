// Tag-decision audit trail: every tag, de-tag and hysteresis-counter
// transition the engine applies, each stamped with the reason code of the
// policy rule (or engine hook) that caused it.
//
// It is the Telemetry sink's last-N consumer of the audited event kinds
// (kEventKinds, telemetry/coherence_event.hpp), kept in the same ring as
// the event log. The trail answers "why is this block (not) tagged?",
// which the event log's state-transition view cannot: it records the
// hysteresis progress and the rule that fired. `lssim_run --audit-out`
// dumps it as JSONL; the reason taxonomy (TagReason,
// core/coherence_policy.hpp) is cross-checkable against the independent
// LS model in src/check/invariants.cpp because both observe the same
// engine hook sites.
#pragma once

#include <ostream>
#include <string_view>

#include "telemetry/coherence_event.hpp"

namespace lssim {

/// The audited events (tag, detag, tag-progress, detag-progress).
using TagAuditLog = EventLog;

/// Writes the retained records as JSONL (one object per line, oldest
/// first), each carrying `protocol`, followed by one summary line with
/// the recorded/retained totals — so truncation by the ring is always
/// machine-detectable, never silent. Schema: docs/OBSERVABILITY.md.
void write_audit_jsonl(std::ostream& os, const TagAuditLog& log,
                       std::string_view protocol);

}  // namespace lssim
