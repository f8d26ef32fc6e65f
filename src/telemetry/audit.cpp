#include "telemetry/audit.hpp"

#include "telemetry/json_writer.hpp"

namespace lssim {

void write_audit_jsonl(std::ostream& os, const TagAuditLog& log,
                       std::string_view protocol) {
  JsonWriter w(os);
  log.for_each([&w, protocol](const CoherenceEvent& rec) {
    w.begin_object();
    w.member("protocol", protocol);
    w.member("time", rec.time);
    w.member("block", rec.block);
    w.member("node", static_cast<int>(rec.node));
    w.member("event", to_string(rec.kind));
    w.member("reason", to_string(rec.reason));
    w.member("tag_progress", static_cast<int>(rec.tag_progress));
    w.member("detag_progress", static_cast<int>(rec.detag_progress));
    w.member("tagged", rec.tagged);
    w.end_object();
    w.raw("\n");
  });
  w.begin_object();
  w.member("protocol", protocol);
  w.member("event", "summary");
  w.member("recorded", log.total());
  w.member("retained", static_cast<std::uint64_t>(log.size()));
  w.end_object();
  w.raw("\n");
}

}  // namespace lssim
