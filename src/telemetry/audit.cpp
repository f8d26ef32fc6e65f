#include "telemetry/audit.hpp"

#include "telemetry/json_writer.hpp"

namespace lssim {

void write_audit_jsonl(std::ostream& os, const TagAuditLog& log,
                       std::string_view protocol) {
  JsonWriter w(os);
  // The protocol is the same on every record: it is fixed text.
  const JsonWriter::Shape shape = w.shape([protocol](JsonWriter& r) {
    constexpr JsonWriter::Hole kHole = JsonWriter::kHole;
    r.begin_object();
    r.member("protocol", protocol);
    for (const char* name : {"time", "block", "node", "event", "reason",
                             "tag_progress", "detag_progress", "tagged"}) {
      r.member(name, kHole);
    }
    r.end_object();
    r.raw("\n");
  });
  log.for_each([&w, &shape](const CoherenceEvent& rec) {
    w.record(shape, rec.time, rec.block, std::uint64_t{rec.node},
             std::string_view(to_string(rec.kind)),
             std::string_view(to_string(rec.reason)),
             std::uint64_t{rec.tag_progress},
             std::uint64_t{rec.detag_progress}, rec.tagged);
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
