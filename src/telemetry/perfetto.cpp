#include "telemetry/perfetto.hpp"

#include <bitset>

#include "sim/types.hpp"
#include "telemetry/json.hpp"
#include "telemetry/json_writer.hpp"

namespace lssim {
namespace {

// A coherence event's block address as "0x%06llx", formatted by hand
// because it is written once per event.
std::string_view block_hex(Addr block, char (&hex)[18]) {
  char* const end = hex + sizeof(hex);
  char* p = end;
  do {
    *--p = "0123456789abcdef"[block & 0xf];
    block >>= 4;
  } while (block != 0);
  while (end - p < 6) *--p = '0';
  *--p = 'x';
  *--p = '0';
  return std::string_view(p, static_cast<std::size_t>(end - p));
}

void write_metadata(JsonWriter& w, const char* what, std::uint64_t pid,
                    int tid, std::string_view name) {
  w.begin_object();
  w.member("name", what);
  w.member("ph", "M");
  w.member("pid", pid);
  if (tid >= 0) w.member("tid", tid);
  w.key("args");
  w.begin_object();
  w.member("name", name);
  w.end_object();
  w.end_object();
}

// The layout of a coherence event; `span` adds "dur", an instant is
// thread-scoped ("s": "t"). Holes: name, ts, [dur,] pid, tid, block.
JsonWriter::Shape event_shape(const JsonWriter& w, bool span) {
  return w.shape([span](JsonWriter& e) {
    constexpr JsonWriter::Hole kHole = JsonWriter::kHole;
    e.begin_object();
    e.member("name", kHole);
    e.member("cat", "coherence");
    e.member("ph", span ? "X" : "i");
    if (!span) e.member("s", "t");
    e.member("ts", kHole);
    if (span) e.member("dur", kHole);
    e.member("pid", kHole);
    e.member("tid", kHole);
    e.key("args");
    e.begin_object();
    e.member("block", kHole);
    e.end_object();
    e.end_object();
  });
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceProcess>& processes) {
  // otherData precedes traceEvents, so the drops are summed up front.
  std::uint64_t dropped_total = 0;
  for (const TraceProcess& proc : processes) {
    if (proc.trace != nullptr) dropped_total += proc.trace->dropped();
  }

  JsonWriter w(os, 1);
  w.begin_object();
  w.member("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.member("generator", "lssim");
  w.member("time_unit", "1 cycle = 1us");
  w.member("dropped_events", dropped_total);
  w.end_object();
  w.key("traceEvents");
  w.begin_array();
  const JsonWriter::Shape span_shape = event_shape(w, true);
  const JsonWriter::Shape instant_shape = event_shape(w, false);
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const TraceProcess& proc = processes[p];
    const std::uint64_t pid = p;
    write_metadata(w, "process_name", pid, -1, proc.name);

    std::bitset<kMaxNodes> nodes_seen;
    char hex[18];
    const auto instant = [&](NodeId node, ProtoEventKind kind, Addr block,
                             Cycles time) {
      w.record(instant_shape, std::string_view(to_string(kind)), time, pid,
               std::uint64_t{node}, block_hex(block, hex));
      nodes_seen.set(node);
    };
    if (proc.trace != nullptr) {
      for (const TraceSpan& s : proc.trace->spans()) {
        w.record(span_shape, std::string_view(to_string(s.kind)), s.begin,
                 s.end - s.begin, pid, std::uint64_t{s.node},
                 block_hex(s.block, hex));
        nodes_seen.set(s.node);
      }
      for (const TraceInstant& i : proc.trace->instants()) {
        instant(i.node, i.kind, i.block, i.time);
      }
    }
    if (proc.log != nullptr) {
      proc.log->for_each([&instant](const CoherenceEvent& e) {
        instant(e.node, e.kind, e.block, e.time);
      });
    }

    for (std::size_t node = 0; node < nodes_seen.size(); ++node) {
      if (!nodes_seen[node]) continue;
      write_metadata(w, "thread_name", pid, static_cast<int>(node),
                     "node " + std::to_string(node));
    }
  }
  w.end_array();
  w.end_object();
  w.raw("\n");
}

void write_chrome_trace(std::ostream& os, const std::string& name,
                        const CoherenceTrace& trace) {
  write_chrome_trace(os, {TraceProcess{name, &trace, nullptr}});
}

bool parse_chrome_trace(std::string_view text,
                        std::vector<ChromeTraceEvent>* out,
                        std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  std::string parse_error;
  const Json doc = Json::parse(text, &parse_error);
  if (!parse_error.empty()) {
    if (error != nullptr) *error = parse_error;
    return false;
  }
  if (!doc.is_object()) return fail("trace document must be an object");
  const Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("trace document needs a 'traceEvents' array");
  }
  out->clear();
  for (const Json& ev : events->as_array()) {
    if (!ev.is_object()) return fail("trace event must be an object");
    ChromeTraceEvent parsed;
    const Json* name = ev.find("name");
    const Json* ph = ev.find("ph");
    if (name == nullptr || !name->is_string() || ph == nullptr ||
        !ph->is_string()) {
      return fail("trace event needs string 'name' and 'ph'");
    }
    parsed.name = name->as_string();
    parsed.ph = ph->as_string();
    if (const Json* cat = ev.find("cat"); cat != nullptr && cat->is_string()) {
      parsed.cat = cat->as_string();
    }
    if (const Json* ts = ev.find("ts"); ts != nullptr && ts->is_number()) {
      parsed.ts = ts->as_uint();
    }
    if (const Json* dur = ev.find("dur"); dur != nullptr && dur->is_number()) {
      parsed.dur = dur->as_uint();
    }
    if (const Json* pid = ev.find("pid"); pid != nullptr && pid->is_number()) {
      parsed.pid = static_cast<int>(pid->as_uint());
    }
    if (const Json* tid = ev.find("tid"); tid != nullptr && tid->is_number()) {
      parsed.tid = static_cast<int>(tid->as_uint());
    }
    if (const Json* args = ev.find("args"); args != nullptr) {
      if (const Json* block = args->find("block");
          block != nullptr && block->is_string()) {
        parsed.arg_block = block->as_string();
      }
    }
    out->push_back(std::move(parsed));
  }
  return true;
}

}  // namespace lssim
