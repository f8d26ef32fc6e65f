#include "sweep/results_store.hpp"

#include <filesystem>

#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"
#include "trace/config_hash.hpp"

namespace lssim {
namespace {

Json header_to_json(const ResultsStore::Provenance& provenance) {
  Json::Object o;
  o.emplace_back("kind", Json("header"));
  o.emplace_back("schema_version", Json(ResultsStore::kSchemaVersion));
  o.emplace_back("hash_version", Json(kSweepConfigHashVersion));
  o.emplace_back("generator", Json(provenance.generator));
  if (!provenance.git_commit.empty()) {
    o.emplace_back("git_commit", Json(provenance.git_commit));
  }
  o.emplace_back("host_hardware_concurrency",
                 Json(provenance.host_hardware_concurrency));
  o.emplace_back("jobs", Json(provenance.jobs));
  return Json(std::move(o));
}

/// Parses one line. Returns false on malformed JSON; a well-formed line
/// of unknown kind sets `*skip` (preserved on disk, ignored in memory).
bool parse_line(const std::string& line, std::uint32_t* schema_version,
                SweepRecord* record, bool* is_header, bool* skip,
                std::string* error) {
  std::string parse_error;
  const Json doc = Json::parse(line, &parse_error);
  if (!parse_error.empty()) {
    if (error != nullptr) *error = parse_error;
    return false;
  }
  if (!doc.is_object()) {
    if (error != nullptr) *error = "store line is not a JSON object";
    return false;
  }
  const Json* kind = doc.find("kind");
  const std::string kind_name =
      (kind != nullptr && kind->is_string()) ? kind->as_string() : "";
  if (kind_name == "header") {
    if (doc.find("schema_version") == nullptr) {
      if (error != nullptr) *error = "store header has no schema_version";
      return false;
    }
    if (!doc.read_uint("schema_version", schema_version, error)) {
      return false;
    }
    if (*schema_version > ResultsStore::kSchemaVersion) {
      if (error != nullptr) {
        *error = "store schema_version " + std::to_string(*schema_version) +
                 " is newer than this build (knows " +
                 std::to_string(ResultsStore::kSchemaVersion) + ")";
      }
      return false;
    }
    *is_header = true;
    return true;
  }
  if (kind_name != "result") {
    *skip = true;  // Forward compatibility: future record kinds.
    return true;
  }
  return sweep_record_from_json(doc, record, error);
}

/// What scan_store() read from a store file.
struct StoreScan {
  std::uint64_t complete_bytes = 0;  ///< Offset after the last full line.
  bool saw_header = false;
  bool saw_line = false;  ///< Any non-empty line, header included.
};

/// Reads every complete line of a store, handing each record line to
/// `keep`. A last line without its newline is an interrupted append: it
/// is not read, and `complete_bytes` stops before it. Returns false +
/// `*error` on a malformed complete line — corruption mid-store, or not
/// a store at all.
template <typename Keep>
bool scan_store(std::istream& in, const std::string& path, Keep&& keep,
                StoreScan* scan, std::string* error) {
  std::string line;
  // getline at EOF: the line had no final '\n'.
  while (std::getline(in, line) && !in.eof()) {
    scan->complete_bytes += line.size() + 1;
    if (line.empty()) continue;
    std::uint32_t schema_version = 0;
    SweepRecord record;
    bool is_header = false;
    bool skip = false;
    std::string line_error;
    if (!parse_line(line, &schema_version, &record, &is_header, &skip,
                    &line_error)) {
      if (error != nullptr) {
        *error = path + ": malformed store line: " + line_error;
      }
      return false;
    }
    scan->saw_line = true;
    if (is_header) {
      scan->saw_header = true;
    } else if (!skip) {
      keep(std::move(record));
    }
  }
  return true;
}

}  // namespace

Json sweep_record_to_json(const SweepRecord& record) {
  Json::Object o;
  o.emplace_back("kind", Json("result"));
  o.emplace_back("hash", Json(format_config_hash(record.config_hash)));
  o.emplace_back("label", Json(record.label));
  o.emplace_back("workload", Json(record.workload));
  if (!record.params.empty()) {
    Json::Object params;
    for (const auto& [k, v] : record.params) params.emplace_back(k, Json(v));
    o.emplace_back("params", Json(std::move(params)));
  }
  o.emplace_back("seed", Json(record.seed));
  o.emplace_back("nodes", Json(record.nodes));
  o.emplace_back("l1_bytes", Json(record.l1_bytes));
  o.emplace_back("l2_bytes", Json(record.l2_bytes));
  o.emplace_back("block_bytes", Json(record.block_bytes));
  o.emplace_back("wall_seconds", Json(record.wall_seconds));
  o.emplace_back("result", run_result_to_json(record.result));
  return Json(std::move(o));
}

bool sweep_record_from_json(const Json& json, SweepRecord* out,
                            std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!json.is_object()) return fail("sweep record must be an object");
  *out = SweepRecord{};
  const Json* hash = json.find("hash");
  if (hash == nullptr || !hash->is_string() ||
      !parse_config_hash(hash->as_string(), &out->config_hash)) {
    return fail("sweep record needs a hex 'hash'");
  }
  if (const Json* label = json.find("label");
      label != nullptr && label->is_string()) {
    out->label = label->as_string();
  }
  if (const Json* workload = json.find("workload");
      workload != nullptr && workload->is_string()) {
    out->workload = workload->as_string();
  }
  if (const Json* params = json.find("params"); params != nullptr) {
    if (!params->is_object()) return fail("'params' must be an object");
    for (const auto& [k, v] : params->as_object()) {
      if (!v.is_string()) return fail("'params' values must be strings");
      out->params.emplace_back(k, v.as_string());
    }
  }
  if (!json.read_uint("seed", &out->seed, error) ||
      !json.read_uint("nodes", &out->nodes, error) ||
      !json.read_uint("l1_bytes", &out->l1_bytes, error) ||
      !json.read_uint("l2_bytes", &out->l2_bytes, error) ||
      !json.read_uint("block_bytes", &out->block_bytes, error)) {
    return false;
  }
  if (const Json* wall = json.find("wall_seconds");
      wall != nullptr && wall->is_number()) {
    out->wall_seconds = wall->as_double();
  }
  const Json* result = json.find("result");
  if (result == nullptr) return fail("sweep record needs a 'result'");
  return run_result_from_json(*result, &out->result, error);
}

bool ResultsStore::open(const std::string& path, const Provenance& provenance,
                        std::string* error) {
  path_ = path;
  completed_.clear();
  records_.clear();
  duplicate_hashes_ = 0;

  // Parse whatever is already there; an interrupted append (a partial
  // trailing line) is truncated away before we continue.
  StoreScan scan;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      const auto keep = [this](SweepRecord&& record) {
        if (!completed_.insert(record.config_hash).second) {
          duplicate_hashes_ += 1;
        }
        records_.push_back(std::move(record));
      };
      if (!scan_store(in, path, keep, &scan, error)) return false;
      if (!scan.saw_header && scan.complete_bytes > 0) {
        if (error != nullptr) {
          *error = path + ": not a sweep results store (no header line)";
        }
        return false;
      }
    }
  }

  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec && size > scan.complete_bytes) {
    std::filesystem::resize_file(path, scan.complete_bytes, ec);
    if (ec) {
      if (error != nullptr) {
        *error = path + ": cannot truncate partial line: " + ec.message();
      }
      return false;
    }
  }

  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) {
    if (error != nullptr) *error = path + ": cannot open for append";
    return false;
  }
  if (scan.complete_bytes == 0) {
    header_to_json(provenance).write(out_, 0);
    out_ << '\n';
    out_.flush();
    if (!out_) {
      if (error != nullptr) *error = path + ": failed writing header";
      return false;
    }
  }
  return true;
}

bool ResultsStore::load(const std::string& path,
                        std::vector<SweepRecord>* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot open";
    return false;
  }
  out->clear();
  StoreScan scan;
  const auto keep = [out](SweepRecord&& record) {
    out->push_back(std::move(record));
  };
  if (!scan_store(in, path, keep, &scan, error)) return false;
  if (!scan.saw_line) {
    if (error != nullptr) *error = path + ": empty store";
    return false;
  }
  return true;
}

bool ResultsStore::append(const SweepRecord& record, std::string* error) {
  if (!out_.is_open()) {
    if (error != nullptr) *error = "store is not open";
    return false;
  }
  sweep_record_to_json(record).write(out_, 0);
  out_ << '\n';
  out_.flush();
  if (!out_) {
    if (error != nullptr) *error = path_ + ": write failed";
    out_.close();
    return false;
  }
  if (!completed_.insert(record.config_hash).second) {
    duplicate_hashes_ += 1;
  }
  records_.push_back(record);
  return true;
}

}  // namespace lssim
