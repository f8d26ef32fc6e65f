#include "telemetry/manifest.hpp"

#include <utility>

#include "sim/machine_fields.hpp"
#include "telemetry/latency_report.hpp"
#include "workloads/result_fields.hpp"

namespace lssim {
namespace {

/// Splits a field key "group.member" into its two parts; a top-level
/// key has an empty member.
std::pair<std::string_view, std::string_view> split_key(
    std::string_view key) {
  const std::size_t dot = key.find('.');
  if (dot == std::string_view::npos) return {key, {}};
  return {key.substr(0, dot), key.substr(dot + 1)};
}

/// True when a key's member part is an array index ("read_miss_home.2").
bool is_index(std::string_view member) {
  return !member.empty() &&
         member.find_first_not_of("0123456789") == std::string_view::npos;
}

bool fail(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

/// Adds `field`'s value `v` to the object `o` under the row's key path.
/// Rows that share a group are adjacent, so a group is only ever the
/// last member.
template <typename Object>
void put_field(Json::Object& o, const FieldRow<Object>& field,
               std::uint64_t v) {
  Json value = field.name != nullptr ? Json(field.name(v))
               : field.flag          ? Json(v != 0)
                                     : Json(v);
  const auto [group, member] = split_key(field.key);
  if (member.empty()) {
    o.emplace_back(std::string(group), std::move(value));
    return;
  }
  if (o.empty() || o.back().first != group) {
    o.emplace_back(std::string(group), is_index(member)
                                           ? Json(Json::Array{})
                                           : Json(Json::Object{}));
  }
  Json& holder = o.back().second;
  if (holder.is_array()) {
    holder.as_array().push_back(std::move(value));
  } else {
    holder.set(std::string(member), std::move(value));
  }
}

/// Reads `field` from `json` into `*out`. An absent value leaves `*out`
/// untouched (older documents lack newer fields). Errors name `label`.
template <typename Object>
bool read_field(const Json& json, const FieldRow<Object>& field,
                std::string_view label, Object* out, std::string* error) {
  const auto [group, member] = split_key(field.key);
  const Json* v = json.find(group);
  if (v != nullptr && !member.empty()) {
    if (is_index(member)) {
      const std::size_t index = std::stoul(std::string(member));
      if (!v->is_array() || v->as_array().size() <= index) {
        return fail(error, "'" + std::string(group) +
                               "' must be an array of at least " +
                               std::to_string(index + 1) + " numbers");
      }
      v = &v->as_array()[index];
    } else {
      if (!v->is_object()) {
        return fail(error, "'" + std::string(group) + "' must be an object");
      }
      v = v->find(member);
    }
  }
  if (v == nullptr) return true;
  const std::string name = "field '" + std::string(label) + "'";
  std::uint64_t value = v->as_bool() ? 1 : 0;
  if (field.parse != nullptr) {
    if (!v->is_string() || !field.parse(v->as_string(), &value)) {
      return fail(error, "unknown name in " + name);
    }
  } else if (field.flag ? !v->is_bool() : !v->to_uint(field.max, &value)) {
    return fail(error, name + (field.flag ? " must be true or false"
                                          : " must be a whole number from 0 "
                                            "to " + std::to_string(field.max)));
  }
  field.set(*out, value);
  return true;
}

/// Every kMachineFields row (schema 3 wrote a subset: the organisation
/// knob and bus arbitration only where they applied, no latencies or
/// protocol knobs; those documents still parse).
Json machine_to_json(const MachineConfig& machine) {
  Json::Object o;
  for (const MachineField& field : kMachineFields) {
    put_field(o, field, field.get(machine));
  }
  return Json(std::move(o));
}

bool machine_from_json(const Json& json, MachineConfig* out,
                       std::string* error) {
  if (!json.is_object()) return fail(error, "machine config must be an object");
  for (const MachineField& field : kMachineFields) {
    // Named by member, as the document nests it ("size_bytes" of "l1").
    const std::string_view member = split_key(field.key).second;
    if (!read_field(json, field, member.empty() ? field.key : member, out,
                    error)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Json run_result_to_json(const RunResult& result) {
  Json::Object o;
  for (const RunResultField& field : kRunResultFields) {
    if (field.in_manifest) put_field(o, field, field.get(result));
  }
  // Derived ratios for human/plotting convenience; ignored on parse.
  Json::Object derived;
  derived.emplace_back("invalidations_per_write",
                       Json(result.invalidations_per_write()));
  derived.emplace_back("ls_fraction", Json(result.oracle_total.ls_fraction()));
  derived.emplace_back("migratory_fraction",
                       Json(result.oracle_total.migratory_fraction()));
  o.emplace_back("derived", Json(std::move(derived)));
  return Json(std::move(o));
}

bool run_result_from_json(const Json& json, RunResult* out,
                          std::string* error) {
  if (!json.is_object()) return fail(error, "run result must be an object");
  *out = RunResult{};
  for (const RunResultField& field : kRunResultFields) {
    if (field.in_manifest &&
        !read_field(json, field, field.key, out, error)) {
      return false;
    }
  }
  return true;
}

Json manifest_to_json(const RunManifest& manifest) {
  Json::Object o;
  o.emplace_back("schema_version", Json(manifest.schema_version));
  o.emplace_back("generator", Json(manifest.generator));
  o.emplace_back("workload", Json(manifest.workload));
  o.emplace_back("seed", Json(manifest.seed));
  if (!manifest.params.empty()) {
    Json::Object params;
    for (const auto& [k, v] : manifest.params) params.emplace_back(k, Json(v));
    o.emplace_back("params", Json(std::move(params)));
  }
  o.emplace_back("machine", machine_to_json(manifest.machine));
  o.emplace_back("wall_seconds", Json(manifest.wall_seconds));
  Json::Array runs;
  for (const RunManifest::ProtocolRun& run : manifest.runs) {
    Json::Object r;
    r.emplace_back("result", run_result_to_json(run.result));
    if (!run.metrics.empty()) {
      r.emplace_back("metrics", snapshot_to_json(run.metrics));
      // Ownership-latency digest (pure addition, schema version kept;
      // consumers ignore unknown members). Null-free: only emitted when
      // the run's snapshot carries the ownership.latency histograms.
      Json latency = ownership_latency_to_json(run.metrics);
      if (!latency.is_null()) {
        r.emplace_back("ownership_latency", std::move(latency));
      }
    }
    runs.emplace_back(std::move(r));
  }
  o.emplace_back("runs", Json(std::move(runs)));
  return Json(std::move(o));
}

bool manifest_from_json(const Json& json, RunManifest* out,
                        std::string* error) {
  if (!json.is_object()) return fail(error, "manifest must be an object");
  *out = RunManifest{};
  if (json.find("schema_version") == nullptr) {
    return fail(error, "manifest needs a numeric 'schema_version'");
  }
  if (!json.read_uint("schema_version", &out->schema_version, error)) {
    return false;
  }
  if (out->schema_version > kManifestSchemaVersion) {
    return fail(error, "manifest schema_version is newer than this build");
  }
  if (const Json* gen = json.find("generator");
      gen != nullptr && gen->is_string()) {
    out->generator = gen->as_string();
  }
  if (const Json* wl = json.find("workload");
      wl != nullptr && wl->is_string()) {
    out->workload = wl->as_string();
  }
  if (!json.read_uint("seed", &out->seed, error)) return false;
  if (const Json* params = json.find("params"); params != nullptr) {
    if (!params->is_object()) return fail(error, "'params' must be an object");
    for (const auto& [k, v] : params->as_object()) {
      if (!v.is_string()) return fail(error, "'params' values must be strings");
      out->params[k] = v.as_string();
    }
  }
  if (const Json* machine = json.find("machine"); machine != nullptr) {
    if (!machine_from_json(*machine, &out->machine, error)) return false;
  }
  if (const Json* wall = json.find("wall_seconds");
      wall != nullptr && wall->is_number()) {
    out->wall_seconds = wall->as_double();
  }
  const Json* runs = json.find("runs");
  if (runs == nullptr || !runs->is_array()) {
    return fail(error, "manifest needs a 'runs' array");
  }
  for (const Json& r : runs->as_array()) {
    if (!r.is_object()) return fail(error, "run entry must be an object");
    RunManifest::ProtocolRun run;
    const Json* result = r.find("result");
    if (result == nullptr) return fail(error, "run entry needs a 'result'");
    if (!run_result_from_json(*result, &run.result, error)) return false;
    if (const Json* metrics = r.find("metrics"); metrics != nullptr) {
      if (!snapshot_from_json(*metrics, &run.metrics, error)) return false;
    }
    out->runs.push_back(std::move(run));
  }
  return true;
}

bool manifest_from_text(std::string_view text, RunManifest* out,
                        std::string* error) {
  std::string parse_error;
  const Json doc = Json::parse(text, &parse_error);
  if (!parse_error.empty()) {
    if (error != nullptr) *error = parse_error;
    return false;
  }
  return manifest_from_json(doc, out, error);
}

void write_manifest(std::ostream& os, const RunManifest& manifest) {
  manifest_to_json(manifest).write(os, 1);
  os << '\n';
}

}  // namespace lssim
