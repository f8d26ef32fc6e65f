#include "telemetry/manifest.hpp"

#include <utility>

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

Json cache_config_to_json(const CacheConfig& cache) {
  Json::Object o;
  o.emplace_back("size_bytes", Json(cache.size_bytes));
  o.emplace_back("assoc", Json(cache.assoc));
  o.emplace_back("block_bytes", Json(cache.block_bytes));
  return Json(std::move(o));
}

bool cache_config_from_json(const Json& json, CacheConfig* out,
                            std::string* error) {
  if (!json.is_object()) {
    if (error != nullptr) *error = "cache config must be an object";
    return false;
  }
  return json.read_uint("size_bytes", &out->size_bytes, error) &&
         json.read_uint("assoc", &out->assoc, error) &&
         json.read_uint("block_bytes", &out->block_bytes, error);
}

Json machine_to_json(const MachineConfig& machine) {
  Json::Object o;
  o.emplace_back("protocol", Json(to_string(machine.protocol.kind)));
  o.emplace_back("num_nodes", Json(machine.num_nodes));
  o.emplace_back("page_bytes", Json(machine.page_bytes));
  o.emplace_back("l1", cache_config_to_json(machine.l1));
  o.emplace_back("l2", cache_config_to_json(machine.l2));
  o.emplace_back("topology", Json(to_string(machine.topology)));
  o.emplace_back("consistency", Json(to_string(machine.consistency)));
  // Schema version 3: "directory" is the registry name of the directory
  // organisation, followed by the knob relevant to it (absent knobs mean
  // "default / not applicable").
  o.emplace_back("directory", Json(to_string(machine.directory_scheme)));
  switch (machine.directory_scheme) {
    case DirectoryKind::kFullMap:
      break;
    case DirectoryKind::kLimitedPtr:
      o.emplace_back("directory_pointers", Json(machine.directory_pointers));
      break;
    case DirectoryKind::kCoarseVector:
      o.emplace_back("directory_region", Json(machine.directory_region));
      break;
    case DirectoryKind::kSparse:
      o.emplace_back("directory_entries", Json(machine.directory_entries));
      break;
  }
  // Pure addition (schema version kept): the coherence transport, with
  // the arbitration knob only where it applies — mirroring the
  // directory-knob pattern above.
  o.emplace_back("interconnect", Json(to_string(machine.interconnect)));
  if (machine.interconnect == InterconnectKind::kBus) {
    o.emplace_back("bus_arbitration",
                   Json(to_string(machine.bus_arbitration)));
  }
  o.emplace_back("classify_false_sharing",
                 Json(machine.classify_false_sharing));
  return Json(std::move(o));
}

bool machine_from_json(const Json& json, MachineConfig* out,
                       std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!json.is_object()) return fail("machine config must be an object");
  // Absent in schema-version-1 documents; parsed by registry name since 2.
  if (const Json* proto = json.find("protocol"); proto != nullptr) {
    if (!proto->is_string() ||
        !kProtocolNames.parse(proto->as_string(), &out->protocol.kind)) {
      return fail("unknown protocol name in machine config");
    }
  }
  if (!json.read_uint("num_nodes", &out->num_nodes, error) ||
      !json.read_uint("page_bytes", &out->page_bytes, error)) {
    return false;
  }
  if (const Json* l1 = json.find("l1"); l1 != nullptr) {
    if (!cache_config_from_json(*l1, &out->l1, error)) return false;
  }
  if (const Json* l2 = json.find("l2"); l2 != nullptr) {
    if (!cache_config_from_json(*l2, &out->l2, error)) return false;
  }
  if (const Json* topo = json.find("topology"); topo != nullptr) {
    if (!topo->is_string() ||
        !kTopologyNames.parse(topo->as_string(), &out->topology)) {
      return fail("unknown topology");
    }
  }
  if (const Json* cons = json.find("consistency"); cons != nullptr) {
    if (!cons->is_string() ||
        !kConsistencyNames.parse(cons->as_string(), &out->consistency)) {
      return fail("unknown consistency model");
    }
  }
  // Absent before schema version 3 (version-2 documents carried the
  // field but it was never parsed; the same names resolve either way).
  if (const Json* dir = json.find("directory"); dir != nullptr) {
    if (!dir->is_string() ||
        !kDirectoryNames.parse(dir->as_string(), &out->directory_scheme)) {
      return fail("unknown directory organisation in machine config");
    }
  }
  if (!json.read_uint("directory_pointers", &out->directory_pointers,
                      error) ||
      !json.read_uint("directory_region", &out->directory_region, error) ||
      !json.read_uint("directory_entries", &out->directory_entries, error)) {
    return false;
  }
  // Absent in pre-interconnect-seam documents (implies the directory
  // network).
  if (const Json* net = json.find("interconnect"); net != nullptr) {
    if (!net->is_string() ||
        !kInterconnectNames.parse(net->as_string(), &out->interconnect)) {
      return fail("unknown interconnect in machine config");
    }
  }
  if (const Json* arb = json.find("bus_arbitration"); arb != nullptr) {
    if (!arb->is_string() ||
        !kBusArbitrationNames.parse(arb->as_string(),
                                    &out->bus_arbitration)) {
      return fail("unknown bus arbitration in machine config");
    }
  }
  if (const Json* fs = json.find("classify_false_sharing");
      fs != nullptr && fs->is_bool()) {
    out->classify_false_sharing = fs->as_bool();
  }
  return true;
}

}  // namespace

Json run_result_to_json(const RunResult& result) {
  Json::Object o;
  for (const RunResultField& field : kRunResultFields) {
    if (!field.in_manifest) continue;
    const std::uint64_t v = field.get(result);
    Json value = field.name != nullptr ? Json(field.name(v)) : Json(v);
    const auto [group, member] = split_key(field.key);
    if (member.empty()) {
      o.emplace_back(std::string(group), std::move(value));
      continue;
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
  const auto fail = [error](std::string what) {
    if (error != nullptr) *error = std::move(what);
    return false;
  };
  if (!json.is_object()) return fail("run result must be an object");
  *out = RunResult{};
  for (const RunResultField& field : kRunResultFields) {
    if (!field.in_manifest) continue;
    const auto [group, member] = split_key(field.key);
    // Absent members keep their defaults (older documents).
    const Json* v = json.find(group);
    if (v != nullptr && !member.empty()) {
      if (is_index(member)) {
        const std::size_t index = std::stoul(std::string(member));
        if (!v->is_array() || v->as_array().size() <= index) {
          return fail("'" + std::string(group) + "' must be an array of " +
                      "at least " + std::to_string(index + 1) + " numbers");
        }
        v = &v->as_array()[index];
      } else {
        if (!v->is_object()) {
          return fail("'" + std::string(group) + "' must be an object");
        }
        v = v->find(member);
      }
    }
    if (v == nullptr) continue;
    std::uint64_t value = 0;
    if (field.parse != nullptr) {
      if (!v->is_string() || !field.parse(v->as_string(), &value)) {
        return fail("unknown name in field '" + std::string(field.key) +
                    "'");
      }
    } else if (!v->read_uint_value(field.key, &value, error)) {
      return false;
    }
    field.set(*out, value);
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
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!json.is_object()) return fail("manifest must be an object");
  *out = RunManifest{};
  if (json.find("schema_version") == nullptr) {
    return fail("manifest needs a numeric 'schema_version'");
  }
  if (!json.read_uint("schema_version", &out->schema_version, error)) {
    return false;
  }
  if (out->schema_version > kManifestSchemaVersion) {
    return fail("manifest schema_version is newer than this build");
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
    if (!params->is_object()) return fail("'params' must be an object");
    for (const auto& [k, v] : params->as_object()) {
      if (!v.is_string()) return fail("'params' values must be strings");
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
    return fail("manifest needs a 'runs' array");
  }
  for (const Json& r : runs->as_array()) {
    if (!r.is_object()) return fail("run entry must be an object");
    RunManifest::ProtocolRun run;
    const Json* result = r.find("result");
    if (result == nullptr) return fail("run entry needs a 'result'");
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
