// lssim_sweep — fleet-scale sweep orchestration (ROADMAP item 4).
//
// Generates the cross-product of protocols × directory organisations ×
// interconnects × node counts × cache/block geometries × workloads,
// prunes invalid machines through the sim/config validators, filters by
// label substrings, and runs the surviving configs — sharded across
// machines, fanned across host threads, resumable — appending one
// record per config hash to a versioned JSONL results store that
// tools/bench_compare.py --store gates and trends.
//
//   lssim_sweep --store sweep.jsonl [axes] [filters] [run options]
//
// Axes (comma-separated lists; "all" expands a registry):
//   --workloads W,...      workload names        (default pingpong)
//   --protocols P,...|all  protocol names        (default all)
//   --directories D,...|all directory orgs      (default full-map)
//   --interconnects I,...|all transports        (default network)
//   --nodes N,...          node counts           (default 4)
//   --l1 S,... --l2 S,...  cache sizes (4k, 64k) (default 4k / 64k)
//   --blocks B,...         block sizes in bytes  (default 16)
//   --set key=value        workload parameter (repeatable, all units)
//   --seed N               workload seed         (default 1)
//
// Filters (repeatable, match against the unit label
// "workload/protocol/directory/interconnect/nN/l1=…/l2=…/bB"):
//   --include SUBSTR       keep only labels containing any SUBSTR
//   --exclude SUBSTR       drop labels containing SUBSTR
//
// Run options:
//   --store FILE           results store (required unless --list/--count)
//   --jobs N               worker threads per batch (default all cores)
//   --shard I/N            run units with index ≡ I (mod N) (default 0/1)
//   --batch N              units per append wave (default 16)
//   --no-timing            write wall_seconds as 0.0 (reproducible store)
//   --max-cycles N         per-unit watchdog budget (0 = off)
//   --quiet                no per-unit progress on stderr
//
// Inspection (no simulation, no store):
//   --count                print matrix arithmetic and exit 0
//   --list                 print "hash label" per unit and exit 0
//
// Exit codes: 0 ok, 1 one or more units failed (the store keeps every
// success; rerun to retry failures), 2 usage, 3 store I/O.
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/protocol_registry.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "exec/parallel_executor.hpp"
#include "sim/machine_fields.hpp"
#include "sweep/matrix.hpp"
#include "sweep/runner.hpp"
#include "trace/config_hash.hpp"

namespace {

using namespace lssim;

/// Parses the comma-separated `csv` given to `flag` into values of
/// machine field `key` (with k/m/g suffixes when `sizes`), each checked
/// against the field's range before it narrows to T.
template <typename T>
bool parse_field_list(const std::string& csv, const std::string& flag,
                      const char* key, bool sizes, std::vector<T>* out,
                      std::string* error) {
  const MachineField& field = *find_machine_field(key);
  out->clear();
  for (const std::string& item : split_name_list(csv)) {
    std::uint64_t value = 0;
    if (!(sizes ? parse_size(item, &value) : parse_whole(item, &value))) {
      *error = "bad " + flag + " element '" + item + "' in " + csv;
      return false;
    }
    if (std::string problem = field.range_problem(value); !problem.empty()) {
      *error = "bad " + flag + " " + item + ": " + problem;
      return false;
    }
    out->push_back(static_cast<T>(value));
  }
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr, "lssim_sweep: %s\n(run with --help for usage)\n",
               why);
  return 2;
}

void print_help() {
  std::fputs(
      "lssim_sweep --store FILE [axes] [filters] [run options]\n"
      "axes: --workloads W,.. --protocols P,..|all --directories D,..|all\n"
      "      --interconnects I,..|all --nodes N,.. --l1 S,.. --l2 S,..\n"
      "      --blocks B,.. --set k=v --seed N\n"
      "filters: --include SUBSTR --exclude SUBSTR (repeatable)\n"
      "run: --jobs N --shard I/N --batch N --no-timing --max-cycles N"
      " --quiet\n"
      "inspect: --count | --list (no simulation, no store)\n"
      "exit: 0 ok, 1 unit failure(s), 2 usage, 3 store I/O\n",
      stdout);
}

std::string host_git_commit() {
  std::string commit;
  if (FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (line.size() == 40 &&
          line.find_first_not_of("0123456789abcdef") == std::string::npos) {
        commit = line;
      }
    }
    pclose(pipe);
  }
  return commit;
}

}  // namespace

int main(int argc, char** argv) {
  SweepAxes axes;
  axes.workloads = {"pingpong"};
  axes.protocols = all_protocol_kinds();
  axes.directories = {DirectoryKind::kFullMap};
  axes.interconnects = {InterconnectKind::kNetwork};
  axes.node_counts = {4};
  axes.l1_sizes = {axes.base.l1.size_bytes};
  axes.l2_sizes = {axes.base.l2.size_bytes};
  axes.block_sizes = {axes.base.l1.block_bytes};

  std::string store_path;
  SweepRunOptions run_options;
  run_options.jobs = 0;  // parallel executor: 0 = all cores
  bool list_units = false;
  bool count_only = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) return nullptr;
      (void)flag;
      return argv[++i];
    };
    std::string error;
    if (std::strcmp(argv[i], "--help") == 0) {
      print_help();
      return 0;
    } else if (std::strcmp(argv[i], "--store") == 0) {
      const char* v = value("--store");
      if (v == nullptr) return usage("--store needs a file path");
      store_path = v;
    } else if (std::strcmp(argv[i], "--workloads") == 0 ||
               std::strcmp(argv[i], "--workload") == 0) {
      const char* v = value("--workloads");
      if (v == nullptr) return usage("--workloads needs a list");
      axes.workloads = split_name_list(v);
    } else if (std::strcmp(argv[i], "--protocols") == 0) {
      const char* v = value("--protocols");
      if (v == nullptr) return usage("--protocols needs a list");
      if (std::strcmp(v, "all") == 0) {
        axes.protocols = all_protocol_kinds();
      } else if (!kProtocolNames.parse_list(v, "--protocols",
                                            &axes.protocols, &error)) {
        return usage(error.c_str());
      }
    } else if (std::strcmp(argv[i], "--directories") == 0) {
      const char* v = value("--directories");
      if (v == nullptr) return usage("--directories needs a list");
      if (std::strcmp(v, "all") == 0) {
        axes.directories = kDirectoryNames.all();
      } else if (!kDirectoryNames.parse_list(v, "--directories",
                                             &axes.directories, &error)) {
        return usage(error.c_str());
      }
    } else if (std::strcmp(argv[i], "--interconnects") == 0) {
      const char* v = value("--interconnects");
      if (v == nullptr) return usage("--interconnects needs a list");
      if (std::strcmp(v, "all") == 0) {
        axes.interconnects = kInterconnectNames.all();
      } else if (!kInterconnectNames.parse_list(v, "--interconnects",
                                                &axes.interconnects,
                                                &error)) {
        return usage(error.c_str());
      }
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      const char* v = value("--nodes");
      if (v == nullptr) return usage("--nodes needs a list, e.g. 4,16,64");
      if (!parse_field_list(v, "--nodes", "num_nodes", false,
                            &axes.node_counts, &error)) {
        return usage(error.c_str());
      }
    } else if (std::strcmp(argv[i], "--l1") == 0 ||
               std::strcmp(argv[i], "--l2") == 0 ||
               std::strcmp(argv[i], "--blocks") == 0) {
      const std::string flag = argv[i];
      const char* v = value(argv[i]);
      if (v == nullptr) {
        return usage((flag + " needs sizes, e.g. 16,32").c_str());
      }
      const bool ok =
          flag == "--l1"   ? parse_field_list(v, flag, "l1.size_bytes", true,
                                              &axes.l1_sizes, &error)
          : flag == "--l2" ? parse_field_list(v, flag, "l2.size_bytes", true,
                                              &axes.l2_sizes, &error)
                           : parse_field_list(v, flag, "l1.block_bytes", true,
                                              &axes.block_sizes, &error);
      if (!ok) return usage(error.c_str());
    } else if (std::strcmp(argv[i], "--set") == 0) {
      const char* v = value("--set");
      if (v == nullptr) return usage("--set needs key=value");
      const std::string kv = v;
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        return usage("--set needs key=value");
      }
      axes.params.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = value("--seed");
      if (v == nullptr || !parse_whole(v, &axes.seed)) {
        return usage("--seed needs a whole number");
      }
    } else if (std::strcmp(argv[i], "--include") == 0) {
      const char* v = value("--include");
      if (v == nullptr) return usage("--include needs a substring");
      axes.include.emplace_back(v);
    } else if (std::strcmp(argv[i], "--exclude") == 0) {
      const char* v = value("--exclude");
      if (v == nullptr) return usage("--exclude needs a substring");
      axes.exclude.emplace_back(v);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      const char* v = value("--jobs");
      std::uint64_t jobs = 0;
      if (v == nullptr || !parse_whole(v, &jobs) || jobs > 1024) {
        return usage("--jobs needs 0..1024 (0 = all cores)");
      }
      run_options.jobs = static_cast<int>(jobs);
    } else if (std::strcmp(argv[i], "--shard") == 0) {
      const char* v = value("--shard");
      const std::string_view shard = v == nullptr ? "" : v;
      const std::size_t slash = shard.find('/');
      int index = 0;
      int count = 0;
      if (slash == std::string_view::npos ||
          !parse_whole(shard.substr(0, slash), &index) ||
          !parse_whole(shard.substr(slash + 1), &count) || count < 1 ||
          index < 0 || index >= count) {
        return usage("--shard needs I/N with 0 <= I < N");
      }
      run_options.shard_index = index;
      run_options.shard_count = count;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      const char* v = value("--batch");
      std::uint64_t batch = 0;
      if (v == nullptr || !parse_whole(v, &batch) || batch < 1) {
        return usage("--batch needs a positive count");
      }
      run_options.batch = static_cast<std::size_t>(batch);
    } else if (std::strcmp(argv[i], "--no-timing") == 0) {
      run_options.record_timing = false;
    } else if (std::strcmp(argv[i], "--max-cycles") == 0) {
      const char* v = value("--max-cycles");
      if (v == nullptr || !parse_whole(v, &axes.base.max_cycles)) {
        return usage("--max-cycles needs a whole number (0 = off)");
      }
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list_units = true;
    } else if (std::strcmp(argv[i], "--count") == 0) {
      count_only = true;
    } else {
      return usage((std::string("unknown argument '") + argv[i] + "'")
                       .c_str());
    }
  }

  SweepMatrix matrix;
  std::string error;
  if (!generate_sweep(axes, &matrix, &error)) {
    return usage(error.c_str());
  }
  std::fprintf(stderr,
               "lssim_sweep: %zu combinations -> %zu valid units "
               "(%zu pruned invalid, %zu filtered out)\n",
               matrix.combinations, matrix.units.size(),
               matrix.pruned_invalid, matrix.filtered_out);

  if (count_only) {
    std::printf("combinations %zu\nunits %zu\npruned_invalid %zu\n"
                "filtered_out %zu\n",
                matrix.combinations, matrix.units.size(),
                matrix.pruned_invalid, matrix.filtered_out);
    return 0;
  }
  if (list_units) {
    for (const SweepUnit& unit : matrix.units) {
      std::printf("%s %s\n", format_config_hash(unit.config_hash).c_str(),
                  unit.label.c_str());
    }
    return 0;
  }
  if (store_path.empty()) {
    return usage("--store is required (or use --list / --count)");
  }

  ResultsStore::Provenance provenance;
  provenance.git_commit = host_git_commit();
  provenance.host_hardware_concurrency = default_jobs();
  provenance.jobs = run_options.jobs;
  ResultsStore store;
  if (!store.open(store_path, provenance, &error)) {
    std::fprintf(stderr, "lssim_sweep: %s\n", error.c_str());
    return 3;
  }
  if (store.duplicate_hashes() > 0) {
    std::fprintf(stderr,
                 "lssim_sweep: warning: store already contains %zu "
                 "duplicate config hash(es)\n",
                 store.duplicate_hashes());
  }

  if (!quiet) {
    run_options.progress = [](const SweepUnit& unit, std::size_t done,
                              std::size_t total) {
      std::fprintf(stderr, "lssim_sweep: [%zu/%zu] %s\n", done, total,
                   unit.label.c_str());
    };
  }

  SweepRunSummary summary;
  if (!run_sweep(matrix.units, store, run_options, &summary, &error)) {
    std::fprintf(stderr, "lssim_sweep: %s\n", error.c_str());
    return 3;
  }
  std::fprintf(stderr,
               "lssim_sweep: shard %d/%d: %zu units, %zu skipped "
               "(resume), %zu executed, %zu failed -> %s\n",
               run_options.shard_index, run_options.shard_count,
               summary.in_shard, summary.skipped, summary.executed,
               summary.failed, store_path.c_str());
  for (const std::string& unit_error : summary.errors) {
    std::fprintf(stderr, "lssim_sweep: FAILED %s\n", unit_error.c_str());
  }
  return summary.failed == 0 ? 0 : 1;
}
