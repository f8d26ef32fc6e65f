#include "sweep/matrix.hpp"

#include <algorithm>

#include "driver/runner.hpp"
#include "trace/config_hash.hpp"

namespace lssim {
namespace {

std::string unit_label(const SweepUnit& unit) {
  const MachineConfig& m = unit.machine;
  std::string label = unit.workload;
  label += '/';
  label += to_string(m.protocol.kind);
  label += '/';
  label += to_string(m.directory_scheme);
  label += '/';
  label += to_string(m.interconnect);
  label += "/n" + std::to_string(m.num_nodes);
  label += "/l1=" + std::to_string(m.l1.size_bytes);
  label += "/l2=" + std::to_string(m.l2.size_bytes);
  label += "/b" + std::to_string(m.l1.block_bytes);
  return label;
}

bool label_selected(const std::string& label, const SweepAxes& axes) {
  if (!axes.include.empty()) {
    const bool hit = std::any_of(
        axes.include.begin(), axes.include.end(),
        [&label](const std::string& s) {
          return label.find(s) != std::string::npos;
        });
    if (!hit) return false;
  }
  return std::none_of(axes.exclude.begin(), axes.exclude.end(),
                      [&label](const std::string& s) {
                        return label.find(s) != std::string::npos;
                      });
}

}  // namespace

bool generate_sweep(const SweepAxes& axes, SweepMatrix* out,
                    std::string* error) {
  const auto fail = [error](std::string what) {
    if (error != nullptr) *error = std::move(what);
    return false;
  };
  if (axes.workloads.empty()) return fail("sweep axes: no workloads");
  if (axes.protocols.empty()) return fail("sweep axes: no protocols");
  if (axes.directories.empty()) return fail("sweep axes: no directories");
  if (axes.interconnects.empty()) {
    return fail("sweep axes: no interconnects");
  }
  if (axes.node_counts.empty()) return fail("sweep axes: no node counts");
  if (axes.l1_sizes.empty()) return fail("sweep axes: no L1 sizes");
  if (axes.l2_sizes.empty()) return fail("sweep axes: no L2 sizes");
  if (axes.block_sizes.empty()) return fail("sweep axes: no block sizes");
  for (const std::string& workload : axes.workloads) {
    if (!driver_knows_workload(workload)) {
      return fail("sweep axes: unknown workload '" + workload + "'");
    }
  }

  std::vector<std::pair<std::string, std::string>> params = axes.params;
  std::sort(params.begin(), params.end());

  SweepMatrix matrix;
  for (const std::string& workload : axes.workloads) {
    for (const ProtocolKind protocol : axes.protocols) {
      for (const DirectoryKind directory : axes.directories) {
        for (const InterconnectKind interconnect : axes.interconnects) {
          for (const int nodes : axes.node_counts) {
            for (const std::uint32_t l1 : axes.l1_sizes) {
              for (const std::uint32_t l2 : axes.l2_sizes) {
                for (const std::uint32_t block : axes.block_sizes) {
                  matrix.combinations += 1;
                  SweepUnit unit;
                  unit.workload = workload;
                  unit.params = params;
                  unit.seed = axes.seed;
                  unit.machine = axes.base;
                  unit.machine.protocol.kind = protocol;
                  unit.machine.directory_scheme = directory;
                  unit.machine.interconnect = interconnect;
                  unit.machine.num_nodes = nodes;
                  unit.machine.l1.size_bytes = l1;
                  unit.machine.l2.size_bytes = l2;
                  unit.machine.l1.block_bytes = block;
                  unit.machine.l2.block_bytes = block;
                  if (!unit.machine.validate().empty()) {
                    matrix.pruned_invalid += 1;
                    continue;
                  }
                  unit.label = unit_label(unit);
                  if (!label_selected(unit.label, axes)) {
                    matrix.filtered_out += 1;
                    continue;
                  }
                  unit.config_hash =
                      sweep_config_hash(unit.machine, unit.workload,
                                        unit.params, unit.seed);
                  matrix.units.push_back(std::move(unit));
                }
              }
            }
          }
        }
      }
    }
  }
  *out = std::move(matrix);
  return true;
}

}  // namespace lssim
