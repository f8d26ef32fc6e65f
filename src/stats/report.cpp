#include "stats/report.hpp"

#include <cstdio>
#include <ostream>

namespace lssim {

double normalized(std::uint64_t value, std::uint64_t base) noexcept {
  return base == 0 ? 0.0
                   : 100.0 * static_cast<double>(value) /
                         static_cast<double>(base);
}

std::string pct(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f%%", 100.0 * value);
  return buffer;
}

namespace {

std::string fixed1(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%7.1f", v);
  return buffer;
}

}  // namespace

void print_behavior_figure(std::ostream& os, const std::string& name,
                           std::span<const RunResult> results) {
  if (results.empty()) return;
  const RunResult& base = results.front();

  os << "== Behavior of " << name << " ==\n";
  // Annotate non-default directory organisations; a full-map-only figure
  // prints exactly what it always did.
  bool nondefault_dir = false;
  for (const auto& r : results) {
    nondefault_dir = nondefault_dir || r.directory != DirectoryKind::kFullMap;
  }
  if (nondefault_dir) {
    os << "-- directory:";
    for (const auto& r : results) os << ' ' << to_string(r.directory);
    os << " --\n";
  }
  os << "-- Normalized execution time (Baseline total = 100) --\n";
  os << "            ";
  for (const auto& r : results) os << "  " << to_string(r.protocol) << "\t";
  os << "\n";
  const auto t_base = static_cast<double>(base.time.total());
  auto row = [&](const char* label, auto getter) {
    os << label;
    for (const auto& r : results) {
      os << fixed1(t_base == 0 ? 0.0 : 100.0 * getter(r) / t_base) << "\t";
    }
    os << "\n";
  };
  row("  busy      ", [](const RunResult& r) {
    return static_cast<double>(r.time.busy);
  });
  row("  read stall", [](const RunResult& r) {
    return static_cast<double>(r.time.read_stall);
  });
  row("  write stal", [](const RunResult& r) {
    return static_cast<double>(r.time.write_stall);
  });
  row("  TOTAL     ", [](const RunResult& r) {
    return static_cast<double>(r.time.total());
  });

  os << "-- Normalized message count (Baseline total = 100) --\n";
  const auto m_base = static_cast<double>(base.traffic_total);
  auto trow = [&](const char* label, MsgClass cls) {
    os << label;
    for (const auto& r : results) {
      os << fixed1(m_base == 0 ? 0.0
                               : 100.0 *
                                     static_cast<double>(
                                         r.traffic[static_cast<std::size_t>(
                                             cls)]) /
                                     m_base)
         << "\t";
    }
    os << "\n";
  };
  trow("  read      ", MsgClass::kRead);
  trow("  write     ", MsgClass::kWrite);
  trow("  other     ", MsgClass::kOther);
  os << "  TOTAL     ";
  for (const auto& r : results) {
    os << fixed1(m_base == 0 ? 0.0
                             : 100.0 * static_cast<double>(r.traffic_total) /
                                   m_base)
       << "\t";
  }
  os << "\n";

  os << "-- Normalized global read misses (Baseline total = 100) --\n";
  const auto rm_base = static_cast<double>(base.global_read_misses);
  for (int s = 0; s < kNumHomeStates; ++s) {
    os << "  " << to_string(static_cast<HomeStateAtMiss>(s));
    for (std::size_t pad = 0;
         pad < 16 - std::string(to_string(static_cast<HomeStateAtMiss>(s)))
                        .size();
         ++pad) {
      os << ' ';
    }
    for (const auto& r : results) {
      os << fixed1(
                rm_base == 0
                    ? 0.0
                    : 100.0 *
                          static_cast<double>(
                              r.read_miss_home[static_cast<std::size_t>(s)]) /
                          rm_base)
         << "\t";
    }
    os << "\n";
  }
  os << "  TOTAL           ";
  for (const auto& r : results) {
    os << fixed1(rm_base == 0
                     ? 0.0
                     : 100.0 * static_cast<double>(r.global_read_misses) /
                           rm_base)
       << "\t";
  }
  os << "\n\n";
}

void print_invalidation_figure(std::ostream& os, const std::string& name,
                               std::span<const RunResult> results,
                               std::span<const std::string> labels) {
  if (results.empty()) return;
  os << "== Invalidation traffic for " << name << " ==\n";
  os << "             ";
  for (const auto& label : labels) os << "  " << label << "\t";
  os << "\n";
  const double base = static_cast<double>(results.front().invalidations +
                                          results.front().ownership_acquisitions);
  os << "  global inv ";
  for (const auto& r : results) {
    os << fixed1(base == 0 ? 0.0
                           : 100.0 *
                                 static_cast<double>(
                                     r.ownership_acquisitions) /
                                 base)
       << "\t";
  }
  os << "\n  invalidatns";
  for (const auto& r : results) {
    os << fixed1(base == 0 ? 0.0
                           : 100.0 * static_cast<double>(r.invalidations) /
                                 base)
       << "\t";
  }
  os << "\n  TOTAL      ";
  for (const auto& r : results) {
    os << fixed1(base == 0
                     ? 0.0
                     : 100.0 *
                           static_cast<double>(r.invalidations +
                                               r.ownership_acquisitions) /
                           base)
       << "\t";
  }
  os << "\n\n";
}

}  // namespace lssim
