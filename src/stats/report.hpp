// Text reports in the shape of the paper's figures and tables.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "workloads/harness.hpp"

namespace lssim {

/// Prints the three panels of a "Behavior of <name>" figure (paper
/// Figures 3, 4, 6, 7): normalized execution time split into busy / read
/// stall / write stall, normalized message counts split into Read / Write
/// / Other, and normalized global read misses split by home state. All
/// values are normalized so the first result (Baseline) totals 100.
void print_behavior_figure(std::ostream& os, const std::string& name,
                           std::span<const RunResult> results);

/// Prints a Figure-5-style invalidation-traffic panel: ownership
/// acquisitions ("Global Inv's") and invalidation messages, normalized to
/// the first result's total.
void print_invalidation_figure(std::ostream& os, const std::string& name,
                               std::span<const RunResult> results,
                               std::span<const std::string> labels);

/// Formats `value` as a percentage string with one decimal.
[[nodiscard]] std::string pct(double value);

/// 100 * value / base (0 when base is 0).
[[nodiscard]] double normalized(std::uint64_t value,
                                std::uint64_t base) noexcept;

}  // namespace lssim
