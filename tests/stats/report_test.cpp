#include "stats/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

namespace lssim {
namespace {

RunResult fake_result(ProtocolKind kind, Cycles busy, Cycles rs, Cycles ws,
                      std::uint64_t reads, std::uint64_t writes,
                      std::uint64_t other) {
  RunResult r;
  r.protocol = kind;
  r.time.busy = busy;
  r.time.read_stall = rs;
  r.time.write_stall = ws;
  r.exec_time = busy + rs + ws;
  r.traffic[0] = reads;
  r.traffic[1] = writes;
  r.traffic[2] = other;
  r.traffic_total = reads + writes + other;
  r.global_read_misses = 100;
  r.read_miss_home[0] = 100;
  return r;
}

TEST(Report, NormalizedHelper) {
  EXPECT_DOUBLE_EQ(normalized(50, 100), 50.0);
  EXPECT_DOUBLE_EQ(normalized(100, 100), 100.0);
  EXPECT_DOUBLE_EQ(normalized(1, 0), 0.0);
}

TEST(Report, PctFormatting) {
  EXPECT_EQ(pct(0.5), "50.0%");
  EXPECT_EQ(pct(0.123), "12.3%");
}

TEST(Report, BehaviorFigureMentionsAllProtocols) {
  std::vector<RunResult> results{
      fake_result(ProtocolKind::kBaseline, 50, 30, 20, 600, 300, 100),
      fake_result(ProtocolKind::kAd, 50, 30, 10, 600, 200, 100),
      fake_result(ProtocolKind::kLs, 50, 30, 5, 600, 150, 100),
  };
  std::ostringstream os;
  print_behavior_figure(os, "TestApp", results);
  const std::string out = os.str();
  EXPECT_NE(out.find("TestApp"), std::string::npos);
  EXPECT_NE(out.find("Baseline"), std::string::npos);
  EXPECT_NE(out.find("AD"), std::string::npos);
  EXPECT_NE(out.find("LS"), std::string::npos);
  EXPECT_NE(out.find("busy"), std::string::npos);
  EXPECT_NE(out.find("100.0"), std::string::npos);  // Baseline total.
}

TEST(Report, BehaviorFigureNormalizesToBaseline) {
  std::vector<RunResult> results{
      fake_result(ProtocolKind::kBaseline, 100, 0, 0, 100, 0, 0),
      fake_result(ProtocolKind::kLs, 50, 0, 0, 50, 0, 0),
  };
  std::ostringstream os;
  print_behavior_figure(os, "Half", results);
  const std::string out = os.str();
  EXPECT_NE(out.find("50.0"), std::string::npos);
}

TEST(Report, InvalidationFigurePrints) {
  std::vector<RunResult> results(3);
  results[0].ownership_acquisitions = 100;
  results[0].invalidations = 20;
  results[1].ownership_acquisitions = 50;
  results[1].invalidations = 20;
  results[2].ownership_acquisitions = 10;
  results[2].invalidations = 5;
  const std::vector<std::string> labels{"Base-4", "AD-4", "LS-4"};
  std::ostringstream os;
  print_invalidation_figure(os, "Cholesky", results, labels);
  const std::string out = os.str();
  EXPECT_NE(out.find("Cholesky"), std::string::npos);
  EXPECT_NE(out.find("Base-4"), std::string::npos);
  EXPECT_NE(out.find("global inv"), std::string::npos);
}

TEST(Report, EmptyResultsAreSafe) {
  std::ostringstream os;
  print_behavior_figure(os, "empty", {});
  print_invalidation_figure(os, "empty", {}, {});
  EXPECT_TRUE(os.str().empty());
}

}  // namespace
}  // namespace lssim
