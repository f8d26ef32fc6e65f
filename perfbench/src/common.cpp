#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (int p = 99; p >= 1; --p) {
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    if (n - rank >= kTailBeyond) {
      tail.percentile = p;
      tail.value = values[rank - 1];
      tail.beyond = n - rank;
      return tail;
    }
  }
  // Too few samples for any tail: the maximum, flagged by percentile 100.
  tail.percentile = 100;
  tail.value = values.back();
  return tail;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricList::add(std::string name, double value, std::string unit) {
  if (!valid_metric_name(name)) {
    throw std::logic_error("invalid metric name: " + name);
  }
  items_.push_back(Metric{std::move(name), value, std::move(unit)});
}

namespace {

class Fnv {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(const lssim::LsOracleCounters& c) noexcept {
    add(c.global_writes);
    add(c.ls_writes);
    add(c.migratory_writes);
    add(c.eliminated);
    add(c.eliminated_ls);
    add(c.eliminated_migratory);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::uint64_t digest(const lssim::RunResult& r) {
  Fnv h;
  h.add(static_cast<std::uint64_t>(r.protocol));
  h.add(static_cast<std::uint64_t>(r.directory));
  h.add(static_cast<std::uint64_t>(r.interconnect));
  h.add(r.exec_time);
  h.add(r.time.busy);
  h.add(r.time.read_stall);
  h.add(r.time.write_stall);
  for (std::uint64_t v : r.traffic) h.add(v);
  h.add(r.traffic_total);
  for (std::uint64_t v : r.read_miss_home) h.add(v);
  h.add(r.global_read_misses);
  h.add(r.global_write_actions);
  h.add(r.ownership_acquisitions);
  h.add(r.invalidations);
  h.add(r.single_invalidations);
  h.add(r.eliminated_acquisitions);
  h.add(r.update_transactions);
  h.add(r.updates_sent);
  h.add(r.data_misses);
  h.add(r.coherence_misses);
  h.add(r.false_sharing_misses);
  h.add(r.accesses);
  h.add(r.l1_hits);
  h.add(r.l2_hits);
  h.add(r.blocks_tagged);
  h.add(r.blocks_detagged);
  h.add(r.dir_entry_evictions);
  h.add(r.oracle_total);
  for (const lssim::LsOracleCounters& c : r.oracle_by_tag) h.add(c);
  return h.value();
}

bool Checker::load_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    std::string hex;
    if (!(fields >> key >> hex) || key.front() == '#') continue;
    recorded_[key] = std::stoull(hex, nullptr, 16);
  }
  return true;
}

bool Checker::check(const std::string& key, const lssim::RunResult& result,
                    const Rerun& rerun) {
  attempted_ += 1;
  std::uint64_t got = digest(result);
  if (inject_) {
    lssim::RunResult perturbed = result;
    perturbed.accesses += 1;
    got = digest(perturbed);
    inject_ = false;
  }
  Seen& seen = seen_[key];
  const auto recorded = recorded_.find(key);
  std::uint64_t want = got;
  const char* source = nullptr;
  if (recorded != recorded_.end()) {
    want = recorded->second;
    source = "recorded digest";
  } else if (seen.runs > 0) {
    want = seen.digest;
    source = "earlier run of the same simulation";
  }
  if (seen.runs == 0) {
    seen.digest = got;
    seen.rerun = rerun;
  }
  seen.runs += 1;
  if (got == want) return true;
  wrong_ += 1;
  std::fprintf(stderr,
               "perfbench: MISMATCH %s: digest %016llx, %s %016llx\n",
               key.c_str(), static_cast<unsigned long long>(got), source,
               static_cast<unsigned long long>(want));
  return false;
}

bool Checker::expect(const std::string& what,
                     const std::vector<std::string>& problems) {
  checks_ += 1;
  if (problems.empty()) return true;
  failed_checks_ += 1;
  std::fprintf(stderr, "perfbench: MISMATCH %s\n", what.c_str());
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench:   %s\n", p.c_str());
  }
  return false;
}

void Checker::repeat_unrecorded() {
  // Copy first: check() inserts into seen_.
  std::vector<std::pair<std::string, Rerun>> pending;
  for (const auto& [key, seen] : seen_) {
    if (seen.runs == 1 && recorded_.count(key) == 0 && seen.rerun) {
      pending.emplace_back(key, seen.rerun);
    }
  }
  for (const auto& [key, rerun] : pending) {
    check(key, rerun(), rerun);
  }
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_ % cpus_.size()], &one);
  next_ += 1;
  (void)sched_setaffinity(0, sizeof one, &one);  // Best effort.
}

}  // namespace perfbench
