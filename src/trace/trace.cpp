#include "trace/trace.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "trace/replay_compare.hpp"

namespace lssim {
namespace {

constexpr char kMagicV1[8] = {'L', 'S', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr char kMagicV2[8] = {'L', 'S', 'T', 'R', 'A', 'C', 'E', '2'};
// v2.1: the v2 layout with a config-hash schema version (u32) between
// the magic and the hash, so replay can recompute the hash the way the
// capturing build did (trace/config_hash.hpp).
constexpr char kMagicV21[8] = {'L', 'S', 'T', 'R', 'A', 'C', '2', '1'};

template <typename T>
void put(std::ostream& os, T value) {
  std::array<char, sizeof(T)> bytes{};
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  os.write(bytes.data(), bytes.size());
}

template <typename T>
T get(std::istream& is) {
  std::array<char, sizeof(T)> bytes{};
  is.read(bytes.data(), bytes.size());
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

void check_stream(std::istream& is) {
  if (!is) {
    throw std::runtime_error("truncated lssim trace file");
  }
}

/// Bytes between the read position and the end of a seekable stream; 0
/// when the stream cannot seek (a pipe), leaving the position unchanged.
std::uint64_t bytes_left(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return 0;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.clear();
  is.seekg(here);
  return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

/// Rejects a record field the simulator cannot represent, naming the
/// field and the record's index.
void check_field(bool ok, const char* field, unsigned value,
                 std::uint64_t index) {
  if (!ok) {
    throw std::runtime_error("corrupt lssim trace file: record " +
                             std::to_string(index) + " has " + field + " " +
                             std::to_string(value));
  }
}

}  // namespace

void Trace::save(std::ostream& os) const {
  os.write(kMagicV21, sizeof(kMagicV21));
  put<std::uint32_t>(os, meta_.hash_version);
  put<std::uint64_t>(os, meta_.config_hash);
  put<std::uint64_t>(os, meta_.seed);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(meta_.workload.size()));
  os.write(meta_.workload.data(),
           static_cast<std::streamsize>(meta_.workload.size()));
  put<std::uint32_t>(os,
                     static_cast<std::uint32_t>(meta_.final_gaps.size()));
  for (Cycles gap : meta_.final_gaps) {
    put<std::uint64_t>(os, gap);
  }
  put<std::uint64_t>(os, records_.size());
  for (const TraceRecord& r : records_) {
    put<std::uint64_t>(os, r.addr);
    put<std::uint64_t>(os, r.issue_gap);
    put<std::uint64_t>(os, r.wdata);
    put<std::uint64_t>(os, r.expected);
    put<std::uint32_t>(os, r.site);
    put<std::uint16_t>(os, r.node);
    put<std::uint8_t>(os, r.op);
    put<std::uint8_t>(os, r.size);
    put<std::uint8_t>(os, r.tag);
  }
}

Trace Trace::load(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  const bool v1 = is && std::memcmp(magic, kMagicV1, sizeof(magic)) == 0;
  const bool v21 = is && std::memcmp(magic, kMagicV21, sizeof(magic)) == 0;
  const bool v2 =
      v21 || (is && std::memcmp(magic, kMagicV2, sizeof(magic)) == 0);
  if (!v1 && !v2) {
    throw std::runtime_error("not an lssim trace file");
  }

  Trace trace;
  trace.meta_.hash_version = 0;
  if (v2) {
    if (v21) {
      trace.meta_.hash_version = get<std::uint32_t>(is);
    }
    trace.meta_.config_hash = get<std::uint64_t>(is);
    trace.meta_.seed = get<std::uint64_t>(is);
    const std::uint32_t name_len = get<std::uint32_t>(is);
    check_stream(is);
    if (name_len > (1u << 20)) {
      throw std::runtime_error("corrupt lssim trace file (workload name)");
    }
    trace.meta_.workload.resize(name_len);
    is.read(trace.meta_.workload.data(), name_len);
    const std::uint32_t gaps = get<std::uint32_t>(is);
    check_stream(is);
    if (gaps > static_cast<std::uint32_t>(kMaxNodes)) {
      throw std::runtime_error("corrupt lssim trace file (final gaps)");
    }
    trace.meta_.final_gaps.reserve(gaps);
    for (std::uint32_t i = 0; i < gaps; ++i) {
      trace.meta_.final_gaps.push_back(get<std::uint64_t>(is));
    }
    check_stream(is);
  }

  const std::uint64_t count = get<std::uint64_t>(is);
  check_stream(is);
  // The count is untrusted: reserve no more records than the bytes left
  // could hold (v2 records are 41 bytes, v1 records 20).
  const std::uint64_t record_bytes = v2 ? 41 : 20;
  trace.records_.reserve(std::min(count, bytes_left(is) / record_bytes));
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.addr = get<std::uint64_t>(is);
    r.issue_gap = get<std::uint64_t>(is);
    if (v2) {
      r.wdata = get<std::uint64_t>(is);
      r.expected = get<std::uint64_t>(is);
      r.site = get<std::uint32_t>(is);
      r.node = get<std::uint16_t>(is);
    } else {
      // Version-1 records carried no data payloads; replay historically
      // substituted the constant 1.
      r.wdata = 1;
      r.node = get<std::uint8_t>(is);
    }
    r.op = get<std::uint8_t>(is);
    r.size = get<std::uint8_t>(is);
    r.tag = get<std::uint8_t>(is);
    check_stream(is);
    check_field(r.op <= static_cast<std::uint8_t>(MemOpKind::kCas), "op",
                r.op, i);
    check_field(r.size == 1 || r.size == 2 || r.size == 4 || r.size == 8,
                "size", r.size, i);
    check_field(r.tag < kNumStreamTags, "tag", r.tag, i);
    check_field(r.node < kMaxNodes, "node", r.node, i);
    trace.records_.push_back(r);
  }
  return trace;
}

ReplayResult replay_trace(const Trace& trace, const MachineConfig& config,
                          Stats& stats) {
  const ReplayCompareEngine engine(trace, config);
  ReplayResult result;
  (void)engine.replay_collect(config, stats, &result.total_cycles);
  result.accesses = trace.size();
  return result;
}

}  // namespace lssim
