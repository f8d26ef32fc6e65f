#include "trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/output_block.hpp"
#include "trace/replay_compare.hpp"

namespace lssim {
namespace {

constexpr char kMagicV1[8] = {'L', 'S', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr char kMagicV2[8] = {'L', 'S', 'T', 'R', 'A', 'C', 'E', '2'};
// v2.1: the v2 layout with a config-hash schema version (u32) between
// the magic and the hash, so replay can recompute the hash the way the
// capturing build did (trace/config_hash.hpp).
constexpr char kMagicV21[8] = {'L', 'S', 'T', 'R', 'A', 'C', '2', '1'};

// The file moves through one fixed block, so the stream sees one call
// (and builds one sentry) per block rather than per field: save() encodes
// whole records into an OutputBlock, load() asks the stream for as many
// whole records as a block of the same size holds, never more than are
// left, so it stops right after the last record.
constexpr std::size_t kBlockBytes = OutputBlock::kBytes;
constexpr std::size_t kRecordBytesV2 = 41;  // v2 and v2.1.
constexpr std::size_t kRecordBytesV1 = 20;

// The file is little-endian, and the codec copies each field as it lies
// in host memory. The simulated address space makes the same assumption
// (mem/address_space.hpp).
static_assert(std::endian::native == std::endian::little,
              "the trace codec needs a little-endian host");

template <typename T>
char* encode(char* out, T value) {
  std::memcpy(out, &value, sizeof(T));
  return out + sizeof(T);
}

template <typename T>
T decode(const char*& in) {
  T value = 0;
  std::memcpy(&value, in, sizeof(T));
  in += sizeof(T);
  return value;
}

char* encode_record(char* out, const TraceRecord& r) {
  out = encode(out, r.addr);
  out = encode(out, r.issue_gap);
  out = encode(out, r.wdata);
  out = encode(out, r.expected);
  out = encode(out, r.site);
  out = encode(out, r.node);
  out = encode(out, r.op);
  out = encode(out, r.size);
  return encode(out, r.tag);
}

TraceRecord decode_record(const char*& in, bool v2) {
  TraceRecord r;
  r.addr = decode<std::uint64_t>(in);
  r.issue_gap = decode<std::uint64_t>(in);
  if (v2) {
    r.wdata = decode<std::uint64_t>(in);
    r.expected = decode<std::uint64_t>(in);
    r.site = decode<std::uint32_t>(in);
    r.node = decode<std::uint16_t>(in);
  } else {
    // Version-1 records carried no data payloads; replay historically
    // substituted the constant 1.
    r.wdata = 1;
    r.node = decode<std::uint8_t>(in);
  }
  r.op = decode<std::uint8_t>(in);
  r.size = decode<std::uint8_t>(in);
  r.tag = decode<std::uint8_t>(in);
  return r;
}

template <typename T>
void put_field(OutputBlock& out, T value) {
  out.advance(encode(out.room(sizeof(T)), value));
}

/// Reads up to `n` bytes into `out` and returns how many arrived: fewer
/// only when the stream ended.
std::size_t read_up_to(std::istream& is, char* out, std::size_t n) {
  is.read(out, static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(is.gcount());
}

const char* read_exact(std::istream& is, char* out, std::size_t n) {
  if (read_up_to(is, out, n) < n) {
    throw std::runtime_error("truncated lssim trace file");
  }
  return out;
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

void check_record(const TraceRecord& r, std::uint64_t index) {
  check_field(r.op <= static_cast<std::uint8_t>(MemOpKind::kCas), "op", r.op,
              index);
  check_field(r.size == 1 || r.size == 2 || r.size == 4 || r.size == 8,
              "size", r.size, index);
  if ((r.addr & (r.size - 1u)) != 0) {
    std::ostringstream os;
    os << "corrupt lssim trace file: record " << index << " has address 0x"
       << std::hex << r.addr << std::dec << ", not a multiple of its size "
       << unsigned{r.size};
    throw std::runtime_error(os.str());
  }
  check_field(r.tag < kNumStreamTags, "tag", r.tag, index);
  check_field(r.node < kMaxNodes, "node", r.node, index);
}

}  // namespace

void Trace::save(std::ostream& os) const {
  OutputBlock out(os);
  out.write({kMagicV21, sizeof(kMagicV21)});
  put_field<std::uint32_t>(out, meta_.hash_version);
  put_field<std::uint64_t>(out, meta_.config_hash);
  put_field<std::uint64_t>(out, meta_.seed);
  put_field(out, static_cast<std::uint32_t>(meta_.workload.size()));
  out.write(meta_.workload);
  put_field(out, static_cast<std::uint32_t>(meta_.final_gaps.size()));
  for (Cycles gap : meta_.final_gaps) {
    put_field<std::uint64_t>(out, gap);
  }
  put_field<std::uint64_t>(out, records_.size());
  // Records go in as one run per block through a local cursor, so the
  // block's own cursor is not stored and reloaded around every record.
  for (std::span<const TraceRecord> left(records_); !left.empty();) {
    char* p = out.room(kRecordBytesV2);
    const std::size_t n = std::min(left.size(), out.free() / kRecordBytesV2);
    for (const TraceRecord& r : left.first(n)) {
      p = encode_record(p, r);
    }
    out.advance(p);
    left = left.subspan(n);
  }
  out.flush();
}

Trace Trace::load(std::istream& is) {
  const auto block = std::make_unique_for_overwrite<char[]>(kBlockBytes);
  const bool whole_magic =
      read_up_to(is, block.get(), sizeof(kMagicV1)) == sizeof(kMagicV1);
  const auto is_magic = [&](const char (&magic)[8]) {
    return whole_magic &&
           std::memcmp(block.get(), magic, sizeof(magic)) == 0;
  };
  const bool v1 = is_magic(kMagicV1);
  const bool v21 = is_magic(kMagicV21);
  const bool v2 = v21 || is_magic(kMagicV2);
  if (!v1 && !v2) {
    throw std::runtime_error("not an lssim trace file");
  }

  Trace trace;
  trace.meta_.hash_version = 0;
  if (v2) {
    const char* p = read_exact(is, block.get(), v21 ? 24 : 20);
    if (v21) {
      trace.meta_.hash_version = decode<std::uint32_t>(p);
    }
    trace.meta_.config_hash = decode<std::uint64_t>(p);
    trace.meta_.seed = decode<std::uint64_t>(p);
    const auto name_len = decode<std::uint32_t>(p);
    if (name_len > (1u << 20)) {
      throw std::runtime_error("corrupt lssim trace file (workload name)");
    }
    trace.meta_.workload.resize(name_len);
    (void)read_exact(is, trace.meta_.workload.data(), name_len);
    p = read_exact(is, block.get(), 4);
    const auto gaps = decode<std::uint32_t>(p);
    if (gaps > static_cast<std::uint32_t>(kMaxNodes)) {
      throw std::runtime_error("corrupt lssim trace file (final gaps)");
    }
    p = read_exact(is, block.get(), 8 * std::size_t{gaps});
    trace.meta_.final_gaps.resize(gaps);
    for (Cycles& gap : trace.meta_.final_gaps) {
      gap = decode<std::uint64_t>(p);
    }
  }

  const char* p = read_exact(is, block.get(), 8);
  const auto count = decode<std::uint64_t>(p);
  // The count is untrusted: reserve no more records than the bytes left
  // could hold.
  const std::size_t record_bytes = v2 ? kRecordBytesV2 : kRecordBytesV1;
  trace.records_.reserve(std::min(count, bytes_left(is) / record_bytes));
  const std::uint64_t per_block = kBlockBytes / record_bytes;
  for (std::uint64_t i = 0; i < count;) {
    const std::uint64_t want = std::min(count - i, per_block);
    const std::uint64_t got =
        read_up_to(is, block.get(), want * record_bytes) / record_bytes;
    p = block.get();
    // Records before a cut are checked first, so a bad field is reported
    // ahead of a truncation later in the file.
    for (const std::uint64_t end = i + got; i < end; ++i) {
      const TraceRecord r = decode_record(p, v2);
      check_record(r, i);
      trace.records_.push_back(r);
    }
    if (got < want) {
      throw std::runtime_error("truncated lssim trace file");
    }
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
