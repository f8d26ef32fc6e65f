// Trace capture, serialization and replay.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "trace/config_hash.hpp"
#include "trace/recorder.hpp"
#include "trace/replay_compare.hpp"
#include "workloads/harness.hpp"
#include "workloads/micro.hpp"

namespace lssim {
namespace {

MachineConfig tiny_cfg(ProtocolKind kind = ProtocolKind::kBaseline) {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  cfg.l1 = CacheConfig{1024, 1, 16};
  cfg.l2 = CacheConfig{8192, 1, 16};
  cfg.protocol.kind = kind;
  return cfg;
}

/// Replays `trace` on a fresh machine built from `config`.
RunResult replay(const Trace& trace, const MachineConfig& config) {
  return ReplayCompareEngine(trace, config).replay_config(config);
}

Trace record_pingpong(ProtocolKind kind = ProtocolKind::kBaseline) {
  System sys(tiny_cfg(kind));
  Trace trace;
  TraceRecorder recorder(sys, trace);
  build_pingpong(sys, PingPongParams{.rounds = 50, .counters = 2});
  sys.run();
  return trace;
}

TEST(Trace, RecorderCapturesEveryAccess) {
  System sys(tiny_cfg());
  Trace trace;
  TraceRecorder recorder(sys, trace);
  build_pingpong(sys, PingPongParams{.rounds = 50, .counters = 2});
  sys.run();
  EXPECT_EQ(trace.size(), sys.stats().accesses);
  EXPECT_GT(trace.size(), 100u);
}

TEST(Trace, RecordsCarryProgramOrderGaps) {
  const Trace trace = record_pingpong();
  // Gaps are compute time between accesses; the ping-pong program
  // computes think_cycles between RMW pairs, so nonzero gaps must exist.
  bool nonzero_gap = false;
  for (const TraceRecord& r : trace.records()) {
    if (r.issue_gap > 0) nonzero_gap = true;
  }
  EXPECT_TRUE(nonzero_gap);
}

TEST(Trace, SaveLoadRoundTrip) {
  const Trace trace = record_pingpong();
  std::stringstream buffer;
  trace.save(buffer);
  const Trace loaded = Trace::load(buffer);
  EXPECT_EQ(trace, loaded);
}

TEST(Trace, LoadRejectsGarbage) {
  std::stringstream buffer;
  buffer << "this is not a trace";
  EXPECT_THROW((void)Trace::load(buffer), std::runtime_error);
}

TEST(Trace, LoadRejectsTruncated) {
  const Trace trace = record_pingpong();
  std::stringstream buffer;
  trace.save(buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_THROW((void)Trace::load(truncated), std::runtime_error);
}

TEST(Trace, LoadRejectsHugeRecordCount) {
  // 16 bytes: a v1 header claiming 2^60 records and no record bytes. The
  // reservation is capped by the bytes left, so this reads as truncated
  // instead of attempting the allocation.
  std::stringstream buffer;
  buffer.write("LSTRACE1", 8);
  const std::uint64_t count = std::uint64_t{1} << 60;
  for (int i = 0; i < 8; ++i) {
    buffer.put(static_cast<char>((count >> (8 * i)) & 0xff));
  }
  ASSERT_EQ(buffer.str().size(), 16u);
  try {
    (void)Trace::load(buffer);
    FAIL() << "2^60-record header accepted";
  } catch (const std::runtime_error& ex) {
    EXPECT_STREQ(ex.what(), "truncated lssim trace file");
  }
}

/// Saves a good record and one rewritten by `corrupt`, loads the file
/// back and returns the load error ("" when it loads).
std::string load_error(void (*corrupt)(TraceRecord&)) {
  Trace trace;
  TraceRecord r;
  r.addr = 0x40;
  trace.append(r);
  corrupt(r);
  trace.append(r);
  std::stringstream buffer;
  trace.save(buffer);
  try {
    (void)Trace::load(buffer);
  } catch (const std::runtime_error& ex) {
    return ex.what();
  }
  return "";
}

TEST(Trace, LoadRejectsOutOfRangeFieldsNamingFieldAndRecord) {
  EXPECT_EQ(load_error([](TraceRecord& r) {
              r.op = 200;
              r.size = 0;
            }),
            "corrupt lssim trace file: record 1 has op 200");
  EXPECT_EQ(load_error([](TraceRecord& r) { r.size = 0; }),
            "corrupt lssim trace file: record 1 has size 0");
  EXPECT_EQ(load_error([](TraceRecord& r) { r.size = 3; }),
            "corrupt lssim trace file: record 1 has size 3");
  EXPECT_EQ(load_error([](TraceRecord& r) { r.tag = kNumStreamTags; }),
            "corrupt lssim trace file: record 1 has tag 3");
  // No machine has node 300 (kMaxNodes is 256), although the v2 16-bit
  // field can carry it.
  EXPECT_EQ(load_error([](TraceRecord& r) { r.node = 300; }),
            "corrupt lssim trace file: record 1 has node 300");
  EXPECT_EQ(load_error([](TraceRecord&) {}), "");  // In range: loads.
}

TEST(Trace, LoadRejectsMisalignedRecordNamingIt) {
  EXPECT_EQ(load_error([](TraceRecord& r) {
              r.addr = 0x44;
              r.size = 8;
            }),
            "corrupt lssim trace file: record 1 has address 0x44, not a "
            "multiple of its size 8");
  EXPECT_EQ(load_error([](TraceRecord& r) {
              r.addr = 0x41;
              r.size = 2;
            }),
            "corrupt lssim trace file: record 1 has address 0x41, not a "
            "multiple of its size 2");
  EXPECT_EQ(load_error([](TraceRecord& r) {
              r.addr = 0x41;
              r.size = 1;
            }),
            "");
}

TEST(Trace, ReplayExecutesAllAccesses) {
  const Trace trace = record_pingpong();
  const RunResult result = replay(trace, tiny_cfg());
  EXPECT_EQ(result.accesses, trace.size());
  EXPECT_GT(result.exec_time, 0u);
}

TEST(Trace, ReplayUnderLsEliminatesOwnership) {
  // A baseline-recorded migratory trace replayed under LS shows the
  // technique's effect — the cheap way to sweep protocols over one
  // workload recording.
  const Trace trace = record_pingpong();
  const RunResult base = replay(trace, tiny_cfg(ProtocolKind::kBaseline));
  const RunResult ls = replay(trace, tiny_cfg(ProtocolKind::kLs));
  EXPECT_EQ(base.eliminated_acquisitions, 0u);
  EXPECT_GT(ls.eliminated_acquisitions, 50u);
  EXPECT_LT(ls.traffic_total, base.traffic_total);
}

TEST(Trace, ReplayRejectsOutOfRangeNode) {
  Trace trace;
  TraceRecord r;
  trace.append(r);
  r.node = 9;  // Machine below has 4 nodes.
  trace.append(r);
  try {
    (void)replay(trace, tiny_cfg());
    FAIL() << "node 9 accepted on a 4-node machine";
  } catch (const std::out_of_range& ex) {
    // The message names the record and the node.
    EXPECT_STREQ(ex.what(),
                 "trace record 1 has node 9, outside the 4-node machine");
  }
}

TEST(Trace, ReplayIsDeterministic) {
  const Trace trace = record_pingpong();
  EXPECT_EQ(replay(trace, tiny_cfg()), replay(trace, tiny_cfg()));
}

TEST(Trace, EmptyTraceReplaysToNothing) {
  Trace trace;
  const RunResult result = replay(trace, tiny_cfg());
  EXPECT_EQ(result.accesses, 0u);
  EXPECT_EQ(result.exec_time, 0u);
}

TEST(Trace, MetaRoundTrips) {
  Trace trace;
  trace.meta().config_hash = 0xdeadbeefcafef00dull;
  trace.meta().seed = 42;
  trace.meta().workload = "pingpong";
  trace.meta().final_gaps = {5, 0, 17, 0};
  TraceRecord r;
  r.addr = 64;
  r.issue_gap = 3;
  r.wdata = 7;
  r.expected = 9;
  r.site = 12;
  r.node = kMaxNodes - 1;  // 255: the largest node id a machine has.
  trace.append(r);
  std::stringstream buffer;
  trace.save(buffer);
  const Trace loaded = Trace::load(buffer);
  EXPECT_EQ(trace, loaded);
  EXPECT_EQ(loaded.meta().workload, "pingpong");
  EXPECT_EQ(loaded.records()[0].node, kMaxNodes - 1);
}

namespace v1 {
// Little-endian emitters for hand-crafting a legacy version-1 file.
void put64(std::ostream& os, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) os.put(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put8(std::ostream& os, std::uint8_t v) {
  os.put(static_cast<char>(v));
}
}  // namespace v1

TEST(Trace, LoadsLegacyVersion1Files) {
  // A v1 file is magic + u64 count + per record (addr u64, gap u64,
  // node u8, op u8, size u8, tag u8) — no metadata, no data payloads.
  std::stringstream buffer;
  buffer.write("LSTRACE1", 8);
  v1::put64(buffer, 2);  // record count
  v1::put64(buffer, 0x40);
  v1::put64(buffer, 3);
  v1::put8(buffer, 1);  // node
  v1::put8(buffer, 0);  // op
  v1::put8(buffer, 4);  // size
  v1::put8(buffer, 0);  // tag
  v1::put64(buffer, 0x80);
  v1::put64(buffer, 0);
  v1::put8(buffer, 2);
  v1::put8(buffer, 1);
  v1::put8(buffer, 4);
  v1::put8(buffer, 0);

  const Trace loaded = Trace::load(buffer);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.meta().config_hash, 0u);  // v1: compatibility unchecked
  EXPECT_TRUE(loaded.meta().final_gaps.empty());
  EXPECT_EQ(loaded.records()[0].addr, 0x40u);
  EXPECT_EQ(loaded.records()[0].issue_gap, 3u);
  EXPECT_EQ(loaded.records()[0].node, 1);
  // v1 records carried no store values; replay substitutes the
  // historical placeholder 1.
  EXPECT_EQ(loaded.records()[0].wdata, 1u);
  EXPECT_EQ(loaded.records()[1].node, 2);

  // A hash-less trace replays against any machine without a config check.
  EXPECT_EQ(replay(loaded, tiny_cfg()).accesses, 2u);
}

// ---- Multi-block files ----------------------------------------------
// The codec moves whole records through a fixed 64 KiB block; these
// traces span several blocks so block edges fall inside and between
// records.

constexpr std::size_t kBlockBytes = 64 * 1024;
constexpr std::size_t kRecordBytes = 41;  // v2 / v2.1 record.

/// A deterministic trace of `n` in-range records with every field
/// varied, plus header metadata.
Trace synthetic_trace(std::size_t n) {
  Trace trace;
  trace.meta().config_hash = 0x0123456789abcdefull;
  trace.meta().seed = 7;
  trace.meta().workload = "synthetic";
  trace.meta().final_gaps = {1, 0, 300, 70000};
  Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.addr = rng.next() & ~std::uint64_t{7};
    r.issue_gap = rng.next_below(1000);
    r.wdata = rng.next();
    r.expected = rng.next();
    r.site = static_cast<std::uint32_t>(rng.next());
    r.node = static_cast<NodeId>(rng.next_below(kMaxNodes));
    r.op = static_cast<std::uint8_t>(
        rng.next_below(static_cast<std::uint64_t>(MemOpKind::kCas) + 1));
    r.size = static_cast<std::uint8_t>(1u << rng.next_below(4));
    r.tag = static_cast<std::uint8_t>(rng.next_below(kNumStreamTags));
    trace.append(r);
  }
  return trace;
}

std::string saved_bytes(const Trace& trace) {
  std::ostringstream os;
  trace.save(os);
  return os.str();
}

/// Bytes of a v2.1 header (everything before the first record).
std::size_t header_bytes(const Trace& trace) {
  return 8 + 4 + 8 + 8 + 4 + trace.meta().workload.size() + 4 +
         8 * trace.meta().final_gaps.size() + 8;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The error Trace::load throws reading `is` ("" when it loads).
std::string stream_load_error(std::istream& is) {
  try {
    (void)Trace::load(is);
  } catch (const std::runtime_error& ex) {
    return ex.what();
  }
  return "";
}

std::string bytes_load_error(const std::string& bytes) {
  std::istringstream is(bytes);
  return stream_load_error(is);
}

/// Serves a string through underflow in small chunks and cannot seek,
/// like a pipe.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (next_ == bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(1000, bytes_.size() - next_);
    char* begin = bytes_.data() + next_;
    setg(begin, begin, begin + n);
    next_ += n;
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string bytes_;
  std::size_t next_ = 0;
};

TEST(Trace, SaveWritesPinnedBytesAcrossBlocks) {
  // 6,000 records span four 64 KiB blocks. The last record and the
  // header carry all-ones fields, so no byte of any field is truncated
  // or sign-extended. The digest was recorded with the per-field writer
  // the block codec replaced: the file format must not move.
  Trace trace = synthetic_trace(5999);
  trace.meta().hash_version = ~std::uint32_t{0};
  trace.meta().config_hash = ~std::uint64_t{0};
  trace.meta().seed = ~std::uint64_t{0};
  trace.meta().final_gaps.push_back(~Cycles{0});
  TraceRecord ones;
  ones.addr = ~Addr{0};
  ones.issue_gap = ~Cycles{0};
  ones.wdata = ~std::uint64_t{0};
  ones.expected = ~std::uint64_t{0};
  ones.site = ~std::uint32_t{0};
  ones.node = static_cast<NodeId>(~NodeId{0});
  ones.op = 0xff;
  ones.size = 0xff;
  ones.tag = 0xff;
  trace.append(ones);
  const std::string bytes = saved_bytes(trace);
  ASSERT_EQ(bytes.size(), header_bytes(trace) + 6000 * kRecordBytes);
  EXPECT_GT(bytes.size(), 3 * kBlockBytes);
  EXPECT_EQ(bytes.substr(0, 8), "LSTRAC21");
  EXPECT_EQ(bytes.substr(bytes.size() - kRecordBytes),
            std::string(kRecordBytes, '\xff'));
  EXPECT_EQ(fnv1a(bytes), 0xef1f9335ce7d0233ull) << std::hex << fnv1a(bytes);
}

TEST(Trace, LoadRejectsTruncationInHeaderAtBlockEdgeAndMidRecord) {
  const Trace trace = synthetic_trace(5000);
  const std::string bytes = saved_bytes(trace);
  const std::size_t header = header_bytes(trace);
  const std::size_t per_block = kBlockBytes / kRecordBytes;
  const std::size_t cuts[] = {
      9,                                          // In the hash version.
      20,                                         // In the seed.
      8 + 4 + 8 + 8 + 4 + 3,                      // In the workload name.
      header - 9,                                 // In the final gaps.
      header - 3,                                 // In the record count.
      header,                                     // Before record 0.
      header + per_block * kRecordBytes,          // At a block edge.
      kBlockBytes,                                // At 64 KiB of file.
      header + 2 * per_block * kRecordBytes,      // At the next edge.
      header + 4000 * kRecordBytes + 17,          // Mid-record, block 3.
      bytes.size() - 1,                           // In the last record.
  };
  for (const std::size_t cut : cuts) {
    EXPECT_EQ(bytes_load_error(bytes.substr(0, cut)),
              "truncated lssim trace file")
        << "cut at byte " << cut;
    PipeBuf pipe(bytes.substr(0, cut));
    std::istream is(&pipe);
    EXPECT_EQ(stream_load_error(is), "truncated lssim trace file")
        << "pipe cut at byte " << cut;
  }
  EXPECT_EQ(bytes_load_error(bytes), "");
}

TEST(Trace, BadFieldBeforeTruncationIsReportedFirst) {
  const std::size_t per_block = kBlockBytes / kRecordBytes;
  // A bad record in an earlier block, at the last slot of a block with
  // the cut in the next record, and in the same block as the cut.
  const std::pair<std::size_t, std::size_t> bad_then_cut[] = {
      {1000, 4000}, {per_block - 1, per_block}, {3990, 4000}};
  for (const auto& [bad, cut_record] : bad_then_cut) {
    Trace trace = synthetic_trace(5000);
    std::vector<TraceRecord> records = trace.records();
    records[bad].size = 3;
    Trace corrupt;
    corrupt.meta() = trace.meta();
    for (const TraceRecord& r : records) corrupt.append(r);
    const std::string bytes = saved_bytes(corrupt);
    const std::size_t cut = header_bytes(corrupt) +
                            cut_record * kRecordBytes + kRecordBytes / 2;
    EXPECT_EQ(bytes_load_error(bytes.substr(0, cut)),
              "corrupt lssim trace file: record " + std::to_string(bad) +
                  " has size 3");
  }
}

TEST(Trace, LoadsMultiBlockTraceFromAStreamThatCannotSeek) {
  const Trace trace = synthetic_trace(5000);
  PipeBuf pipe(saved_bytes(trace));
  std::istream is(&pipe);
  ASSERT_EQ(is.tellg(), std::istream::pos_type(-1));  // Really unseekable.
  EXPECT_EQ(Trace::load(is), trace);
}

TEST(Trace, LoadsMultiBlockVersion1Files) {
  // 5,000 20-byte v1 records: the records span two 64 KiB blocks.
  constexpr std::uint64_t kRecords = 5000;
  std::stringstream buffer;
  buffer.write("LSTRACE1", 8);
  v1::put64(buffer, kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    v1::put64(buffer, 0x40 * i);
    v1::put64(buffer, i % 7);
    v1::put8(buffer, static_cast<std::uint8_t>(i % 4));  // node
    v1::put8(buffer, static_cast<std::uint8_t>(i % 2));  // op
    v1::put8(buffer, 8);                                 // size
    v1::put8(buffer, static_cast<std::uint8_t>(i % 3));  // tag
  }
  ASSERT_GT(buffer.str().size(), kBlockBytes);
  const Trace loaded = Trace::load(buffer);
  ASSERT_EQ(loaded.size(), kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const TraceRecord& r = loaded.records()[i];
    ASSERT_EQ(r.addr, 0x40 * i) << i;
    ASSERT_EQ(r.issue_gap, i % 7) << i;
    ASSERT_EQ(r.node, i % 4) << i;
    ASSERT_EQ(r.op, i % 2) << i;
    ASSERT_EQ(r.size, 8) << i;
    ASSERT_EQ(r.tag, i % 3) << i;
    ASSERT_EQ(r.wdata, 1u) << i;
  }
}

TEST(Trace, LoadStopsRightAfterTheLastRecord) {
  const Trace trace = synthetic_trace(5000);
  const std::string bytes = saved_bytes(trace) + "TRAILER";
  {
    std::istringstream is(bytes);
    EXPECT_EQ(Trace::load(is), trace);
    EXPECT_EQ(is.tellg(), std::istream::pos_type(bytes.size() - 7));
    std::string rest;
    is >> rest;
    EXPECT_EQ(rest, "TRAILER");
  }
  {
    PipeBuf pipe(bytes);
    std::istream is(&pipe);
    EXPECT_EQ(Trace::load(is), trace);
    std::string rest;
    is >> rest;
    EXPECT_EQ(rest, "TRAILER");
  }
}

TEST(Trace, ConfigHashIgnoresProtocolKnobs) {
  // Sweeping protocol/directory over one trace is the point of the
  // engine, so those fields must not participate in the hash.
  MachineConfig a = tiny_cfg(ProtocolKind::kBaseline);
  MachineConfig b = tiny_cfg(ProtocolKind::kLs);
  b.directory_scheme = DirectoryKind::kSparse;
  b.protocol.default_tagged = true;
  b.protocol.tag_hysteresis = 2;
  EXPECT_EQ(trace_config_hash(a), trace_config_hash(b));
}

TEST(Trace, ConfigHashCoversTimingAndGeometry) {
  const std::uint64_t base = trace_config_hash(tiny_cfg());

  MachineConfig bigger_l2 = tiny_cfg();
  bigger_l2.l2.size_bytes *= 2;
  EXPECT_NE(trace_config_hash(bigger_l2), base);

  MachineConfig slower_hop = tiny_cfg();
  slower_hop.latency.hop += 1;
  EXPECT_NE(trace_config_hash(slower_hop), base);

  MachineConfig more_nodes = tiny_cfg();
  more_nodes.num_nodes = 8;
  EXPECT_NE(trace_config_hash(more_nodes), base);
}

TEST(Trace, ConfigHashCoversTransport) {
  // Hash-schema version 1 (current) covers the coherence transport;
  // version 0 — the pre-seam schema — ignores it entirely.
  const std::uint64_t base = trace_config_hash(tiny_cfg());
  MachineConfig bus = tiny_cfg();
  bus.interconnect = InterconnectKind::kBus;
  EXPECT_NE(trace_config_hash(bus), base);
  MachineConfig rr = bus;
  rr.bus_arbitration = BusArbitration::kRoundRobin;
  EXPECT_NE(trace_config_hash(rr), trace_config_hash(bus));
  EXPECT_EQ(trace_config_hash(bus, 0), trace_config_hash(tiny_cfg(), 0));
}

TEST(Trace, HashVersionRoundTripsThroughTheFile) {
  Trace trace;
  trace.meta().config_hash = 1;
  EXPECT_EQ(trace.meta().hash_version, kTraceConfigHashVersion);
  std::stringstream buffer;
  trace.save(buffer);
  EXPECT_EQ(Trace::load(buffer).meta().hash_version,
            kTraceConfigHashVersion);
}

TEST(Trace, PreSeamCapturesOnlyReplayOnTheDirectoryNetwork) {
  // A version-0 hash cannot vouch for the transport, and such captures
  // could only have run on the directory network — replaying one on the
  // bus must be a config mismatch even though the hashed fields agree.
  Trace trace = record_pingpong();
  trace.meta().hash_version = 0;
  trace.meta().config_hash = trace_config_hash(tiny_cfg(), 0);
  EXPECT_GT(replay(trace, tiny_cfg()).accesses, 0u);
  MachineConfig bus = tiny_cfg();
  bus.interconnect = InterconnectKind::kBus;
  EXPECT_THROW((void)replay(trace, bus), TraceConfigMismatch);
}

TEST(Trace, MismatchListsBothHashes) {
  Trace trace = record_pingpong();
  trace.meta().config_hash = trace_config_hash(tiny_cfg());
  MachineConfig other = tiny_cfg();
  other.latency.hop += 1;
  try {
    (void)replay(trace, other);
    FAIL() << "expected TraceConfigMismatch";
  } catch (const TraceConfigMismatch& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find(format_config_hash(trace.meta().config_hash)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(format_config_hash(trace_config_hash(other))),
              std::string::npos)
        << what;
  }
}

TEST(Trace, RecorderComposesWithSecondObserver) {
  // Attaching an observer after the recorder (or vice versa) must not
  // silently drop either party's records — set_access_observer used to
  // replace the previous observer.
  System sys(tiny_cfg());
  Trace trace;
  TraceRecorder recorder(sys, trace);
  std::uint64_t observed = 0;
  sys.add_access_observer(
      [&observed](NodeId, const AccessRequest&, Cycles, Cycles) {
        ++observed;
      });
  build_pingpong(sys, PingPongParams{.rounds = 50, .counters = 2});
  sys.run();
  EXPECT_EQ(trace.size(), sys.stats().accesses);
  EXPECT_EQ(observed, sys.stats().accesses);
}

TEST(Trace, CaptureRejectsProcessorConsistency) {
  // PC buffered stores complete after later issues; the unsigned
  // per-node gap encoding cannot represent that, so capture must refuse
  // rather than record a corrupt stream.
  MachineConfig cfg = tiny_cfg();
  cfg.consistency = ConsistencyModel::kPc;
  EXPECT_THROW((void)capture_trace(
                   cfg,
                   [](System& sys) {
                     build_pingpong(sys,
                                    PingPongParams{.rounds = 10});
                   }),
               std::invalid_argument);
}

}  // namespace
}  // namespace lssim
