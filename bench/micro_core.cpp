// Core-structure microbenchmarks (google-benchmark): throughput of the
// simulator's hot paths — cache lookup, directory access, full protocol
// transactions, network sends, the coroutine scheduler, nested-task
// calls, machine construction, barrier spin episodes and simulated
// memory's data path — of the bulk telemetry exporters, of the trace file
// codec and of trace replay.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "lssim.hpp"
#include "telemetry/audit.hpp"

namespace {

using namespace lssim;

void BM_CacheLookupHit(benchmark::State& state) {
  Cache cache(CacheConfig{64 * 1024, 2, 32});
  for (Addr b = 0; b < 64 * 1024; b += 32) {
    (void)cache.insert(b, CacheState::kShared);
  }
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find(addr & ~Addr{31}));
    addr += 32;
    if (addr >= 32 * 1024) addr = 0;
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheInsertEvict(benchmark::State& state) {
  Cache cache(CacheConfig{4 * 1024, 1, 16});
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.insert(addr, CacheState::kShared));
    addr += 16;
  }
}
BENCHMARK(BM_CacheInsertEvict);

void BM_DirectoryEntry(benchmark::State& state) {
  Directory dir;
  Addr block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.entry(block & 0xffff0));
    block += 16;
  }
}
BENCHMARK(BM_DirectoryEntry);

void BM_NetworkSend(benchmark::State& state) {
  Stats stats(4);
  Network net(4, LatencyConfig{}, stats);
  Cycles now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.send(0, 1, MsgType::kReadReq, now));
    now += 50;
  }
}
BENCHMARK(BM_NetworkSend);

void BM_ProtocolL1Hit(benchmark::State& state) {
  MachineConfig cfg = MachineConfig::scientific_default();
  AddressSpace space(cfg.num_nodes, cfg.page_bytes);
  Stats stats(cfg.num_nodes);
  MemorySystem ms(cfg, space, stats);
  AccessRequest req;
  req.op = MemOpKind::kRead;
  req.addr = 64;
  req.size = 4;
  Cycles now = 0;
  (void)ms.access(0, req, now);
  for (auto _ : state) {
    now += 10;
    benchmark::DoNotOptimize(ms.access(0, req, now));
  }
}
BENCHMARK(BM_ProtocolL1Hit);

void BM_ProtocolMigratoryRmw(benchmark::State& state) {
  MachineConfig cfg = MachineConfig::scientific_default(ProtocolKind::kLs);
  AddressSpace space(cfg.num_nodes, cfg.page_bytes);
  Stats stats(cfg.num_nodes);
  MemorySystem ms(cfg, space, stats);
  Cycles now = 0;
  NodeId node = 0;
  for (auto _ : state) {
    AccessRequest req;
    req.addr = 128;
    req.size = 8;
    req.op = MemOpKind::kRead;
    now += 1000;
    (void)ms.access(node, req, now);
    req.op = MemOpKind::kWrite;
    now += 1000;
    benchmark::DoNotOptimize(ms.access(node, req, now));
    node = static_cast<NodeId>((node + 1) & 3);
  }
}
BENCHMARK(BM_ProtocolMigratoryRmw);

void BM_SchedulerPingPong(benchmark::State& state) {
  // Whole-stack throughput: accesses per second through coroutines,
  // scheduler, protocol and stats.
  for (auto _ : state) {
    MachineConfig cfg = MachineConfig::scientific_default(ProtocolKind::kLs);
    System sys(cfg);
    build_pingpong(sys, PingPongParams{.rounds = 500, .counters = 2});
    sys.run();
    benchmark::DoNotOptimize(sys.exec_time());
  }
  state.SetItemsProcessed(state.iterations() * 500 * 2 * 4 * 2);
}
BENCHMARK(BM_SchedulerPingPong)->Unit(benchmark::kMillisecond);

SimTask<void> spin_private(System& sys, NodeId id, Addr addr, int reads) {
  Processor& proc = sys.proc(id);
  for (int i = 0; i < reads; ++i) {
    (void)co_await proc.read(addr);
  }
}

SimTask<std::uint64_t> nested_read(Processor& proc, Addr addr) {
  co_return co_await proc.read(addr);
}

SimTask<void> spin_private_nested(System& sys, NodeId id, Addr addr,
                                  int reads) {
  Processor& proc = sys.proc(id);
  for (int i = 0; i < reads; ++i) {
    (void)co_await nested_read(proc, addr);
  }
}

using SpinProgram = SimTask<void> (*)(System&, NodeId, Addr, int);

// Every one of `nodes` nodes runs `program` over its own L1-resident
// word; reports host time per issued access. Machine construction and
// teardown are untimed.
void time_private_spins(benchmark::State& state, int nodes,
                        SpinProgram program) {
  constexpr int kReads = 2000;
  MachineConfig cfg =
      MachineConfig::scientific_default(ProtocolKind::kLs, nodes);
  if (nodes > kFullMapNodes) {
    cfg.directory_scheme = DirectoryKind::kLimitedPtr;
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto sys = std::make_unique<System>(cfg);
    for (int n = 0; n < nodes; ++n) {
      const auto id = static_cast<NodeId>(n);
      const Addr word = sys->heap().alloc(64, 64);
      sys->spawn(id, program(*sys, id, word, kReads));
    }
    state.ResumeTiming();
    sys->run();
    benchmark::DoNotOptimize(sys->exec_time());
    state.PauseTiming();
    sys.reset();
    state.ResumeTiming();
  }
  const double accesses =
      static_cast<double>(state.iterations()) * nodes * kReads;
  // Seconds per issued access, printed with an SI prefix (e.g. 45n).
  state.counters["per_access"] = benchmark::Counter(
      accesses, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_SchedulerStep(benchmark::State& state) {
  // One issue step at N nodes: every node spins on its own L1-resident
  // word, so the time per access is issue selection, coroutine resume and
  // an L1 hit.
  time_private_spins(state, static_cast<int>(state.range(0)), spin_private);
}
BENCHMARK(BM_SchedulerStep)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_NestedTaskAccess(benchmark::State& state) {
  // BM_SchedulerStep/4 with every access made through one nested SimTask,
  // like OLTP's lock calls: the difference between the two is the cost
  // of creating, entering and destroying a child coroutine frame.
  time_private_spins(state, 4, spin_private_nested);
}
BENCHMARK(BM_NestedTaskAccess)->Unit(benchmark::kMillisecond);

void BM_MachineConstruct(benchmark::State& state) {
  // Building the 128-node scientific machine (limited-ptr, LS): per-node
  // caches, directories and network state, before any workload runs.
  // Teardown is untimed.
  constexpr int kNodes = 128;
  MachineConfig cfg =
      MachineConfig::scientific_default(ProtocolKind::kLs, kNodes);
  cfg.directory_scheme = DirectoryKind::kLimitedPtr;
  for (auto _ : state) {
    auto sys = std::make_unique<System>(cfg);
    benchmark::DoNotOptimize(sys.get());
    state.PauseTiming();
    sys.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_MachineConstruct)->Unit(benchmark::kMicrosecond);

SimTask<void> barrier_episodes(System& sys, NodeId id, Barrier& barrier,
                               int episodes) {
  Processor& proc = sys.proc(id);
  for (int e = 0; e < episodes; ++e) {
    // Staggered arrivals: early arrivers spin on the sense flag while
    // the late ones work.
    proc.compute(100 + 400 * static_cast<Cycles>((id * 7 + e) % 8));
    co_await barrier.wait(proc);
  }
}

void BM_BarrierEpisode(benchmark::State& state) {
  // Repeated Barrier::wait episodes at N nodes: mostly sense-flag spin
  // probes, the access mix behind stencil's cost at 128 nodes. Reports
  // simulated accesses (probes included) per host second; machine
  // construction is untimed.
  const int nodes = static_cast<int>(state.range(0));
  constexpr int kEpisodes = 40;
  MachineConfig cfg =
      MachineConfig::scientific_default(ProtocolKind::kLs, nodes);
  if (nodes > kFullMapNodes) {
    cfg.directory_scheme = DirectoryKind::kLimitedPtr;
  }
  double accesses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sys = std::make_unique<System>(cfg);
    Barrier barrier(sys->heap(), nodes);
    for (int n = 0; n < nodes; ++n) {
      const auto id = static_cast<NodeId>(n);
      sys->spawn(id, barrier_episodes(*sys, id, barrier, kEpisodes));
    }
    state.ResumeTiming();
    sys->run();
    state.PauseTiming();
    accesses += static_cast<double>(sys->stats().accesses);
    sys.reset();
    state.ResumeTiming();
  }
  state.counters["accesses_per_s"] =
      benchmark::Counter(accesses, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BarrierEpisode)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Simulated memory's data path: 8-byte stores to `words`, then loads of
// the same words, starting from an empty space each iteration so chunk
// materialisation and table growth are timed too. Reports host time per
// access.
void run_address_space(benchmark::State& state,
                       const std::vector<Addr>& words) {
  for (auto _ : state) {
    AddressSpace space(4, 4096);
    for (const Addr a : words) space.store(a, 8, a);
    std::uint64_t sum = 0;
    for (const Addr a : words) sum += space.load(a, 8);
    benchmark::DoNotOptimize(sum);
  }
  state.counters["per_access"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 *
          static_cast<double>(words.size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_AddressSpaceSparse(benchmark::State& state) {
  // OLTP's account table: random words over a 16 MiB span at the global
  // arena, most of them in a chunk of their own.
  constexpr Addr kArena = Addr{1} << 40;
  std::vector<Addr> words(1 << 16);
  Rng rng(1);
  for (Addr& a : words) a = kArena + rng.next_below(Addr{16} << 20) / 8 * 8;
  run_address_space(state, words);
}
BENCHMARK(BM_AddressSpaceSparse)->Unit(benchmark::kMillisecond);

void BM_AddressSpaceDense(benchmark::State& state) {
  // LU's matrix: every word of a 512 KiB span, in order.
  std::vector<Addr> words(Addr{512} << 10 >> 3);
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = Addr{8} * i;
  run_address_space(state, words);
}
BENCHMARK(BM_AddressSpaceDense)->Unit(benchmark::kMillisecond);

void BM_WordMask(benchmark::State& state) {
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(word_mask_of(addr, 8, 256, 4));
    addr = (addr + 12) & 255;
  }
}
BENCHMARK(BM_WordMask);

// Collects an exporter's output in one string whose capacity is reused
// across iterations, so only the serialisation is timed.
class StringSink : public std::streambuf {
 public:
  std::string text;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      text.push_back(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
};

// ns per exported event and output bytes per second.
void report_export(benchmark::State& state, std::size_t events,
                   std::size_t bytes) {
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

void BM_ExportChromeTrace(benchmark::State& state) {
  // 28k events over 4 nodes, about the size of perfbench's
  // oltp4_observed trace: 3 spans per instant, ascending cycles.
  constexpr std::size_t kEvents = 28000;
  CoherenceTrace trace(kEvents);
  Rng rng(1);
  Cycles now = 0;
  for (std::size_t i = 0; i < kEvents; ++i) {
    const auto node = static_cast<NodeId>(rng.next_below(4));
    const Addr block = rng.next_below(1 << 19) * 32;
    now += rng.next_below(100);
    if (i % 4 == 3) {
      trace.instant(node, ProtoEventKind::kTag, block, now);
    } else {
      trace.span(node, ProtoEventKind::kReadMiss, block, now,
                 now + 200 + rng.next_below(400));
    }
  }
  const std::vector<TraceProcess> processes = {
      TraceProcess{"LS", &trace, nullptr}};
  StringSink sink;
  std::ostream os(&sink);
  for (auto _ : state) {
    sink.text.clear();
    write_chrome_trace(os, processes);
    benchmark::DoNotOptimize(sink.text.data());
    benchmark::ClobberMemory();
  }
  report_export(state, kEvents, sink.text.size());
}
BENCHMARK(BM_ExportChromeTrace)->Unit(benchmark::kMillisecond);

void BM_ExportAuditJsonl(benchmark::State& state) {
  // 4k tag-decision records, about perfbench's oltp4_observed trail.
  constexpr std::size_t kRecords = 4000;
  TagAuditLog log(kRecords);
  Rng rng(2);
  Cycles now = 0;
  for (std::size_t i = 0; i < kRecords; ++i) {
    now += rng.next_below(200);
    const bool tag = rng.next_bool(0.75);
    log.record({.time = now,
                .block = rng.next_below(1 << 19) * 32,
                .node = static_cast<NodeId>(rng.next_below(4)),
                .kind = tag ? ProtoEventKind::kTag : ProtoEventKind::kDetag,
                .tagged = tag,
                .reason = tag ? TagReason::kLsSequence
                              : TagReason::kForeignAccess});
  }
  StringSink sink;
  std::ostream os(&sink);
  for (auto _ : state) {
    sink.text.clear();
    write_audit_jsonl(os, log, "LS");
    benchmark::DoNotOptimize(sink.text.data());
    benchmark::ClobberMemory();
  }
  report_export(state, kRecords, sink.text.size());
}
BENCHMARK(BM_ExportAuditJsonl)->Unit(benchmark::kMillisecond);

// 64k in-range records, about perfbench's replay_oltp capture (69.6k).
Trace synthetic_trace() {
  constexpr std::size_t kRecords = 1 << 16;
  Trace trace;
  trace.meta().workload = "oltp";
  trace.meta().final_gaps.assign(4, 10);
  Rng rng(3);
  for (std::size_t i = 0; i < kRecords; ++i) {
    TraceRecord r;
    r.addr = rng.next_below(1 << 22) * 8;
    r.issue_gap = rng.next_below(50);
    r.wdata = rng.next();
    r.site = static_cast<std::uint32_t>(rng.next());
    r.node = static_cast<NodeId>(rng.next_below(4));
    r.op = static_cast<std::uint8_t>(rng.next_below(2));
    r.size = 8;
    trace.append(r);
  }
  return trace;
}

// ns per record.
void report_records(benchmark::State& state, std::size_t records) {
  state.counters["per_record"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(records),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_TraceSave(benchmark::State& state) {
  const Trace trace = synthetic_trace();
  StringSink sink;
  std::ostream os(&sink);
  for (auto _ : state) {
    sink.text.clear();
    trace.save(os);
    benchmark::DoNotOptimize(sink.text.data());
    benchmark::ClobberMemory();
  }
  report_records(state, trace.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sink.text.size()));
}
BENCHMARK(BM_TraceSave)->Unit(benchmark::kMillisecond);

void BM_TraceLoad(benchmark::State& state) {
  const Trace trace = synthetic_trace();
  std::ostringstream saved;
  trace.save(saved);
  std::string bytes = std::move(saved).str();
  const std::size_t size = bytes.size();
  for (auto _ : state) {
    // The stream takes the bytes and hands them back: no copy is timed.
    std::istringstream source(std::move(bytes));
    const Trace loaded = Trace::load(source);
    benchmark::DoNotOptimize(loaded.records().data());
    bytes = std::move(source).str();
  }
  report_records(state, trace.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_TraceLoad)->Unit(benchmark::kMillisecond);

SimTask<void> lock_handoffs(System& sys, NodeId id, SpinLock lock,
                            Addr counter, int rounds) {
  Processor& proc = sys.proc(id);
  for (int r = 0; r < rounds; ++r) {
    co_await lock.acquire(proc);
    const std::uint64_t value = co_await proc.read(counter);
    co_await proc.write(counter, value + 1);
    proc.compute(1000);
    co_await lock.release(proc);
    proc.compute(50);
  }
}

void BM_ReplaySpinRun(benchmark::State& state) {
  // Trace replay of 8 nodes handing one SpinLock around, under LS: about
  // two thirds of the records are the waiters' test-loop probes, whose
  // runs replay accounts in bulk until the holder's release wakes them
  // (spin parking). Capture and engine construction are untimed; reports
  // host time per replayed access.
  constexpr int kNodes = 8;
  const MachineConfig cfg =
      MachineConfig::scientific_default(ProtocolKind::kLs, kNodes);
  const CapturedTrace captured = capture_trace(cfg, [](System& sys) {
    const SpinLock lock(sys.heap());
    const Addr counter = sys.heap().alloc(8, 64);
    for (int n = 0; n < sys.num_procs(); ++n) {
      const auto id = static_cast<NodeId>(n);
      sys.spawn(id, lock_handoffs(sys, id, lock, counter, 40));
    }
  });
  const ReplayCompareEngine engine(captured.trace, cfg);
  double accesses = 0;
  for (auto _ : state) {
    const RunResult replayed = engine.replay(ProtocolKind::kLs);
    benchmark::DoNotOptimize(replayed.exec_time);
    accesses += static_cast<double>(replayed.accesses);
  }
  state.counters["per_access"] = benchmark::Counter(
      accesses, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ReplaySpinRun)->Unit(benchmark::kMillisecond);

}  // namespace
