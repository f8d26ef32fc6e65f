// lssim — umbrella header for the Load-Store Coherence Protocol Simulator.
//
// Reproduction of Nilsson & Dahlgren, "Reducing Ownership Overhead for
// Load-Store Sequences in Cache-Coherent Multiprocessors", IPPS 2000.
//
// Typical use:
//   lssim::MachineConfig cfg =
//       lssim::MachineConfig::scientific_default(lssim::ProtocolKind::kLs);
//   lssim::System sys(cfg);
//   lssim::build_mp3d(sys, {});
//   sys.run();
//   lssim::RunResult r = lssim::collect(sys);
#pragma once

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "core/coherence_policy.hpp"
#include "core/directory.hpp"
#include "core/ils_predictor.hpp"
#include "core/protocol.hpp"
#include "core/protocol_registry.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "machine/processor.hpp"
#include "machine/system.hpp"
#include "mem/address_space.hpp"
#include "mem/shared_heap.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"
#include "stats/false_sharing.hpp"
#include "stats/ls_oracle.hpp"
#include "stats/report.hpp"
#include "stats/stats.hpp"
#include "sync/barrier.hpp"
#include "telemetry/coherence_trace.hpp"
#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "sync/spinlock.hpp"
#include "sync/task_queue.hpp"
#include "trace/config_hash.hpp"
#include "trace/recorder.hpp"
#include "trace/replay_compare.hpp"
#include "trace/trace.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/harness.hpp"
#include "workloads/stencil.hpp"
#include "workloads/lu.hpp"
#include "workloads/micro.hpp"
#include "workloads/mp3d.hpp"
#include "workloads/oltp.hpp"
#include "workloads/radix.hpp"
