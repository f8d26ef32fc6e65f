// Parallel run executor: fans independent, deterministic simulations out
// across host threads.
//
// OWNERSHIP RULE (the thread-safety contract for everything above this
// seam): each task must build its OWN System — and with it its own
// MetricsRegistry, Stats, coherence trace, event log and workload RNG
// state — and may only write to the result slot owned by its index.
// Nothing in the simulator is shared between concurrently running
// Systems: the protocol registry and name tables are immutable, and the
// library keeps no mutable globals (audited for PR 3; grep for non-const
// statics before adding one). The one piece of mutable per-thread state,
// the coroutine frame pool (sim/task.hpp), is thread_local and never
// shared. Task inputs (MachineConfig, the
// WorkloadBuilder functor) are shared read-only across tasks, so builders
// must not mutate captured state when invoked.
//
// Determinism: results are keyed by task index, never by completion
// order, so a parallel sweep yields byte-identical reports, manifests
// and traces to a serial one (wall-clock fields excepted).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace lssim {

/// Worker count for `jobs <= 0`: hardware_concurrency, at least 1.
[[nodiscard]] int default_jobs() noexcept;

/// Runs `fn(0) .. fn(count-1)`, each exactly once, across up to `jobs`
/// worker threads (`jobs <= 0` means default_jobs()). Blocks until every
/// task finished. Tasks are handed out dynamically (an atomic cursor),
/// so long runs don't serialise behind a bad static partition. With
/// `jobs == 1` or `count <= 1` everything runs inline on the caller's
/// thread. The first exception thrown by any task is rethrown here once
/// all workers have stopped.
void parallel_for_index(std::size_t count, int jobs,
                        const std::function<void(std::size_t)>& fn);

/// Maps `fn` over 0..count-1 into an index-ordered result vector.
/// `T` must be default-constructible and movable.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_map(std::size_t count, int jobs,
                                          Fn&& fn) {
  std::vector<T> results(count);
  parallel_for_index(count, jobs,
                     [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace lssim
