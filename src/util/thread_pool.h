// Fixed-size fork-join pool for CPU-bound fan-out (no work stealing).
//
// PolluxSched's genetic algorithm evaluates ~population_size independent
// individuals per generation; ParallelFor() spreads such index ranges over a
// fixed set of workers (the calling thread participates, so a pool of N
// workers applies N+1 threads to a loop). Tasks must be independent: the
// pool makes no ordering guarantees beyond "every index runs exactly once
// and ParallelFor returns only after all of them finished". The first
// exception a task throws is rethrown on the calling thread.
//
// Workers persist between calls. A call publishes its body, bumps an epoch
// and claims indexes next to the workers that wake for it; idle threads spin
// about a third of a millisecond before they sleep in std::atomic::wait, so
// back-to-back calls (the GA's generations) neither allocate nor enter the
// kernel. Once the caller has drained the range it takes back the helper
// slots no worker took, so it waits only for helpers that joined. One thread
// drives a pool at a time, and a task must not call ParallelFor on the pool
// running it.
//
// Determinism contract: the pool itself introduces no randomness. Callers
// that need bit-identical results across worker counts must make each index
// self-contained (e.g. give each its own pre-forked Rng stream) — see
// GeneticOptimizer for the pattern.

#ifndef POLLUX_UTIL_THREAD_POOL_H_
#define POLLUX_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "util/function_ref.h"

namespace pollux {

class ThreadPool {
 public:
  // `num_threads` counts the calling thread: a pool constructed with 0 or 1
  // spawns no workers and runs everything inline, so `ThreadPool(n)` applies
  // exactly max(1, n) threads to a ParallelFor. Negative values mean "use
  // std::thread::hardware_concurrency()".
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total threads a ParallelFor uses (workers + the calling thread), >= 1.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(i) for every i in [begin, end), spread over the caller and up to
  // end - begin - 1 workers via an atomic index counter; blocks until the
  // whole range is done. The first exception thrown by any invocation is
  // rethrown here (remaining indexes may or may not run once one threw).
  template <typename F>
  void ParallelFor(size_t begin, size_t end, F&& fn) {
    Run(begin, end, FunctionRef<void(size_t)>(fn));
  }

 private:
  void Run(size_t begin, size_t end, FunctionRef<void(size_t)> fn);
  void WorkerLoop();
  // Claims and runs indexes of the current call until none is left.
  void Drain();

  // The current call: written before epoch_ is bumped, read by a worker
  // only after it takes one of the call's helper slots.
  FunctionRef<void(size_t)> fn_;
  size_t end_ = 0;
  std::atomic<size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  // Written once, by whoever set failed_.
  std::atomic<int> slots_{0};      // Helper slots not yet taken.
  std::atomic<uint32_t> busy_{0};  // Helpers not yet finished.
  std::atomic<uint32_t> epoch_{0};
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;  // Last: starts after what it reads.
};

}  // namespace pollux

#endif  // POLLUX_UTIL_THREAD_POOL_H_
