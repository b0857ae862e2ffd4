#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pollux {
namespace {

struct PoolMetrics {
  obs::Counter* tasks;
  obs::Histogram* task_latency_s;

  static const PoolMetrics& Get() {
    static const PoolMetrics metrics;
    return metrics;
  }

 private:
  PoolMetrics() {
    auto& registry = obs::MetricsRegistry::Global();
    tasks = registry.GetCounter("threadpool.tasks");
    task_latency_s = registry.GetHistogram("threadpool.task_latency_s");
  }
};

// An idle thread spins this many pause instructions (about a third of a
// millisecond at ~22 ns each, longer than the serial gap between two GA
// generations) before it sleeps.
constexpr int kSpinPauses = 16384;

// Spins, then sleeps, until `word` no longer holds `value`; returns the new
// value.
template <typename T>
T AwaitChange(const std::atomic<T>& word, T value) {
  for (int i = 0; i < kSpinPauses; ++i) {
    if (const T now = word.load(std::memory_order_acquire); now != value) {
      return now;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  word.wait(value, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  const int workers = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  uint32_t seen = 0;
  for (;;) {
    seen = AwaitChange(epoch_, seen);
    if (stopping_.load(std::memory_order_acquire)) {
      return;
    }
    // A worker that saw an older epoch may take a slot of the current call;
    // that is fine, since a taken slot is all a helper needs to join it.
    if (slots_.fetch_sub(1, std::memory_order_acq_rel) <= 0) {
      continue;
    }
    if (obs::MetricsRegistry::Global().enabled()) {
      const PoolMetrics& metrics = PoolMetrics::Get();
      metrics.tasks->Add();
      TRACE_SCOPE("pool_task");
      const auto start = std::chrono::steady_clock::now();
      Drain();
      metrics.task_latency_s->Record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    } else {
      Drain();
    }
    if (busy_.fetch_sub(1, std::memory_order_release) == 1) {
      busy_.notify_one();
    }
  }
}

void ThreadPool::Drain() {
  // One shared claim counter; each thread pulls the next unclaimed index
  // until the range is exhausted. Dynamic claiming keeps threads busy when
  // per-index cost is uneven (e.g. GA repair loops).
  for (;;) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end_ || failed_.load(std::memory_order_relaxed)) {
      return;
    }
    try {
      fn_(i);
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_relaxed)) {
        error_ = std::current_exception();
      }
      return;
    }
  }
}

void ThreadPool::Run(size_t begin, size_t end, FunctionRef<void(size_t)> fn) {
  if (begin >= end) {
    return;
  }
  const size_t count = end - begin;
  if (workers_.empty() || count == 1) {
    for (size_t i = begin; i < end; ++i) {
      fn(i);
    }
    return;
  }

  // Never recruit more helpers than indexes beyond the caller's first.
  const size_t helpers = std::min(workers_.size(), count - 1);
  fn_ = fn;
  end_ = end;
  next_.store(begin, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  busy_.store(static_cast<uint32_t>(helpers), std::memory_order_relaxed);
  slots_.store(static_cast<int>(helpers), std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();

  Drain();
  // Take back the slots no helper has taken: the range is done, so the
  // caller waits only for helpers that joined, not for a worker still
  // starting up or descheduled. A late worker then finds no slot.
  if (const int untaken = slots_.exchange(0, std::memory_order_acq_rel); untaken > 0) {
    busy_.fetch_sub(static_cast<uint32_t>(untaken), std::memory_order_relaxed);
  }
  for (uint32_t busy = busy_.load(std::memory_order_acquire); busy != 0;
       busy = AwaitChange(busy_, busy)) {
  }
  if (failed_.load(std::memory_order_relaxed)) {
    std::rethrow_exception(std::exchange(error_, nullptr));
  }
}

}  // namespace pollux
