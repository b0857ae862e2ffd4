#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

// Counts every heap allocation in this test binary, so a test can assert that
// a code path makes none. Every replaceable non-aligned form is replaced, so
// allocation and release always pair through malloc and free.
namespace {
std::atomic<long> g_heap_allocations{0};

void* CountedAlloc(size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](size_t size) { return CountedAllocOrThrow(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void* operator new[](size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace pollux {
namespace {

TEST(ThreadPoolTest, ZeroAndOneThreadRunInline) {
  for (int n : {0, 1}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), 1) << "requested " << n;
    std::vector<std::thread::id> ran_on(3);
    pool.ParallelFor(0, 3, [&](size_t i) { ran_on[i] = std::this_thread::get_id(); });
    for (const std::thread::id& id : ran_on) {
      EXPECT_EQ(id, std::this_thread::get_id()) << "requested " << n;
    }
  }
}

TEST(ThreadPoolTest, NegativeThreadsMeansHardwareConcurrency) {
  ThreadPool pool(-1);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> runs(kCount);
    pool.ParallelFor(0, kCount, [&](size_t i) { runs[i].fetch_add(1); });
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << ", threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelForRespectsNonZeroBegin) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> runs(10);
  pool.ParallelFor(4, 10, [&](size_t i) { runs[i].fetch_add(1); });
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(runs[i].load(), i >= 4 ? 1 : 0) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndInvertedRangesAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](size_t) { ++calls; });
  pool.ParallelFor(9, 3, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForPropagatesWorkerExceptions) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.ParallelFor(0, 100,
                                  [&](size_t i) {
                                    if (i == 37) {
                                      throw std::runtime_error("index 37");
                                    }
                                    ran.fetch_add(1);
                                  }),
                 std::runtime_error)
        << "threads " << threads;
    EXPECT_LE(ran.load(), 99);
  }
}

TEST(ThreadPoolTest, ParallelForCanBeReusedAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 8, [](size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> ran{0};
  pool.ParallelFor(0, 8, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, StressTenThousandSmallTasks) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 10000;
  std::atomic<long> sum{0};
  pool.ParallelFor(0, kTasks, [&](size_t i) {
    sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
}

TEST(ThreadPoolTest, StressParallelForLargeRange) {
  ThreadPool pool(4);
  constexpr size_t kCount = 10000;
  std::vector<double> out(kCount, 0.0);
  pool.ParallelFor(0, kCount, [&](size_t i) { out[i] = static_cast<double>(i) * 0.5; });
  double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 0.5 * static_cast<double>(kCount) * (kCount - 1) / 2.0);
}

// Back-to-back calls of every width the simulator makes, interleaved. The
// counters are plain ints: each call's indexes are written by whichever
// thread claimed them, so only the pool's own fork and join order the
// writes (ThreadSanitizer checks that they do).
TEST(ThreadPoolTest, BackToBackCallsRunEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kCalls = 10000;
  const std::vector<size_t> widths = {1, 2, 40, 1000};
  std::vector<std::vector<int>> runs;
  for (size_t width : widths) {
    runs.emplace_back(width, 0);
  }
  for (int call = 0; call < kCalls; ++call) {
    for (size_t w = 0; w < widths.size(); ++w) {
      std::vector<int>& counts = runs[w];
      pool.ParallelFor(0, widths[w], [&](size_t i) { ++counts[i]; });
    }
  }
  for (size_t w = 0; w < widths.size(); ++w) {
    for (size_t i = 0; i < widths[w]; ++i) {
      ASSERT_EQ(runs[w][i], kCalls) << "width " << widths[w] << ", index " << i;
    }
  }
}

TEST(ThreadPoolTest, DestructionDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    pool.ParallelFor(0, 64, [&](size_t) { done.fetch_add(1); });
  }  // ~ThreadPool joins workers that may still be spinning.
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, DestructionWhileWorkersSpin) {
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> done{0};
    {
      ThreadPool pool(4);
      pool.ParallelFor(0, 40, [&](size_t) { done.fetch_add(1); });
    }
    ASSERT_EQ(done.load(), 40) << "round " << round;
  }
  ThreadPool never_used(4);
}

// A pool built for one call: its worker may not have started when the call
// begins, so the caller can finish the range alone and must then not wait for
// (or race with) a worker that never joined.
TEST(ThreadPoolTest, FreshPoolPerCallRunsEveryIndexExactlyOnce) {
  std::vector<int> counts(40, 0);
  for (int cycle = 0; cycle < 2000; ++cycle) {
    ThreadPool pool(2);
    pool.ParallelFor(0, counts.size(), [&](size_t i) { ++counts[i]; });
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i], 2000) << "index " << i;
  }
}

TEST(ThreadPoolTest, DestructionWhileWorkersSleep) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    pool.ParallelFor(0, 40, [&](size_t) { done.fetch_add(1); });
    // Far longer than the spin: the workers are asleep when the next call
    // wakes them, and asleep again when the pool is destroyed.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pool.ParallelFor(0, 40, [&](size_t) { done.fetch_add(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(done.load(), 80);
}

TEST(ThreadPoolTest, TwoPoolsDrivenFromTwoThreads) {
  constexpr int kCalls = 2000;
  std::vector<long> sums(2, 0);
  std::vector<std::thread> callers;
  for (size_t d = 0; d < 2; ++d) {
    callers.emplace_back([d, &sums] {
      ThreadPool pool(3);
      std::vector<long> cells(40, 0);
      for (int call = 0; call < kCalls; ++call) {
        pool.ParallelFor(0, cells.size(), [&](size_t i) { cells[i] += static_cast<long>(i); });
      }
      sums[d] = std::accumulate(cells.begin(), cells.end(), 0L);
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  for (long sum : sums) {
    EXPECT_EQ(sum, static_cast<long>(kCalls) * 40 * 39 / 2);
  }
}

TEST(ThreadPoolTest, WarmedPoolAllocatesNothingPerCall) {
  ThreadPool pool(4);
  // Warm every worker: each index waits until all four threads hold one, so
  // the caller cannot drain the range alone and every worker joins once
  // (a worker's first join builds lazily constructed statics).
  std::atomic<int> arrived{0};
  pool.ParallelFor(0, pool.num_threads(), [&](size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < pool.num_threads()) {
      std::this_thread::yield();
    }
  });
  std::vector<double> out(40, 0.0);
  const auto body = [&](size_t i) { out[i] += 1.0; };
  pool.ParallelFor(0, out.size(), body);
  const long before = g_heap_allocations.load();
  for (int call = 0; call < 1000; ++call) {
    pool.ParallelFor(0, out.size(), body);
    pool.ParallelFor(0, 1, body);
  }
  EXPECT_EQ(g_heap_allocations.load() - before, 0);
  EXPECT_EQ(out[0], 2001.0);
  EXPECT_EQ(out[39], 1001.0);
}

}  // namespace
}  // namespace pollux
