#include "nessa/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace nessa::util {
namespace {

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.submit([&] { value = 42; }).get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++count; });
  pool.parallel_for(7, 3, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, ParallelForNonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(10, 20, [&](std::size_t i) {
    sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.submit([&] { ++count; });
    }
  }  // destructor must run remaining tasks or wait for them
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelForChunkedCoversRangeForAnyPoolSize) {
  for (const std::size_t threads : std::vector<std::size_t>{1, 2, 3, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for_chunked(0, 1000, 7,
                              [&](std::size_t lo, std::size_t hi) {
                                for (std::size_t i = lo; i < hi; ++i) {
                                  ++hits[i];
                                }
                              });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1) << "threads=" << threads;
  }
}

TEST(ThreadPool, ParallelForChunkedDecompositionIsGrainAligned) {
  // The block boundaries must depend only on (begin, end, grain), never on
  // the pool size — this is what makes chunk-indexed reductions
  // deterministic across serial and threaded runs.
  for (const std::size_t threads : std::vector<std::size_t>{1, 4}) {
    ThreadPool pool(threads);
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for_chunked(5, 100, 16,
                              [&](std::size_t lo, std::size_t hi) {
                                std::lock_guard lock(m);
                                chunks.emplace_back(lo, hi);
                              });
    std::sort(chunks.begin(), chunks.end());
    std::vector<std::pair<std::size_t, std::size_t>> expected;
    for (std::size_t lo = 5; lo < 100; lo += 16) {
      expected.emplace_back(lo, std::min<std::size_t>(100, lo + 16));
    }
    EXPECT_EQ(chunks, expected) << "threads=" << threads;
  }
}

TEST(ThreadPool, ParallelForChunkedEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for_chunked(5, 5, 4,
                            [&](std::size_t, std::size_t) { ++count; });
  pool.parallel_for_chunked(9, 2, 4,
                            [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, ParallelForChunkedNestedRunsInline) {
  ThreadPool pool(4);
  std::atomic<long> inner_total{0};
  std::atomic<bool> saw_region{false};
  pool.parallel_for_chunked(0, 4, 1, [&](std::size_t, std::size_t) {
    if (ThreadPool::in_parallel_region()) saw_region = true;
    // A nested parallel section must degrade to inline execution instead
    // of deadlocking on the already-busy workers.
    pool.parallel_for_chunked(0, 10, 2,
                              [&](std::size_t lo, std::size_t hi) {
                                inner_total += static_cast<long>(hi - lo);
                              });
  });
  EXPECT_EQ(inner_total.load(), 40);
  EXPECT_TRUE(saw_region.load());
}

/// Spin until `flag` is set (bounded, so a broken pool fails instead of
/// hanging the suite).
void wait_for(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadPool, ParallelForChunkedRethrowsHelperException) {
  // Two chunks on a two-thread pool: the caller holds its chunk until the
  // helper has thrown from the other one. The exception must reach the
  // caller instead of escaping the worker thread (std::terminate).
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> helper_threw{false};
  try {
    pool.parallel_for_chunked(0, 2, 1, [&](std::size_t, std::size_t) {
      if (std::this_thread::get_id() == caller) {
        wait_for(helper_threw);
        return;
      }
      helper_threw = true;
      throw std::runtime_error("helper chunk");
    });
    FAIL() << "expected the helper's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "helper chunk");
  }
  EXPECT_TRUE(helper_threw.load());
  // The pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for_chunked(0, 8, 1,
                            [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ParallelForChunkedCallerExceptionWaitsForHelpers) {
  // The caller's own chunk throws while a helper is still inside its chunk.
  // The call must not unwind until the helper is done with `fn` and the
  // state it captures.
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> helper_started{false};
  std::atomic<bool> helper_finished{false};
  EXPECT_THROW(
      pool.parallel_for_chunked(0, 2, 1,
                                [&](std::size_t, std::size_t) {
                                  if (std::this_thread::get_id() == caller) {
                                    wait_for(helper_started);
                                    throw std::logic_error("caller chunk");
                                  }
                                  helper_started = true;
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(50));
                                  helper_finished = true;
                                }),
      std::logic_error);
  EXPECT_TRUE(helper_finished.load());
}

TEST(ThreadPool, ParallelForChunkedSkipsChunksAfterFailure) {
  // Inline (one thread): the first throwing chunk ends the loop.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for_chunked(0, 10, 1,
                                         [&](std::size_t lo, std::size_t) {
                                           ++ran;
                                           if (lo == 3) {
                                             throw std::runtime_error("x");
                                           }
                                         }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4);
}

}  // namespace
}  // namespace nessa::util
