// Fixed-size thread pool with parallel-for helpers. Used by the tensor
// matmul, the selection engine's gain reductions, and per-class selection
// fan-out. One shared queue, no work stealing — parallel sections in NeSSA
// are coarse.
//
// Two dispatch paths:
//  - submit(): one task, one std::future. Fine for coarse fan-out.
//  - parallel_for_chunked(): contiguous [lo, hi) ranges handed out via a
//    shared atomic chunk counter and a completion latch — no per-chunk
//    packaged_task/future allocation, and the calling thread participates,
//    so it is safe (and cheap) for fine-grained inner loops.
//
// Nested parallel sections run inline: a worker that itself calls
// parallel_for/parallel_for_chunked executes the whole range on its own
// thread. The chunk decomposition is identical on the inline and threaded
// paths, so chunk-indexed reductions are deterministic either way.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace nessa::util {

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(i) for i in [begin, end) across the pool, blocking until done.
  /// Work is split into contiguous chunks, one per worker.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Run fn(lo, hi) over [begin, end) split into ceil((end-begin)/grain)
  /// contiguous chunks, blocking until all chunks complete. Chunks are
  /// claimed dynamically from a shared atomic counter (the caller claims
  /// chunks too), so large ranges load-balance across more chunks than
  /// threads without a heap allocation per chunk. The chunk boundaries
  /// depend only on (begin, end, grain) — never on the pool size or on
  /// which thread runs a chunk — so callers may index per-chunk result
  /// slots by (lo - begin) / grain and combine them in chunk order for a
  /// bit-deterministic reduction.
  ///
  /// If `fn` throws, chunks not yet started are skipped, the call still
  /// waits for every chunk in flight, and the first exception is rethrown
  /// on the calling thread.
  void parallel_for_chunked(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// True when called from inside a pool-dispatched task; nested parallel
  /// sections use this to degrade to inline execution.
  [[nodiscard]] static bool in_parallel_region() noexcept;

  /// Global pool shared by the library (lazy-initialized, never destroyed
  /// before exit). Size is hardware_concurrency unless the NESSA_THREADS
  /// environment variable overrides it at first use.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace nessa::util
