#include "nessa/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <latch>
#include <memory>

namespace nessa::util {

namespace {

thread_local bool tl_in_parallel_region = false;

/// RAII flag so nested parallel sections degrade to inline execution.
struct ParallelRegionGuard {
  bool saved = tl_in_parallel_region;
  ParallelRegionGuard() { tl_in_parallel_region = true; }
  ~ParallelRegionGuard() { tl_in_parallel_region = saved; }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  // std::function must be copyable, so the move-only packaged_task rides in
  // a shared_ptr.
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  auto future = packaged->get_future();
  {
    std::lock_guard lock(mutex_);
    tasks_.push([packaged] { (*packaged)(); });
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t grain =
      std::max<std::size_t>(1, (n + workers_.size() - 1) / workers_.size());
  parallel_for_chunked(begin, end, grain,
                       [&fn](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) fn(i);
                       });
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  const std::size_t nchunks = (n + grain - 1) / grain;
  if (nchunks <= 1 || workers_.size() <= 1 || tl_in_parallel_region) {
    // Inline path still walks chunk by chunk so chunk-indexed callers see
    // the same decomposition as the threaded path.
    for (std::size_t lo = begin; lo < end; lo += grain) {
      fn(lo, std::min(end, lo + grain));
    }
    return;
  }

  struct Control {
    explicit Control(std::ptrdiff_t chunks) : done(chunks) {}
    std::atomic<std::size_t> next{0};
    std::latch done;
    std::size_t begin = 0, end = 0, grain = 1, nchunks = 0;
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;  // the first exception any chunk threw
  };
  auto ctl = std::make_shared<Control>(static_cast<std::ptrdiff_t>(nchunks));
  ctl->begin = begin;
  ctl->end = end;
  ctl->grain = grain;
  ctl->nchunks = nchunks;
  ctl->fn = &fn;

  // Helpers drain chunks from the shared counter. `fn` stays alive until
  // the latch releases the caller, and a helper only dereferences it after
  // claiming a chunk — which implies the latch has not released yet. Every
  // claimed chunk counts down even when `fn` throws: the first exception is
  // kept for the caller, the chunks still unclaimed are skipped, and no
  // exception escapes a worker (which would terminate) or unwinds the
  // caller past the latch while helpers still hold `fn`.
  auto work = [ctl] {
    ParallelRegionGuard guard;
    for (;;) {
      const std::size_t c = ctl->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= ctl->nchunks) return;
      if (!ctl->failed.load(std::memory_order_relaxed)) {
        const std::size_t lo = ctl->begin + c * ctl->grain;
        const std::size_t hi = std::min(ctl->end, lo + ctl->grain);
        try {
          (*ctl->fn)(lo, hi);
        } catch (...) {
          std::lock_guard lock(ctl->error_mutex);
          if (!ctl->error) ctl->error = std::current_exception();
          ctl->failed.store(true, std::memory_order_relaxed);
        }
      }
      ctl->done.count_down();
    }
  };

  const std::size_t helpers = std::min(workers_.size() - 1, nchunks - 1);
  {
    std::lock_guard lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) tasks_.push(work);
  }
  if (helpers == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
  work();  // the caller claims chunks too
  ctl->done.wait();
  if (ctl->error) std::rethrow_exception(ctl->error);
}

bool ThreadPool::in_parallel_region() noexcept { return tl_in_parallel_region; }

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("NESSA_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    return std::size_t{0};
  }());
  return pool;
}

}  // namespace nessa::util
