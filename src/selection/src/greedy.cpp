#include "nessa/selection/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nessa/telemetry/telemetry.hpp"
#include "nessa/util/parallel_reduce.hpp"
#include "nessa/util/thread_pool.hpp"
#include "nessa/util/timer.hpp"

namespace nessa::selection {

namespace {

/// Candidates per argmax block. Each candidate evaluation is O(n), so a
/// small grain still amortizes dispatch while keeping many chunks in
/// flight. Fixed (not thread-count-derived) for deterministic reduction.
constexpr std::size_t kCandidateGrain = 16;

GreedyResult finish(FacilityLocation::State state,
                    std::size_t gain_evaluations) {
  GreedyResult out;
  out.weights = state.medoid_weights();
  out.selected = std::move(state.selected);
  out.objective = state.value;
  out.gain_evaluations = gain_evaluations;
  telemetry::count("selection.greedy.rounds", out.selected.size());
  telemetry::count("selection.greedy.gain_evaluations", gain_evaluations);
  return out;
}

/// Per-round stopwatch -> histogram, resolved once per maximizer call.
/// Disabled telemetry makes this a null pointer and a dead branch per round.
class RoundTimer {
 public:
  RoundTimer()
      : hist_(telemetry::histogram_ptr("selection.greedy.round_seconds")) {}

  void note_round() {
    if (hist_ != nullptr) {
      hist_->record(watch_.elapsed_seconds());
      watch_.reset();
    }
  }

 private:
  telemetry::Histogram* hist_;
  util::Stopwatch watch_;
};

/// Deterministic argmax of marginal gains over candidates [0, n) that pass
/// `eligible`, evaluated in blocks (parallel when asked). Equivalent to an
/// ascending serial scan with strict-improvement updates: ties go to the
/// smallest index.
template <typename Eligible>
util::BestGain best_candidate(const FacilityLocation& fl,
                              const FacilityLocation::State& state,
                              std::size_t n, bool parallel,
                              const Eligible& eligible) {
  // Past the tiling threshold, whole candidate blocks are evaluated in one
  // column-tiled pass (see FacilityLocation::marginal_gains). The gains are
  // bit-identical to the per-candidate path, so the argmax and its
  // tie-breaks are unchanged; ineligible candidates cost an extra row scan
  // per block, which the shared coverage tiles more than repay.
  const bool batched = n >= FacilityLocation::kTiledThreshold;
  return util::chunked_reduce(
      n, kCandidateGrain, parallel, util::BestGain{},
      [&](std::size_t lo, std::size_t hi) {
        util::BestGain best;
        if (batched) {
          double gains[kCandidateGrain];
          fl.marginal_gains(state, lo, hi, gains);
          for (std::size_t j = lo; j < hi; ++j) {
            if (!eligible(j)) continue;
            best = util::better_gain(best, {gains[j - lo], j});
          }
          return best;
        }
        for (std::size_t j = lo; j < hi; ++j) {
          if (!eligible(j)) continue;
          best = util::better_gain(best, {fl.marginal_gain(state, j), j});
        }
        return best;
      },
      util::better_gain);
}

/// A lazy-greedy heap entry: a marginal gain computed when |S| was `stamp`.
struct HeapEntry {
  double gain;
  std::size_t index;
  std::size_t stamp;
};

/// Heap comparator: a ranks below b (smaller gain; on equal gains, the
/// larger index, so ties go to the smaller one).
bool lower_priority(const HeapEntry& a, const HeapEntry& b) {
  if (a.gain != b.gain) return a.gain < b.gain;
  return a.index > b.index;
}

/// The higher-priority child of heap position `pos`, or heap.size() if it
/// has none.
std::size_t larger_child(const std::vector<HeapEntry>& heap,
                         std::size_t pos) {
  const std::size_t left = 2 * pos + 1;
  if (left >= heap.size()) return heap.size();
  const std::size_t right = left + 1;
  return right < heap.size() && lower_priority(heap[left], heap[right])
             ? right
             : left;
}

/// Restore the heap after its root lost priority.
void sift_down(std::vector<HeapEntry>& heap) {
  if (heap.empty()) return;
  const HeapEntry moving = heap[0];
  std::size_t pos = 0;
  for (;;) {
    const std::size_t child = larger_child(heap, pos);
    if (child >= heap.size() || !lower_priority(moving, heap[child])) break;
    heap[pos] = heap[child];
    pos = child;
  }
  heap[pos] = moving;
}

}  // namespace

GreedyResult naive_greedy(const FacilityLocation& fl, std::size_t k,
                          util::Parallelism parallelism) {
  const bool parallel = parallelism.enabled;
  const std::size_t n = fl.ground_size();
  k = std::min(k, n);
  auto state = fl.empty_state();
  std::vector<bool> in_set(n, false);
  std::size_t evals = 0;
  RoundTimer rounds;
  for (std::size_t step = 0; step < k; ++step) {
    const auto best = best_candidate(
        fl, state, n, parallel, [&](std::size_t j) { return !in_set[j]; });
    evals += n - step;
    if (best.index >= n) break;
    fl.add(state, best.index);
    in_set[best.index] = true;
    rounds.note_round();
  }
  return finish(std::move(state), evals);
}

GreedyResult lazy_greedy(const FacilityLocation& fl, std::size_t k,
                         util::Parallelism parallelism) {
  const bool parallel = parallelism.enabled;
  const std::size_t n = fl.ground_size();
  k = std::min(k, n);
  auto state = fl.empty_state();
  std::size_t evals = 0;

  // One flat max-heap of (possibly stale) gains. Indices are unique, so
  // (gain, then smaller index) is a total order: the root, and the larger
  // of its children, are the same whatever the heap's layout.
  std::vector<HeapEntry> heap(n);
  {
    // Initial gains are independent of each other — evaluate as one batch.
    auto& pool = util::ThreadPool::global();
    const auto fill = [&](std::size_t lo, std::size_t hi) {
      // Batched evaluation (tiled for large n); sub-blocked because the
      // serial path passes the whole range at once.
      double gains[kCandidateGrain];
      for (std::size_t b = lo; b < hi; b += kCandidateGrain) {
        const std::size_t e = std::min(hi, b + kCandidateGrain);
        fl.marginal_gains(state, b, e, gains);
        for (std::size_t j = b; j < e; ++j) heap[j] = {gains[j - b], j, 0};
      }
    };
    if (parallel && pool.size() > 1) {
      pool.parallel_for_chunked(0, n, kCandidateGrain, fill);
    } else {
      fill(0, n);
    }
    std::make_heap(heap.begin(), heap.end(), lower_priority);
    evals += n;
  }

  RoundTimer rounds;
  const auto select_root = [&] {
    fl.add(state, heap[0].index);
    heap[0] = heap.back();
    heap.pop_back();
    sift_down(heap);
    rounds.note_round();
  };
  if (!parallel) {
    // CELF: re-evaluate a stale root in place. If its fresh gain still
    // beats the larger child (the best of the rest), submodularity makes
    // it this round's argmax; otherwise it sinks and the child, whose row
    // was prefetched during the evaluation, becomes the next root.
    while (state.selected.size() < k && !heap.empty()) {
      HeapEntry& top = heap[0];
      if (top.stamp != state.selected.size()) {
        const std::size_t child = larger_child(heap, 0);
        const bool has_child = child < heap.size();
        top.gain = fl.marginal_gain(state, top.index,
                                    has_child ? heap[child].index : top.index);
        ++evals;
        top.stamp = state.selected.size();
        if (has_child && lower_priority(top, heap[child])) {
          sift_down(heap);
          continue;
        }
      }
      select_root();
    }
    return finish(std::move(state), evals);
  }

  // Parallel mode pulls up to kCandidateGrain stale entries per round and
  // re-evaluates them together; their refreshed (exact) gains re-enter the
  // heap, so the fresh root is the true argmax — the selected sequence
  // matches the serial path bit for bit, only the evaluation count
  // differs. The batch is fixed, so that count is the same for any pool
  // size.
  std::vector<HeapEntry> stale;
  while (state.selected.size() < k && !heap.empty()) {
    if (heap[0].stamp == state.selected.size()) {
      select_root();
      continue;
    }
    stale.clear();
    while (stale.size() < kCandidateGrain && !heap.empty() &&
           heap[0].stamp != state.selected.size()) {
      std::pop_heap(heap.begin(), heap.end(), lower_priority);
      stale.push_back(heap.back());
      heap.pop_back();
    }
    auto& pool = util::ThreadPool::global();
    const auto refresh = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t b = lo; b < hi; ++b) {
        stale[b].gain = fl.marginal_gain(state, stale[b].index);
        stale[b].stamp = state.selected.size();
      }
    };
    if (pool.size() > 1 && stale.size() > 1) {
      pool.parallel_for_chunked(0, stale.size(), 1, refresh);
    } else {
      refresh(0, stale.size());
    }
    evals += stale.size();
    for (const auto& e : stale) {
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end(), lower_priority);
    }
  }
  return finish(std::move(state), evals);
}

GreedyResult stochastic_greedy(const FacilityLocation& fl, std::size_t k,
                               util::Rng& rng, double epsilon,
                               util::Parallelism parallelism) {
  const bool parallel = parallelism.enabled;
  const std::size_t n = fl.ground_size();
  k = std::min(k, n);
  if (k == 0) return finish(fl.empty_state(), 0);
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    throw std::invalid_argument("stochastic_greedy: epsilon must be in (0,1)");
  }
  const double raw =
      std::ceil(static_cast<double>(n) / static_cast<double>(k) *
                std::log(1.0 / epsilon));
  const std::size_t sample_size =
      std::min<std::size_t>(n, std::max<std::size_t>(1, static_cast<std::size_t>(raw)));

  auto state = fl.empty_state();
  std::size_t evals = 0;
  RoundTimer rounds;
  // Not-yet-selected candidates, kept compact as elements are chosen.
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;

  for (std::size_t step = 0; step < k; ++step) {
    // Sample from the not-yet-selected pool (kept compact as we select).
    const std::size_t available = pool.size();
    if (available == 0) break;
    const std::size_t draw = std::min(sample_size, available);
    // Partial Fisher-Yates: move `draw` random candidates to the front.
    for (std::size_t i = 0; i < draw; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.uniform_int(available - i));
      std::swap(pool[i], pool[j]);
    }
    // Argmax over sample positions: ties break toward the earlier draw,
    // matching the serial ascending scan.
    const auto best = util::chunked_reduce(
        draw, kCandidateGrain, parallel, util::BestGain{},
        [&](std::size_t lo, std::size_t hi) {
          util::BestGain blk;
          for (std::size_t i = lo; i < hi; ++i) {
            blk = util::better_gain(blk, {fl.marginal_gain(state, pool[i]), i});
          }
          return blk;
        },
        util::better_gain);
    evals += draw;
    if (best.index >= available) break;
    fl.add(state, pool[best.index]);
    pool[best.index] = pool.back();
    pool.pop_back();
    rounds.note_round();
  }
  return finish(std::move(state), evals);
}

}  // namespace nessa::selection
