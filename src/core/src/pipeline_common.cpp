#include "pipeline_common.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "nessa/data/chunked.hpp"

namespace nessa::core {

void RunResult::finalize() {
  if (epochs.empty()) return;
  final_accuracy = epochs.back().test_accuracy;
  best_accuracy = 0.0;
  double frac_sum = 0.0;
  total_time = 0;
  for (const auto& e : epochs) {
    best_accuracy = std::max(best_accuracy, e.test_accuracy);
    frac_sum += e.subset_fraction;
    total_time += e.cost.total();
  }
  mean_subset_fraction = frac_sum / static_cast<double>(epochs.size());
  // Round to the nearest picosecond instead of truncating toward zero —
  // at a few epochs the truncation error is a visible fraction of a tick.
  const auto n = static_cast<SimTime>(epochs.size());
  mean_epoch_time = (total_time + n / 2) / n;
}

namespace detail {

void check_inputs(const PipelineInputs& inputs) {
  if (inputs.dataset == nullptr) {
    throw std::invalid_argument("pipeline: dataset is required");
  }
  if (inputs.train.epochs == 0 || inputs.train.batch_size == 0) {
    throw std::invalid_argument("pipeline: epochs and batch_size must be > 0");
  }
  if (inputs.info.paper_train_size == 0 ||
      inputs.info.stored_bytes_per_sample == 0) {
    throw std::invalid_argument("pipeline: paper-scale metadata is required");
  }
  if (inputs.stream != nullptr && inputs.dataset != &inputs.stream->base()) {
    throw std::invalid_argument(
        "pipeline: with a scenario stream, dataset must be &stream->base()");
  }
}

const data::Dataset& epoch_data(const PipelineInputs& inputs,
                                std::size_t epoch) {
  return inputs.stream != nullptr ? inputs.stream->at(epoch)
                                  : *inputs.dataset;
}

double selection_overlap(std::span<const std::size_t> current,
                         std::span<const std::size_t> previous) {
  if (current.empty()) return 1.0;
  std::unordered_set<std::size_t> prev(previous.begin(), previous.end());
  std::size_t shared = 0;
  for (const std::size_t idx : current) shared += prev.count(idx);
  return static_cast<double>(shared) / static_cast<double>(current.size());
}

std::vector<std::uint32_t> stream_class_mix(const PipelineInputs& inputs,
                                            std::size_t epoch) {
  std::vector<std::uint32_t> mix;
  if (inputs.stream == nullptr) return mix;
  const auto histogram = inputs.stream->class_histogram(epoch);
  mix.reserve(histogram.size());
  for (const std::size_t count : histogram) {
    mix.push_back(static_cast<std::uint32_t>(count));
  }
  return mix;
}

ChunkedScore score_pool(SelectionModel& kernel, const data::Split& split,
                        std::span<const std::size_t> pool, bool scaled,
                        std::size_t batch_size, std::size_t chunk_samples,
                        std::size_t stored_bytes_per_sample,
                        const data::ChunkIntegrity* integrity) {
  ChunkedScore out;
  if (chunk_samples == 0 || pool.empty()) {
    out.emb = kernel.score(split, pool, scaled, batch_size);
    return out;
  }

  data::SplitStore store(split, stored_bytes_per_sample);
  data::ChunkedDataset chunks(store, chunk_samples);
  if (integrity != nullptr) {
    chunks.enable_integrity(integrity->policy);
    chunks.set_corruptor(integrity->corruptor);
  }

  out.emb.losses.resize(pool.size());
  out.emb.correct.resize(pool.size());
  std::size_t classes = 0;

  // Walk the pool in EXACTLY the monolithic batch order, fetching chunks as
  // the walk crosses chunk boundaries. Batch composition must be preserved
  // — the int8 kernel quantizes activations per batch, so regrouping rows
  // by chunk would change the math. With an ascending pool (the drivers'
  // invariant) every chunk still holding pool members is fetched exactly
  // once, and fully biased-out chunks are never fetched. Rows landing in a
  // quarantined chunk are excluded (marked in out.excluded, zeros in the
  // outputs); batches form over the surviving rows, so with nothing
  // quarantined the grouping — and the math — is unchanged.
  const std::size_t dim = split.dim();
  constexpr auto kNone = static_cast<std::size_t>(-1);
  std::size_t current = kNone;  // chunk held in the one-deep window
  data::ChunkView view;
  data::Split staging;
  std::vector<float> staged;
  std::vector<std::int32_t> staged_labels;
  std::vector<std::size_t> staged_pos;  // output position per staged row
  // Rows are scored kStagedBatches whole batches at a time, so a parallel
  // kernel has batches to spread over the pool. A flush ends on a batch
  // boundary, so batch composition stays that of the monolithic scan; the
  // count is fixed (never the thread count), and it bounds staging memory.
  // flush_rows == 0: the pool is one batch, scored at the end.
  constexpr std::size_t kStagedBatches = 16;
  const std::size_t flush_rows =
      batch_size >= pool.size() ? 0 : kStagedBatches * batch_size;
  staged.reserve(std::min(kStagedBatches * batch_size, pool.size()) * dim);
  std::vector<std::size_t> local;

  const auto flush = [&] {
    const std::size_t n = staged_pos.size();
    if (n == 0) return;
    staging.features = tensor::Tensor({n, dim});
    std::copy_n(staged.data(), n * dim, staging.features.data());
    staging.labels.assign(staged_labels.begin(), staged_labels.end());
    local.resize(n);
    for (std::size_t i = 0; i < n; ++i) local[i] = i;
    QEmbeddings part = kernel.score(staging, local, scaled, batch_size);
    if (classes == 0 && part.embeddings.rank() == 2) {
      classes = part.embeddings.cols();
      out.emb.embeddings = tensor::Tensor({pool.size(), classes});
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pos = staged_pos[i];
      out.emb.losses[pos] = part.losses[i];
      out.emb.correct[pos] = part.correct[i];
      std::copy_n(part.embeddings.data() + i * classes, classes,
                  out.emb.embeddings.data() + pos * classes);
    }
    staged.clear();
    staged_labels.clear();
    staged_pos.clear();
  };

  for (std::size_t pos = 0; pos < pool.size(); ++pos) {
    const std::size_t row = pool[pos];
    const std::size_t chunk = chunks.chunk_of(row);
    if (chunk != current) {  // refetches of a revisited chunk are charged
      view = chunks.fetch(chunk);
      current = chunk;
    }
    if (view.quarantined) {
      if (out.excluded.empty()) out.excluded.assign(pool.size(), 0);
      out.excluded[pos] = 1;
      continue;
    }
    const std::size_t offset = row - view.begin;
    staged.insert(staged.end(), view.samples->features.data() + offset * dim,
                  view.samples->features.data() + (offset + 1) * dim);
    staged_labels.push_back(view.samples->labels[offset]);
    staged_pos.push_back(pos);
    if (staged_pos.size() == flush_rows) flush();
  }
  flush();
  out.chunk_fetches = chunks.fetches();
  out.integrity = chunks.integrity_stats();
  return out;
}

double scale_ratio(const PipelineInputs& inputs) {
  return static_cast<double>(inputs.info.paper_train_size) /
         static_cast<double>(inputs.dataset->train_size());
}

std::size_t paper_count(const PipelineInputs& inputs, double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  return static_cast<std::size_t>(
      std::round(fraction *
                 static_cast<double>(inputs.info.paper_train_size)));
}

std::uint64_t paper_macs_per_sample(const PipelineInputs& inputs) {
  return static_cast<std::uint64_t>(
      inputs.model.paper_gflops_per_sample * 1e9 / 2.0);
}

std::uint64_t paper_qweight_bytes(const PipelineInputs& inputs) {
  return static_cast<std::uint64_t>(inputs.model.paper_params_millions * 1e6);
}

nn::Sequential build_target_model(const PipelineInputs& inputs,
                                  util::Rng& rng) {
  if (inputs.model_factory) return inputs.model_factory(rng);
  return nn::build_model(inputs.model, inputs.dataset->feature_dim(),
                         inputs.dataset->num_classes(), rng);
}

}  // namespace detail
}  // namespace nessa::core
