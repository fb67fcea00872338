// CPU-side selection baselines: CRAIG [20], K-centers [17], and uniform
// random. All three train the same substrate model as NeSSA; the difference
// is where and how the subset is chosen, and what that costs at paper scale:
//  - CRAIG streams the full dataset to the host every epoch, runs a float
//    embedding pass on the GPU, then a per-class (unpartitioned) lazy-greedy
//    facility location on the CPU, and trains with gamma-weighted SGD.
//  - K-centers streams the full dataset to the host, extracts penultimate
//    features on the GPU, and runs greedy farthest-first on the CPU — whose
//    O(n k d_feat) distance work at paper scale is what makes it the slowest
//    system in Fig. 4.
//  - Random needs no scan at all; it reads just the sampled subset.
#include <algorithm>
#include <cmath>

#include "nessa/core/pipeline.hpp"
#include "nessa/core/train_utils.hpp"
#include "nessa/fault/crash.hpp"
#include "nessa/nn/embedding.hpp"
#include "nessa/nn/metrics.hpp"
#include "nessa/nn/optimizer.hpp"
#include "nessa/selection/baselines.hpp"
#include "nessa/selection/drivers.hpp"
#include "nessa/selection/kcenter.hpp"
#include "pipeline_common.hpp"
#include "trainer_ckpt.hpp"

namespace nessa::core {

namespace {

/// Penultimate feature width of the paper network (ResNet global-average-
/// pool output); drives the K-centers CPU distance cost at paper scale.
std::size_t paper_feature_dim(const nn::ModelSpec& spec) {
  if (spec.paper_name == "ResNet-50") return 2048;
  if (spec.paper_name == "ResNet-18") return 512;
  return 64;  // ResNet-20
}

struct CommonState {
  nn::Sequential model;
  nn::Sgd sgd;
  nn::StepLrSchedule schedule;
  util::Rng rng;
};

CommonState make_state(const PipelineInputs& inputs) {
  util::Rng rng(inputs.train.seed);
  auto model = detail::build_target_model(inputs, rng);
  return CommonState{
      std::move(model), nn::Sgd(inputs.train.sgd),
      inputs.train.scale_lr_schedule
          ? nn::StepLrSchedule::paper_scaled(inputs.train.epochs)
          : nn::StepLrSchedule::paper_default(),
      std::move(rng)};
}

}  // namespace

RunResult run_craig(const PipelineInputs& inputs, double subset_fraction,
                    smartssd::SmartSsdSystem& system) {
  detail::check_inputs(inputs);
  const data::Dataset& ds = *inputs.dataset;
  const std::size_t n = ds.train_size();
  auto st = make_state(inputs);
  auto perf = make_performance_model(inputs.perf_model);

  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(subset_fraction *
                                             static_cast<double>(n))));
  const std::uint64_t sample_bytes = inputs.info.stored_bytes_per_sample;
  const std::size_t paper_n = inputs.info.paper_train_size;
  const std::size_t paper_k = detail::paper_count(inputs, subset_fraction);
  const double ratio = detail::scale_ratio(inputs);

  // The driver stays serial on purpose: a pooled driver fans classes out
  // (one n x n similarity matrix live per worker) and switches lazy greedy
  // to batched refreshes, whose extra gain evaluations would change the
  // priced selection cost.
  selection::DriverConfig driver;
  driver.greedy = selection::GreedyKind::kLazy;
  driver.per_class = true;
  driver.partition_quota = 0;  // CRAIG selects over whole classes

  const auto all = iota_indices(n);

  RunResult result;
  std::vector<std::size_t> prev_subset;
  detail::CommonCheckpointHook ckpt(inputs, "craig", subset_fraction, st.rng,
                                    st.model, st.sgd, result, &prev_subset);
  for (std::size_t epoch = ckpt.start_epoch(); epoch < inputs.train.epochs;
       ++epoch) {
    fault::maybe_crash(inputs.fault_plan, epoch, ckpt.sim_elapsed());
    st.sgd.set_learning_rate(st.schedule.lr_at(epoch));
    driver.seed = inputs.train.seed * 104729 + epoch;
    const data::Dataset& eds = detail::epoch_data(inputs, epoch);

    // Float gradient embeddings over the full dataset (GPU inference).
    auto emb = nn::compute_embeddings(st.model, eds.train().features,
                                      eds.train().labels,
                                      nn::EmbeddingKind::kLogitGrad);
    std::vector<std::int32_t> labels(eds.train().labels.begin(),
                                     eds.train().labels.end());
    auto coreset =
        selection::select_coreset(emb.embeddings, labels, all, k, driver);

    std::vector<double> weights(coreset.weights.begin(),
                                coreset.weights.end());
    EpochReport report;
    report.epoch = epoch;
    report.subset_size = coreset.indices.size();
    report.pool_size = n;
    report.subset_fraction =
        static_cast<double>(coreset.indices.size()) / static_cast<double>(n);
    report.selection_overlap =
        prev_subset.empty()
            ? 1.0
            : detail::selection_overlap(coreset.indices, prev_subset);
    report.class_mix = detail::stream_class_mix(inputs, epoch);
    report.train_loss =
        train_one_epoch(st.model, st.sgd, eds.train(), coreset.indices,
                        weights, inputs.train.batch_size, st.rng);
    report.test_accuracy =
        nn::evaluate(st.model, eds.test().features, eds.test().labels)
            .accuracy;
    prev_subset = coreset.indices;

    // Paper-scale cost (serial phases): full scan to host (raw link time
    // or record decode for the embedding pass, whichever dominates), GPU
    // embedding pass, CPU greedy (quadratic per class — no partitioning),
    // subset in.
    HostSelectionDemand demand;
    demand.scan_records = paper_n;
    demand.subset_records = paper_k;
    demand.record_bytes = sample_bytes;
    demand.train_gflops_per_sample = inputs.model.paper_gflops_per_sample;
    demand.batch_size = inputs.train.batch_size;
    demand.cpu_selection_ops =
        static_cast<double>(coreset.similarity_ops + coreset.greedy_ops) *
        ratio * ratio;
    report.cost = perf->host_selection_epoch(system, demand);
    result.interconnect_bytes +=
        static_cast<std::uint64_t>(paper_n) * sample_bytes;

    result.epochs.push_back(std::move(report));
    ckpt.epoch_done(epoch);
  }
  result.finalize();
  return result;
}

RunResult run_kcenter(const PipelineInputs& inputs, double subset_fraction,
                      smartssd::SmartSsdSystem& system) {
  detail::check_inputs(inputs);
  const data::Dataset& ds = *inputs.dataset;
  const std::size_t n = ds.train_size();
  auto st = make_state(inputs);
  auto perf = make_performance_model(inputs.perf_model);

  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(subset_fraction *
                                             static_cast<double>(n))));
  const std::uint64_t sample_bytes = inputs.info.stored_bytes_per_sample;
  const std::size_t paper_n = inputs.info.paper_train_size;
  const std::size_t paper_k = detail::paper_count(inputs, subset_fraction);
  const std::size_t feat_dim = paper_feature_dim(inputs.model);

  RunResult result;
  std::vector<std::size_t> prev_subset;
  detail::CommonCheckpointHook ckpt(inputs, "kcenter", subset_fraction,
                                    st.rng, st.model, st.sgd, result,
                                    &prev_subset);
  for (std::size_t epoch = ckpt.start_epoch(); epoch < inputs.train.epochs;
       ++epoch) {
    fault::maybe_crash(inputs.fault_plan, epoch, ckpt.sim_elapsed());
    st.sgd.set_learning_rate(st.schedule.lr_at(epoch));
    const data::Dataset& eds = detail::epoch_data(inputs, epoch);

    // Penultimate features of the float model (substrate-real).
    auto fwd = nn::forward_with_penultimate(st.model, eds.train().features);
    auto centers = selection::kcenter_greedy(fwd.penultimate, k);

    EpochReport report;
    report.epoch = epoch;
    report.subset_size = centers.selected.size();
    report.pool_size = n;
    report.subset_fraction = static_cast<double>(centers.selected.size()) /
                             static_cast<double>(n);
    report.selection_overlap =
        prev_subset.empty()
            ? 1.0
            : detail::selection_overlap(centers.selected, prev_subset);
    report.class_mix = detail::stream_class_mix(inputs, epoch);
    report.train_loss =
        train_one_epoch(st.model, st.sgd, eds.train(), centers.selected, {},
                        inputs.train.batch_size, st.rng);
    report.test_accuracy =
        nn::evaluate(st.model, eds.test().features, eds.test().labels)
            .accuracy;
    prev_subset = centers.selected;

    // Paper-scale cost: full scan to host (link or decode, whichever
    // dominates), GPU feature pass, CPU farthest-first O(n k d_feat)
    // distance work, subset in. The distance term is what makes K-centers
    // the slowest bar in Fig. 4. Sener & Savarese's method is the *robust*
    // k-center: after the greedy seed it runs several rounds of feasibility
    // checks over the distance matrix. We charge kRobustRounds passes over
    // the greedy's O(n k d) distance work, which is what makes K-centers
    // slower end-to-end than full-data training (Fig. 4).
    constexpr double kRobustRounds = 2.5;
    HostSelectionDemand demand;
    demand.scan_records = paper_n;
    demand.subset_records = paper_k;
    demand.record_bytes = sample_bytes;
    demand.train_gflops_per_sample = inputs.model.paper_gflops_per_sample;
    demand.batch_size = inputs.train.batch_size;
    demand.cpu_selection_ops = static_cast<double>(paper_n) *
                               static_cast<double>(paper_k) *
                               static_cast<double>(feat_dim) * 3.0 *
                               kRobustRounds;
    report.cost = perf->host_selection_epoch(system, demand);
    result.interconnect_bytes +=
        static_cast<std::uint64_t>(paper_n) * sample_bytes;

    result.epochs.push_back(std::move(report));
    ckpt.epoch_done(epoch);
  }
  result.finalize();
  return result;
}

RunResult run_random(const PipelineInputs& inputs, double subset_fraction,
                     smartssd::SmartSsdSystem& system) {
  detail::check_inputs(inputs);
  const data::Dataset& ds = *inputs.dataset;
  const std::size_t n = ds.train_size();
  auto st = make_state(inputs);
  auto perf = make_performance_model(inputs.perf_model);

  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(subset_fraction *
                                             static_cast<double>(n))));
  const std::uint64_t sample_bytes = inputs.info.stored_bytes_per_sample;
  const std::size_t paper_k = detail::paper_count(inputs, subset_fraction);

  RunResult result;
  std::vector<std::size_t> prev_subset;
  detail::CommonCheckpointHook ckpt(inputs, "random", subset_fraction,
                                    st.rng, st.model, st.sgd, result,
                                    &prev_subset);
  for (std::size_t epoch = ckpt.start_epoch(); epoch < inputs.train.epochs;
       ++epoch) {
    fault::maybe_crash(inputs.fault_plan, epoch, ckpt.sim_elapsed());
    st.sgd.set_learning_rate(st.schedule.lr_at(epoch));
    const data::Dataset& eds = detail::epoch_data(inputs, epoch);
    auto subset = selection::random_subset(n, k, st.rng);

    EpochReport report;
    report.epoch = epoch;
    report.subset_size = subset.size();
    report.pool_size = n;
    report.subset_fraction =
        static_cast<double>(subset.size()) / static_cast<double>(n);
    report.selection_overlap =
        prev_subset.empty() ? 1.0
                            : detail::selection_overlap(subset, prev_subset);
    report.class_mix = detail::stream_class_mix(inputs, epoch);
    report.train_loss =
        train_one_epoch(st.model, st.sgd, eds.train(), subset, {},
                        inputs.train.batch_size, st.rng);
    report.test_accuracy =
        nn::evaluate(st.model, eds.test().features, eds.test().labels)
            .accuracy;
    prev_subset = std::move(subset);

    ConventionalDemand demand;
    demand.train_records = paper_k;
    demand.record_bytes = sample_bytes;
    demand.train_gflops_per_sample = inputs.model.paper_gflops_per_sample;
    demand.batch_size = inputs.train.batch_size;
    report.cost = perf->conventional_epoch(system, demand);
    result.interconnect_bytes +=
        static_cast<std::uint64_t>(paper_k) * sample_bytes;

    result.epochs.push_back(std::move(report));
    ckpt.epoch_done(epoch);
  }
  result.finalize();
  return result;
}

}  // namespace nessa::core
