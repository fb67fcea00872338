// Multi-SmartSSD NeSSA (paper §5 future work, built on GreeDi [42]):
//
//   shard pool across D devices
//     -> per device (parallel): P2P scan + quantized forward + local
//        facility-location round over the shard
//     -> local winners' embeddings ship to the merge device (int8, tiny)
//     -> merge device re-selects k over the union
//     -> subset to GPU, train, quantized weights broadcast to all devices
//
// Timing: the per-device phase takes the max over devices (they run in
// parallel); merge communication and the weight broadcast scale with D.
// Subset biasing and dynamic sizing operate on the global pool exactly as
// in the single-device trainer.
#include <algorithm>
#include <cmath>

#include "nessa/ckpt/errors.hpp"
#include "nessa/core/near_storage.hpp"
#include "nessa/core/pipeline.hpp"
#include "nessa/core/train_utils.hpp"
#include "nessa/fault/crash.hpp"
#include "nessa/nn/metrics.hpp"
#include "nessa/nn/optimizer.hpp"
#include "nessa/quant/qmodel.hpp"
#include "nessa/selection/greedi.hpp"
#include "nessa/util/stats.hpp"
#include "pipeline_common.hpp"
#include "trainer_ckpt.hpp"

namespace nessa::core {

RunResult run_nessa_multi(const PipelineInputs& inputs,
                          const NessaConfig& config,
                          const MultiDeviceConfig& multi,
                          smartssd::SmartSsdSystem& system) {
  detail::check_inputs(inputs);
  if (multi.devices == 0) {
    throw std::invalid_argument("run_nessa_multi: need at least one device");
  }
  const data::Dataset& ds = *inputs.dataset;
  const std::size_t n = ds.train_size();
  const std::size_t devices = multi.devices;

  util::Rng rng(inputs.train.seed);
  auto model = detail::build_target_model(inputs, rng);
  auto qmodel = quant::QuantizedMlp::from_model(model);
  nn::Sgd sgd(inputs.train.sgd);
  auto schedule = inputs.train.scale_lr_schedule
                      ? nn::StepLrSchedule::paper_scaled(inputs.train.epochs)
                      : nn::StepLrSchedule::paper_default();

  std::vector<std::size_t> pool = iota_indices(n);
  LossHistory history(n, config.loss_window_epochs);
  std::vector<bool> last_correct(n, false);

  double fraction = config.subset_fraction;
  double prev_loss = -1.0;

  auto perf = make_performance_model(inputs.perf_model);
  const std::uint64_t sample_bytes = inputs.info.stored_bytes_per_sample;
  const double ratio = detail::scale_ratio(inputs);
  const std::uint64_t macs_per_sample = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(detail::paper_macs_per_sample(inputs)) *
             config.selection_proxy_factor));
  const smartssd::TrafficStats traffic0 = system.traffic();

  selection::GreediConfig greedi;
  greedi.num_partitions = devices;
  greedi.driver.greedy = config.greedy;
  greedi.driver.stochastic_epsilon = config.stochastic_epsilon;
  greedi.driver.per_class = true;
  greedi.driver.partition_quota = config.partition_quota;
  greedi.driver.parallelism = config.parallelism;

  RunResult result;

  // ---- checkpoint/restore (see trainer_ckpt.hpp). The multi-device
  // driver reselects every epoch, so no coreset is carried forward — the
  // nessa section travels with an empty coreset.
  detail::CheckpointSession ckpt_session(
      inputs.checkpoint, "multi",
      detail::run_fingerprint("multi", inputs, config.subset_fraction,
                              devices));
  std::size_t start_epoch = 0;
  util::SimTime sim_elapsed = 0;
  std::uint64_t base_interconnect = 0;
  std::uint64_t base_p2p = 0;
  std::vector<std::size_t> prev_subset;
  if (auto snap = ckpt_session.restore()) {
    if (!snap->has_nessa || snap->nessa.last_correct.size() != n ||
        snap->nessa.history.size() != n) {
      throw ckpt::SnapshotError(
          ckpt::SnapshotFault::kBadPayload,
          "snapshot does not match the multi driver's dataset");
    }
    for (std::size_t idx : snap->nessa.pool) {
      if (idx >= n) {
        throw ckpt::SnapshotError(ckpt::SnapshotFault::kBadPayload,
                                  "snapshot pool index out of range");
      }
    }
    detail::restore_common(snap->common, rng, model, sgd, result);
    pool = std::move(snap->nessa.pool);
    history.restore(std::move(snap->nessa.history));
    for (std::size_t i = 0; i < n; ++i) {
      last_correct[i] = snap->nessa.last_correct[i] != 0;
    }
    fraction = snap->nessa.fraction;
    prev_loss = snap->nessa.prev_loss;
    prev_subset = std::move(snap->common.prev_subset);
    base_interconnect = snap->common.traffic_interconnect;
    base_p2p = snap->common.traffic_p2p;
    start_epoch = static_cast<std::size_t>(snap->next_epoch);
    // The quantized kernel was built from the deterministic initial
    // weights; bring it to the checkpointed state exactly as the
    // uninterrupted run did.
    if (config.weight_feedback && start_epoch > 0) qmodel.refresh_from(model);
    for (const EpochReport& report : result.epochs) {
      sim_elapsed += report.cost.total();
    }
  }

  for (std::size_t epoch = start_epoch; epoch < inputs.train.epochs;
       ++epoch) {
    fault::maybe_crash(inputs.fault_plan, epoch, sim_elapsed);
    sgd.set_learning_rate(schedule.lr_at(epoch));
    greedi.driver.seed = inputs.train.seed * 6151 + epoch;
    const data::Dataset& eds = detail::epoch_data(inputs, epoch);

    // ---- distributed near-storage selection --------------------------
    auto emb = compute_q_embeddings(qmodel, eds.train(), pool,
                                    config.scaled_embeddings,
                                    inputs.train.batch_size,
                                    config.parallelism);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      history.record(pool[i], emb.losses[i]);
      last_correct[pool[i]] = emb.correct[i];
    }

    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::round(fraction *
                                               static_cast<double>(n))));
    std::vector<std::int32_t> pool_labels(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pool_labels[i] = eds.train().labels[pool[i]];
    }
    auto selected = selection::greedi_select(emb.embeddings, pool_labels,
                                             pool, std::min(k, pool.size()),
                                             greedi);

    // ---- GPU subset training ------------------------------------------
    std::vector<double> weights(selected.weights.begin(),
                                selected.weights.end());
    EpochReport report;
    report.epoch = epoch;
    report.subset_size = selected.indices.size();
    report.pool_size = pool.size();
    report.subset_fraction = static_cast<double>(selected.indices.size()) /
                             static_cast<double>(n);
    report.selection_overlap =
        prev_subset.empty()
            ? 1.0
            : detail::selection_overlap(selected.indices, prev_subset);
    report.class_mix = detail::stream_class_mix(inputs, epoch);
    report.train_loss =
        train_one_epoch(model, sgd, eds.train(), selected.indices, weights,
                        inputs.train.batch_size, rng);
    report.test_accuracy =
        nn::evaluate(model, eds.test().features, eds.test().labels).accuracy;
    prev_subset = selected.indices;

    if (config.weight_feedback) {
      qmodel.refresh_from(model);
    }

    // ---- paper-scale costing -------------------------------------------
    const double pool_fraction =
        static_cast<double>(pool.size()) / static_cast<double>(n);
    const std::size_t paper_pool = detail::paper_count(inputs, pool_fraction);
    const std::size_t paper_subset =
        detail::paper_count(inputs, report.subset_fraction);
    const std::size_t shard = (paper_pool + devices - 1) / devices;

    // Local phase: quantized forwards + the slowest device's local greedy.
    std::uint64_t worst_local_ops = 0;
    for (const auto& local : selected.local) {
      worst_local_ops = std::max(
          worst_local_ops, local.similarity_ops + local.greedy_ops);
    }
    const double op_ratio =
        config.partition_quota > 0 ? ratio : ratio * ratio;

    // Merge: local winners' int8 embeddings + ids cross the interconnect
    // to the merge device, which re-selects over the union.
    const std::size_t paper_union = std::min<std::size_t>(
        paper_pool,
        static_cast<std::size_t>(static_cast<double>(selected.union_size) *
                                 ratio));
    const double merge_scale =
        selected.union_size > 0
            ? std::pow(static_cast<double>(paper_union) /
                           static_cast<double>(selected.union_size),
                       2.0)
            : 0.0;

    MultiEpochDemand demand;
    demand.devices = devices;
    demand.shard_records = shard;
    demand.subset_records = paper_subset;
    demand.record_bytes = sample_bytes;
    demand.shard_forward_macs =
        static_cast<std::uint64_t>(shard) * macs_per_sample;
    demand.local_selection_ops = static_cast<std::uint64_t>(
        static_cast<double>(worst_local_ops) * op_ratio);
    demand.merge_union_bytes = static_cast<std::uint64_t>(paper_union) *
                               (ds.num_classes() + sizeof(std::uint64_t));
    demand.merge_ops = static_cast<std::uint64_t>(
        static_cast<double>(selected.merge.similarity_ops +
                            selected.merge.greedy_ops) *
        merge_scale);
    demand.train_gflops_per_sample = inputs.model.paper_gflops_per_sample;
    demand.batch_size = inputs.train.batch_size;
    demand.feedback_bytes_per_device =
        config.weight_feedback ? detail::paper_qweight_bytes(inputs) : 0;
    report.cost = perf->multi_epoch(system, demand);

    // ---- subset biasing + dynamic sizing (global pool) -----------------
    if (config.subset_biasing && epoch + 1 < inputs.train.epochs &&
        (epoch + 1) % config.drop_interval_epochs == 0) {
      std::vector<double> means(pool.size());
      for (std::size_t i = 0; i < pool.size(); ++i) {
        means[i] = history.windowed_mean(pool[i]);
      }
      const double threshold =
          util::percentile_of(means, config.drop_quantile * 100.0);
      const std::size_t min_pool = std::max<std::size_t>(
          k, static_cast<std::size_t>(config.min_pool_factor *
                                      static_cast<double>(k)));
      std::vector<std::size_t> kept;
      kept.reserve(pool.size());
      std::size_t dropped = 0;
      const std::size_t max_drop =
          pool.size() > min_pool ? pool.size() - min_pool : 0;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const bool learned = means[i] <= threshold && last_correct[pool[i]];
        if (learned && dropped < max_drop) {
          ++dropped;
        } else {
          kept.push_back(pool[i]);
        }
      }
      pool = std::move(kept);
    }
    if (config.dynamic_sizing) {
      if (prev_loss > 0.0 && report.train_loss > 0.0) {
        const double drop = (prev_loss - report.train_loss) / prev_loss;
        if (drop > config.shrink_rate) {
          fraction = std::max(config.min_subset_fraction,
                              fraction * (1.0 - config.shrink_step));
        } else if (drop < 0.0) {
          fraction = std::min(config.subset_fraction,
                              fraction / (1.0 - config.shrink_step));
        }
      }
      prev_loss = report.train_loss;
    }

    sim_elapsed += report.cost.total();
    result.epochs.push_back(std::move(report));

    if (ckpt_session.due(epoch + 1)) {
      detail::TrainerSnapshot snap;
      snap.next_epoch = epoch + 1;
      snap.common = detail::capture_common(rng, model, sgd, result);
      snap.common.traffic_interconnect =
          base_interconnect +
          (system.traffic().interconnect_bytes - traffic0.interconnect_bytes);
      snap.common.traffic_p2p =
          base_p2p + (system.traffic().p2p_bytes - traffic0.p2p_bytes);
      snap.common.prev_subset = prev_subset;
      snap.has_nessa = true;
      snap.nessa.pool = pool;
      snap.nessa.history = history.windows();
      snap.nessa.last_correct.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        snap.nessa.last_correct[i] = last_correct[i] ? 1 : 0;
      }
      snap.nessa.fraction = fraction;
      snap.nessa.prev_loss = prev_loss;
      ckpt_session.save(std::move(snap));
    }
  }

  result.interconnect_bytes =
      base_interconnect +
      (system.traffic().interconnect_bytes - traffic0.interconnect_bytes);
  result.p2p_bytes =
      base_p2p + (system.traffic().p2p_bytes - traffic0.p2p_bytes);
  result.finalize();
  return result;
}

}  // namespace nessa::core
