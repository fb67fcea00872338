// The NeSSA pipeline (paper §3, Fig. 3):
//   1. stream the candidate pool from flash to the FPGA over P2P,
//   2. run the quantized target model forward near-storage to get gradient
//      embeddings + losses (real computation via quant::QuantizedMlp),
//   3. per-class, partition-chunked facility-location selection,
//   4. ship only the selected subset to the GPU and train on it,
//   5. quantize the updated weights and feed them back to the FPGA,
//   6. subset biasing drops learned samples from the candidate pool every
//      `drop_interval_epochs`; dynamic sizing shrinks the subset while the
//      loss falls quickly.
// FPGA selection for epoch t+1 overlaps GPU training of epoch t.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "nessa/ckpt/errors.hpp"
#include "nessa/core/near_storage.hpp"
#include "nessa/fault/crash.hpp"
#include "nessa/fault/epoch_schedule.hpp"
#include "nessa/core/pipeline.hpp"
#include "nessa/tensor/ops.hpp"
#include "nessa/core/train_utils.hpp"
#include "nessa/nn/metrics.hpp"
#include "nessa/nn/optimizer.hpp"
#include "nessa/quant/qmodel.hpp"
#include "nessa/selection/drivers.hpp"
#include "nessa/telemetry/telemetry.hpp"
#include "nessa/util/stats.hpp"
#include "pipeline_common.hpp"
#include "trainer_ckpt.hpp"

namespace nessa::core::detail {

RunResult run_nessa(const PipelineInputs& inputs, const NessaConfig& config,
                    smartssd::SmartSsdSystem& system) {
  detail::check_inputs(inputs);
  const data::Dataset& ds = *inputs.dataset;
  const std::size_t n = ds.train_size();

  util::Rng rng(inputs.train.seed);
  auto model = detail::build_target_model(inputs, rng);
  auto kernel = make_selection_model(model, config.parallelism);
  nn::Sgd sgd(inputs.train.sgd);
  auto schedule = inputs.train.scale_lr_schedule
                      ? nn::StepLrSchedule::paper_scaled(inputs.train.epochs)
                      : nn::StepLrSchedule::paper_default();

  // Candidate pool (substrate indices); shrinks under subset biasing.
  std::vector<std::size_t> pool = iota_indices(n);
  LossHistory history(n, config.loss_window_epochs);
  std::vector<bool> last_correct(n, false);

  double fraction = config.subset_fraction;
  double prev_loss = -1.0;

  const std::uint64_t sample_bytes = inputs.info.stored_bytes_per_sample;
  const double ratio = detail::scale_ratio(inputs);
  const std::uint64_t macs_per_sample = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(detail::paper_macs_per_sample(inputs)) *
             config.selection_proxy_factor * kernel->mac_cost_factor()));
  // Feedback bytes at paper scale: int8 payload for the quantized kernel,
  // 4 bytes/param for the float fallback.
  const double bytes_per_param =
      static_cast<double>(kernel->payload_bytes()) /
      static_cast<double>(std::max<std::size_t>(1, model.parameter_count()));
  const auto paper_feedback_bytes = static_cast<std::uint64_t>(
      static_cast<double>(detail::paper_qweight_bytes(inputs)) *
      std::max(1.0, bytes_per_param));

  const smartssd::TrafficStats traffic0 = system.traffic();
  auto perf = make_performance_model(inputs.perf_model);

  // Epoch-granularity fault replay (see fault/epoch_schedule.hpp). The
  // deadline decision needs a nominal (fault-free) FPGA-phase basis; the
  // last reselect epoch's demand provides it, so the first selection can
  // never be skipped as stale.
  std::optional<fault::EpochSchedule> fault_schedule;
  if (inputs.fault_plan.enabled() ||
      inputs.fault_plan.selection_deadline_factor > 0.0) {
    fault_schedule.emplace(inputs.fault_plan);
  }
  util::SimTime nominal_fpga_phase = 0;

  // Chunk integrity (see data/integrity.hpp): with `corrupt` directives in
  // the plan and a chunked scan, every fetch is CRC-verified and the
  // plan's deterministic bit flips drive the re-fetch/quarantine path.
  data::ChunkIntegrity chunk_integrity;
  const bool use_integrity =
      inputs.fault_plan.has_corruption() && inputs.train.chunk_samples > 0;
  if (use_integrity) {
    chunk_integrity.corruptor = data::corruptor_from_plan(inputs.fault_plan);
  }

  selection::DriverConfig driver;
  driver.greedy = config.greedy;
  driver.stochastic_epsilon = config.stochastic_epsilon;
  driver.per_class = true;
  driver.partition_quota = config.partition_quota;
  driver.parallelism = config.parallelism;

  const std::size_t interval = std::max<std::size_t>(
      1, config.selection_interval);
  selection::CoresetResult coreset;

  RunResult result;

  // ---- checkpoint/restore (see trainer_ckpt.hpp) ----------------------
  detail::CheckpointSession ckpt_session(
      inputs.checkpoint, "nessa",
      detail::run_fingerprint("nessa", inputs, config.subset_fraction));
  std::size_t start_epoch = 0;
  util::SimTime sim_elapsed = 0;
  std::uint64_t base_interconnect = 0;
  std::uint64_t base_p2p = 0;
  if (auto snap = ckpt_session.restore()) {
    if (!snap->has_nessa || snap->nessa.last_correct.size() != n ||
        snap->nessa.history.size() != n) {
      throw ckpt::SnapshotError(
          ckpt::SnapshotFault::kBadPayload,
          "snapshot does not match the nessa driver's dataset");
    }
    for (std::size_t idx : snap->nessa.pool) {
      if (idx >= n) {
        throw ckpt::SnapshotError(ckpt::SnapshotFault::kBadPayload,
                                  "snapshot pool index out of range");
      }
    }
    for (std::size_t idx : snap->nessa.coreset.indices) {
      if (idx >= n) {
        throw ckpt::SnapshotError(ckpt::SnapshotFault::kBadPayload,
                                  "snapshot coreset index out of range");
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
    coreset = std::move(snap->nessa.coreset);
    nominal_fpga_phase = snap->nessa.nominal_fpga_phase;
    base_interconnect = snap->common.traffic_interconnect;
    base_p2p = snap->common.traffic_p2p;
    start_epoch = static_cast<std::size_t>(snap->next_epoch);
    // The kernel was built from the deterministic initial weights; bring it
    // to the checkpointed state exactly as the uninterrupted run did.
    if (config.weight_feedback && start_epoch > 0) kernel->refresh(model);
    for (const EpochReport& report : result.epochs) {
      sim_elapsed += report.cost.total();
    }
  }

  // Previous epoch's trained subset, for the selection-overlap telemetry.
  // After a restore the carried coreset IS the last epoch's subset, so the
  // resumed overlap matches the uninterrupted run.
  std::vector<std::size_t> prev_subset = coreset.indices;

  for (std::size_t epoch = start_epoch; epoch < inputs.train.epochs;
       ++epoch) {
    fault::maybe_crash(inputs.fault_plan, epoch, sim_elapsed);
    // The data visible this epoch: the static split, or the scenario
    // stream's view when one is attached (non-stationary workloads).
    const data::Dataset& eds = detail::epoch_data(inputs, epoch);
    sgd.set_learning_rate(schedule.lr_at(epoch));
    driver.seed = inputs.train.seed * 7919 + epoch;

    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::round(fraction *
                                               static_cast<double>(n))));
    bool reselect = epoch % interval == 0 || coreset.indices.empty();
    // Degraded mode: an FPGA stall that blows the selection deadline means
    // this epoch trains on the carried-forward subset instead of waiting.
    if (fault_schedule && reselect && !coreset.indices.empty() &&
        nominal_fpga_phase > 0 &&
        fault_schedule->selection_timeout(epoch, nominal_fpga_phase)) {
      reselect = false;
      ++result.fault_stale_epochs;
      telemetry::count("fault.stale_epochs");
    }
    std::uint64_t chunk_fetches = 0;
    if (reselect) {
      // ---- near-storage selection pass (FPGA) -----------------------
      // The scan pulls the pool through the chunked streaming interface;
      // chunk_samples == 0 is the monolithic single-chunk fast path
      // (bit-identical to the pre-streaming scan, zero fetches charged).
      auto span = telemetry::wall_span("nessa-selection-pass", "core");
      auto scored = detail::score_pool(
          *kernel, eds.train(), pool, config.scaled_embeddings,
          inputs.train.batch_size, inputs.train.chunk_samples,
          eds.stored_bytes_per_sample(),
          use_integrity ? &chunk_integrity : nullptr);
      const auto& emb = scored.emb;
      chunk_fetches = scored.chunk_fetches;
      result.chunk_corruptions += scored.integrity.corruptions;
      result.chunk_refetches += scored.integrity.refetches;
      result.quarantined_chunks += scored.integrity.quarantined;
      if (scored.excluded.empty()) {
        for (std::size_t i = 0; i < pool.size(); ++i) {
          history.record(pool[i], emb.losses[i]);
          last_correct[pool[i]] = emb.correct[i];
        }
        std::vector<std::int32_t> pool_labels(pool.size());
        for (std::size_t i = 0; i < pool.size(); ++i) {
          pool_labels[i] = eds.train().labels[pool[i]];
        }
        coreset = selection::select_coreset(emb.embeddings, pool_labels, pool,
                                            std::min(k, pool.size()), driver);
      } else {
        // Quarantined chunks drop their rows from this pass: history and
        // selection see only the surviving rows — bad bytes are never
        // scored. With every chunk quarantined the previous subset is
        // carried forward (telemetry-visible staleness).
        std::vector<std::size_t> kept;
        kept.reserve(pool.size());
        for (std::size_t i = 0; i < pool.size(); ++i) {
          if (scored.excluded[i] == 0) kept.push_back(i);
        }
        for (const std::size_t i : kept) {
          history.record(pool[i], emb.losses[i]);
          last_correct[pool[i]] = emb.correct[i];
        }
        if (!kept.empty()) {
          const std::size_t classes =
              emb.embeddings.rank() == 2 ? emb.embeddings.cols() : 0;
          tensor::Tensor kept_emb({kept.size(), classes});
          std::vector<std::int32_t> kept_labels(kept.size());
          std::vector<std::size_t> kept_pool(kept.size());
          for (std::size_t i = 0; i < kept.size(); ++i) {
            const std::size_t src = kept[i];
            kept_pool[i] = pool[src];
            kept_labels[i] = eds.train().labels[pool[src]];
            std::copy_n(emb.embeddings.data() + src * classes, classes,
                        kept_emb.data() + i * classes);
          }
          coreset = selection::select_coreset(
              kept_emb, kept_labels, kept_pool,
              std::min(k, kept_pool.size()), driver);
        } else if (!coreset.indices.empty()) {
          ++result.fault_stale_epochs;
          telemetry::count("fault.stale_epochs");
        }
      }
    }

    // ---- GPU subset training ----------------------------------------
    std::vector<double> weights(coreset.weights.begin(),
                                coreset.weights.end());
    EpochReport report;
    report.epoch = epoch;
    report.subset_size = coreset.indices.size();
    report.pool_size = pool.size();
    report.subset_fraction =
        static_cast<double>(coreset.indices.size()) / static_cast<double>(n);
    report.chunk_fetches = chunk_fetches;
    report.selection_overlap =
        (reselect && !prev_subset.empty())
            ? detail::selection_overlap(coreset.indices, prev_subset)
            : 1.0;  // first or carried subset: nothing turned over
    report.class_mix = detail::stream_class_mix(inputs, epoch);
    prev_subset = coreset.indices;
    report.train_loss =
        train_one_epoch(model, sgd, eds.train(), coreset.indices, weights,
                        inputs.train.batch_size, rng);
    report.test_accuracy =
        nn::evaluate(model, eds.test().features, eds.test().labels).accuracy;

    // ---- feedback: quantized weights back to the FPGA (§3.2.1) ------
    if (config.weight_feedback) {
      auto span = telemetry::wall_span("nessa-feedback", "core");
      kernel->refresh(model);
    }

    // ---- paper-scale costing -----------------------------------------
    const double pool_fraction =
        static_cast<double>(pool.size()) / static_cast<double>(n);
    const std::size_t paper_pool = detail::paper_count(inputs, pool_fraction);
    const std::size_t paper_subset =
        detail::paper_count(inputs, report.subset_fraction);

    // Selection compute: quantized forwards over the pool + similarity and
    // greedy ops. Substrate op counts are rescaled: chunked selection work
    // grows linearly with pool size, monolithic quadratically.
    const double op_ratio =
        config.partition_quota > 0 ? ratio : ratio * ratio;
    NessaEpochDemand demand;
    demand.reselect = reselect;
    demand.pool_records = paper_pool;
    demand.subset_records = paper_subset;
    demand.record_bytes = sample_bytes;
    demand.forward_macs =
        static_cast<std::uint64_t>(paper_pool) * macs_per_sample;
    demand.selection_ops = static_cast<std::uint64_t>(
        static_cast<double>(coreset.similarity_ops + coreset.greedy_ops) *
        op_ratio);
    demand.train_gflops_per_sample = inputs.model.paper_gflops_per_sample;
    demand.batch_size = inputs.train.batch_size;
    demand.weight_feedback = config.weight_feedback;
    demand.feedback_bytes = paper_feedback_bytes;
    // Chunk budget at paper scale: the substrate chunk size rescaled by the
    // dataset ratio. The event-driven model streams the scan as per-chunk
    // flash fetches instead of per-batch reads (flash-bus "chunk-fetch").
    demand.chunk_records =
        inputs.train.chunk_samples > 0
            ? std::max<std::size_t>(
                  1, static_cast<std::size_t>(std::llround(
                         static_cast<double>(inputs.train.chunk_samples) *
                         ratio)))
            : 0;
    if (fault_schedule && reselect) {
      if (fault_schedule->p2p_outage(epoch)) {
        demand.scan_via_host = true;
        ++result.fault_fallback_epochs;
        telemetry::count("fault.fallback.host_path");
      }
      demand.scan_slowdown = fault_schedule->scan_slowdown(epoch);
      demand.selection_stall = fault_schedule->selection_stall(epoch);
    }
    report.cost = perf->nessa_epoch(system, demand);
    if (reselect) {
      // Refresh the deadline basis with this epoch's fault-free FPGA
      // phase (const timing queries — no byte accounting).
      nominal_fpga_phase =
          system.flash().batch_read_time(paper_pool, sample_bytes) +
          system.fpga_forward_time(demand.forward_macs) +
          system.fpga_selection_time(demand.selection_ops);
    }

    // ---- §3.2.2 subset biasing: drop learned samples -----------------
    if (config.subset_biasing && epoch + 1 < inputs.train.epochs &&
        (epoch + 1) % config.drop_interval_epochs == 0) {
      auto span = telemetry::wall_span("nessa-subset-biasing", "core");
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

    // ---- dynamic subset sizing (contribution 4) ----------------------
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
    telemetry::count("core.epochs");

    if (ckpt_session.due(epoch + 1)) {
      detail::TrainerSnapshot snap;
      snap.next_epoch = epoch + 1;
      snap.common = detail::capture_common(rng, model, sgd, result);
      snap.common.traffic_interconnect =
          base_interconnect +
          (system.traffic().interconnect_bytes - traffic0.interconnect_bytes);
      snap.common.traffic_p2p =
          base_p2p + (system.traffic().p2p_bytes - traffic0.p2p_bytes);
      snap.has_nessa = true;
      snap.nessa.pool = pool;
      snap.nessa.history = history.windows();
      snap.nessa.last_correct.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        snap.nessa.last_correct[i] = last_correct[i] ? 1 : 0;
      }
      snap.nessa.fraction = fraction;
      snap.nessa.prev_loss = prev_loss;
      snap.nessa.coreset = coreset;
      snap.nessa.nominal_fpga_phase = nominal_fpga_phase;
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

}  // namespace nessa::core::detail
