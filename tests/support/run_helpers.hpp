// Shared test drivers over the unified core::run dispatcher. Tests that
// used to call the PR-2 era piecewise entry points (run_full(inputs, sys),
// run_nessa(inputs, cfg, sys)) route through these helpers instead: each
// stages the inputs' run knobs into a RunConfig exactly the way the legacy
// overloads did implicitly, then dispatches through core::run. Keeping the
// staging in one place means a dispatcher regression fails every suite the
// same way instead of hiding behind per-file copies. expect_identical is
// the bit-level RunResult comparison the determinism suites share.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "nessa/core/run.hpp"

namespace nessa::core {

inline RunResult full_run(const PipelineInputs& in,
                          smartssd::SmartSsdSystem& sys) {
  RunConfig rc;
  rc.pipeline = PipelineKind::kFull;
  rc.train = in.train;
  rc.perf_model = in.perf_model;
  rc.fault_plan = in.fault_plan;
  rc.checkpoint = in.checkpoint;
  return run(in, rc, sys);
}

inline RunResult nessa_run(const PipelineInputs& in, const NessaConfig& cfg,
                           smartssd::SmartSsdSystem& sys) {
  RunConfig rc;
  rc.pipeline = PipelineKind::kNessa;
  rc.train = in.train;
  rc.perf_model = in.perf_model;
  rc.fault_plan = in.fault_plan;
  rc.checkpoint = in.checkpoint;
  rc.nessa = cfg;
  rc.parallelism = cfg.parallelism;
  return run(in, rc, sys);
}

/// Bit equality of two doubles, reported with the field and epoch.
inline void expect_bits(double a, double b, const char* what,
                        std::size_t epoch) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << " diverged at epoch " << epoch << ": " << a << " vs " << b;
}

/// Full bit-level equality of two run results, field by field.
inline void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const EpochReport& x = a.epochs[i];
    const EpochReport& y = b.epochs[i];
    EXPECT_EQ(x.epoch, y.epoch);
    expect_bits(x.train_loss, y.train_loss, "train_loss", i);
    expect_bits(x.test_accuracy, y.test_accuracy, "test_accuracy", i);
    EXPECT_EQ(x.subset_size, y.subset_size) << "epoch " << i;
    EXPECT_EQ(x.pool_size, y.pool_size) << "epoch " << i;
    expect_bits(x.subset_fraction, y.subset_fraction, "subset_fraction", i);
    EXPECT_EQ(x.cost.storage_scan, y.cost.storage_scan) << "epoch " << i;
    EXPECT_EQ(x.cost.selection, y.cost.selection) << "epoch " << i;
    EXPECT_EQ(x.cost.subset_transfer, y.cost.subset_transfer)
        << "epoch " << i;
    EXPECT_EQ(x.cost.gpu_compute, y.cost.gpu_compute) << "epoch " << i;
    EXPECT_EQ(x.cost.feedback, y.cost.feedback) << "epoch " << i;
    EXPECT_EQ(x.cost.selection_overlapped, y.cost.selection_overlapped);
    EXPECT_EQ(x.cost.modeled_total, y.cost.modeled_total) << "epoch " << i;
    expect_bits(x.selection_overlap, y.selection_overlap,
                "selection_overlap", i);
    EXPECT_EQ(x.chunk_fetches, y.chunk_fetches) << "epoch " << i;
    EXPECT_EQ(x.class_mix, y.class_mix) << "epoch " << i;
  }
  expect_bits(a.final_accuracy, b.final_accuracy, "final_accuracy", 0);
  expect_bits(a.best_accuracy, b.best_accuracy, "best_accuracy", 0);
  expect_bits(a.mean_subset_fraction, b.mean_subset_fraction,
              "mean_subset_fraction", 0);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.mean_epoch_time, b.mean_epoch_time);
  EXPECT_EQ(a.interconnect_bytes, b.interconnect_bytes);
  EXPECT_EQ(a.p2p_bytes, b.p2p_bytes);
  EXPECT_EQ(a.fault_fallback_epochs, b.fault_fallback_epochs);
  EXPECT_EQ(a.fault_stale_epochs, b.fault_stale_epochs);
}

}  // namespace nessa::core
