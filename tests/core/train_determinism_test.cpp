// Training's float GEMMs split their rows over the global thread pool, and
// NeSSA's scan and CRAIG's embedding pass and selection run on it too.
// Every output element is summed in one fixed order whatever the split, so
// a run on the pool must equal the same run on one thread bit for bit. CTest reruns this suite
// with NESSA_THREADS at 1, 2 and 4 to cover those pool sizes.
#include <gtest/gtest.h>

#include "../support/run_helpers.hpp"
#include "nessa/util/thread_pool.hpp"

namespace nessa::core {
namespace {

/// The workload's model and batch size on a small slice of the dataset, so
/// every training GEMM is large enough for the pool.
RunConfig short_run(const char* dataset, PipelineKind pipeline) {
  RunConfig rc;
  rc.with_dataset(dataset, 0.005).with_pipeline(pipeline);
  rc.train.epochs = 3;
  rc.train.batch_size = 128;
  rc.train.seed = 5;
  rc.nessa.subset_fraction = 0.3;
  rc.nessa.partition_quota = 8;
  rc.parallelism = util::Parallelism::pooled();
  rc.validate_or_throw();
  return rc;
}

/// The run from inside a pool task: the pool runs nested parallel sections
/// inline, and a GEMM called there takes its whole row range in one call,
/// so no GEMM of this run is split at all.
RunResult run_on_one_thread(const RunConfig& rc) {
  auto& pool = util::ThreadPool::global();
  RunResult result;
  pool.parallel_for_chunked(0, 2, 1, [&](std::size_t lo, std::size_t) {
    if (lo != 0) return;
    EXPECT_TRUE(pool.size() == 1 || util::ThreadPool::in_parallel_region());
    result = run(rc);
  });
  return result;
}

TEST(TrainDeterminism, NessaOnThePoolEqualsOneThread) {
  const RunConfig rc = short_run("ImageNet-100", PipelineKind::kNessa);
  const RunResult pooled = run(rc);
  ASSERT_EQ(pooled.epochs.size(), rc.train.epochs);
  expect_identical(pooled, run_on_one_thread(rc));
}

TEST(TrainDeterminism, CraigOnThePoolEqualsOneThread) {
  const RunConfig rc = short_run("CIFAR-10", PipelineKind::kCraig);
  const RunResult pooled = run(rc);
  ASSERT_EQ(pooled.epochs.size(), rc.train.epochs);
  expect_identical(pooled, run_on_one_thread(rc));
}

}  // namespace
}  // namespace nessa::core
