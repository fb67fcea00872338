// The int8 near-storage scan spreads its batches over the global thread
// pool. Batch boundaries depend only on the batch size and each batch
// writes only its own rows, so pooled and serial scans must agree bit for
// bit, through compute_q_embeddings, the SelectionModel wrapper, and the
// chunked score_pool path. CTest also reruns this suite with NESSA_THREADS
// at 1, 2 and 4 to cover those pool sizes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string>

#include "../../src/core/src/pipeline_common.hpp"
#include "nessa/core/near_storage.hpp"
#include "nessa/data/synthetic.hpp"
#include "nessa/util/thread_pool.hpp"

namespace nessa::core {
namespace {

const data::Dataset& scan_dataset() {
  static const data::Dataset ds = [] {
    data::SyntheticConfig cfg;
    cfg.num_classes = 7;
    cfg.train_size = 1000;
    cfg.test_size = 50;
    cfg.feature_dim = 24;
    cfg.seed = 31;
    return data::make_synthetic(cfg);
  }();
  return ds;
}

nn::Sequential scan_model() {
  util::Rng rng(9);
  return nn::Sequential::mlp({24, 40, 33, 7}, rng);
}

/// Every third row skipped, so batches straddle gaps in the split.
std::vector<std::size_t> scan_pool() {
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < scan_dataset().train_size(); ++i) {
    if (i % 3 != 2) pool.push_back(i);
  }
  return pool;
}

void expect_identical(const QEmbeddings& a, const QEmbeddings& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  ASSERT_EQ(a.embeddings.shape(), b.embeddings.shape());
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.losses[i]),
              std::bit_cast<std::uint32_t>(b.losses[i]))
        << "loss at row " << i;
    ASSERT_EQ(a.correct[i], b.correct[i]) << "correct at row " << i;
  }
  for (std::size_t i = 0; i < a.embeddings.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.embeddings[i]),
              std::bit_cast<std::uint32_t>(b.embeddings[i]))
        << "embedding element " << i;
  }
}

TEST(ScanDeterminism, GlobalPoolHonoursNessaThreads) {
  const char* env = std::getenv("NESSA_THREADS");
  if (env == nullptr) {
    EXPECT_GE(util::ThreadPool::global().size(), 1u);
  } else {
    EXPECT_EQ(util::ThreadPool::global().size(), std::stoul(env));
  }
}

TEST(ScanDeterminism, PooledEqualsSerialForEveryBatchSize) {
  const auto qmodel = quant::QuantizedMlp::from_model(scan_model());
  const auto pool = scan_pool();
  for (const std::size_t batch : {1u, 7u, 64u, 128u, 0u}) {
    for (const bool scaled : {false, true}) {
      const auto serial = compute_q_embeddings(
          qmodel, scan_dataset().train(), pool, scaled, batch,
          util::Parallelism::serial());
      const auto pooled = compute_q_embeddings(
          qmodel, scan_dataset().train(), pool, scaled, batch,
          util::Parallelism::pooled());
      SCOPED_TRACE("batch " + std::to_string(batch));
      expect_identical(serial, pooled);
    }
  }
}

TEST(ScanDeterminism, OversizedBatchIsTheWholePool) {
  // batch_size 0 means one batch holding the whole pool; so does any batch
  // size past the pool, up to SIZE_MAX.
  const auto qmodel = quant::QuantizedMlp::from_model(scan_model());
  const auto pool = scan_pool();
  const auto whole = compute_q_embeddings(qmodel, scan_dataset().train(),
                                          pool, false, 0,
                                          util::Parallelism::serial());
  EXPECT_GT(whole.losses.front(), 0.0f);
  expect_identical(
      whole, compute_q_embeddings(qmodel, scan_dataset().train(), pool, false,
                                  std::numeric_limits<std::size_t>::max(),
                                  util::Parallelism::pooled()));
}

TEST(ScanDeterminism, EmptyPoolScansToEmptyResult) {
  const auto qmodel = quant::QuantizedMlp::from_model(scan_model());
  const auto out =
      compute_q_embeddings(qmodel, scan_dataset().train(), {}, false, 16,
                           util::Parallelism::pooled());
  EXPECT_TRUE(out.losses.empty());
  EXPECT_TRUE(out.correct.empty());
}

TEST(ScanDeterminism, SelectionModelHonoursParallelism) {
  const auto model = scan_model();
  const auto pool = scan_pool();
  auto serial = make_selection_model(model, util::Parallelism::serial());
  auto pooled = make_selection_model(model, util::Parallelism::pooled());
  expect_identical(serial->score(scan_dataset().train(), pool, true, 32),
                   pooled->score(scan_dataset().train(), pool, true, 32));
}

TEST(ScanDeterminism, ChunkedPooledScanEqualsMonolithicSerial) {
  // 667 rows in batches of 8 are 84 batches: several 16-batch staging
  // flushes plus a partial one, over 50-row chunks.
  const auto& ds = scan_dataset();
  const auto model = scan_model();
  const auto pool = scan_pool();
  auto serial = make_selection_model(model, util::Parallelism::serial());
  auto pooled = make_selection_model(model, util::Parallelism::pooled());
  const auto mono =
      detail::score_pool(*serial, ds.train(), pool, false, 8,
                         /*chunk_samples=*/0, ds.stored_bytes_per_sample());
  const auto chunked =
      detail::score_pool(*pooled, ds.train(), pool, false, 8,
                         /*chunk_samples=*/50, ds.stored_bytes_per_sample());
  EXPECT_GT(chunked.chunk_fetches, 0u);
  expect_identical(mono.emb, chunked.emb);
}

}  // namespace
}  // namespace nessa::core
