#include "nessa/core/near_storage.hpp"

#include <algorithm>
#include <stdexcept>

#include "nessa/nn/embedding.hpp"
#include "nessa/nn/loss.hpp"
#include "nessa/tensor/ops.hpp"
#include "nessa/util/thread_pool.hpp"

namespace nessa::core {

namespace {

/// Scores `pool` in fixed batches of `batch_size` rows: `forward(features)`
/// runs the kernel (returning logits and the penultimate activation), then
/// each row's loss, correctness and gradient embedding (softmax - onehot,
/// optionally scaled by ||penultimate||) land in its own output slot. The
/// batches are the same slices of `pool` whatever the thread count, and
/// each writes only its own rows, so a pooled scan equals the serial one
/// bit for bit. `classes` == 0 means the output width is only known after
/// the first forward; such a scan must be serial.
template <class Forward>
QEmbeddings score_batches(const data::Split& split,
                          std::span<const std::size_t> pool, bool scaled,
                          std::size_t batch_size, std::size_t classes,
                          util::Parallelism parallelism, Forward&& forward) {
  using tensor::Tensor;
  const std::size_t n = pool.size();
  const std::size_t dim = split.dim();
  if (batch_size == 0) batch_size = std::max<std::size_t>(1, n);
  QEmbeddings out;
  out.losses.resize(n);
  if (n > 0 && classes > 0) out.embeddings = Tensor({n, classes});
  // One byte per row: neighbouring bits of a vector<bool> cannot be
  // written from different threads.
  std::vector<std::uint8_t> correct(n);

  const auto score = [&](std::size_t first, std::size_t last) {
    const nn::SoftmaxCrossEntropy loss_fn;
    for (std::size_t b = first; b < last; ++b) {
      const std::size_t start = b * batch_size;
      const std::size_t count = std::min(batch_size, n - start);
      Tensor batch({count, dim});
      std::vector<nn::Label> labels(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t row = pool[start + i];
        std::copy_n(split.features.data() + row * dim, dim,
                    batch.data() + i * dim);
        labels[i] = split.labels[row];
      }
      const auto fwd = forward(batch);
      const std::size_t width = fwd.logits.cols();
      if (out.embeddings.rank() != 2) out.embeddings = Tensor({n, width});
      const auto loss = loss_fn.forward(fwd.logits, labels);
      for (std::size_t i = 0; i < count; ++i) {
        out.losses[start + i] = loss.example_losses[i];
        float scale = 1.0f;
        if (scaled) {
          scale = std::max(tensor::l2_norm(fwd.penultimate.row(i)), 1e-6f);
        }
        const float* probs = loss.probs.data() + i * width;
        std::size_t argmax = 0;
        for (std::size_t c = 1; c < width; ++c) {
          if (probs[c] > probs[argmax]) argmax = c;
        }
        correct[start + i] = static_cast<nn::Label>(argmax) == labels[i];
        float* dst = out.embeddings.data() + (start + i) * width;
        for (std::size_t c = 0; c < width; ++c) {
          const float onehot =
              static_cast<nn::Label>(c) == labels[i] ? 1.0f : 0.0f;
          dst[c] = (probs[c] - onehot) * scale;
        }
      }
    }
  };
  const std::size_t batches = n == 0 ? 0 : (n - 1) / batch_size + 1;
  if (parallelism && classes > 0) {
    util::ThreadPool::global().parallel_for_chunked(0, batches, 1, score);
  } else {
    score(0, batches);
  }
  out.correct.assign(correct.begin(), correct.end());
  return out;
}

}  // namespace

QEmbeddings compute_q_embeddings(const quant::QuantizedMlp& qmodel,
                                 const data::Split& split,
                                 std::span<const std::size_t> pool,
                                 bool scaled, std::size_t batch_size,
                                 util::Parallelism parallelism) {
  return score_batches(split, pool, scaled, batch_size, qmodel.output_dim(),
                       parallelism, [&](const tensor::Tensor& batch) {
                         return qmodel.forward_with_penultimate(batch);
                       });
}

namespace {

class QuantizedSelectionModel final : public SelectionModel {
 public:
  QuantizedSelectionModel(const nn::Sequential& target,
                          util::Parallelism parallelism)
      : qmodel_(quant::QuantizedMlp::from_model(target)),
        parallelism_(parallelism) {}

  QEmbeddings score(const data::Split& split,
                    std::span<const std::size_t> pool, bool scaled,
                    std::size_t batch_size) override {
    return compute_q_embeddings(qmodel_, split, pool, scaled, batch_size,
                                parallelism_);
  }

  void refresh(const nn::Sequential& target) override {
    qmodel_.refresh_from(target);
  }

  std::size_t payload_bytes() const override {
    return qmodel_.payload_bytes();
  }

  double mac_cost_factor() const override { return 1.0; }

 private:
  quant::QuantizedMlp qmodel_;
  util::Parallelism parallelism_;
};

class FloatSelectionModel final : public SelectionModel {
 public:
  explicit FloatSelectionModel(const nn::Sequential& target)
      : model_(target.clone()) {}

  QEmbeddings score(const data::Split& split,
                    std::span<const std::size_t> pool, bool scaled,
                    std::size_t batch_size) override {
    // Serial: Sequential::forward caches activations, so one model cannot
    // score two batches at once.
    return score_batches(split, pool, scaled, batch_size, 0,
                         util::Parallelism::serial(),
                         [&](const tensor::Tensor& batch) {
                           return nn::forward_with_penultimate(model_, batch);
                         });
  }

  void refresh(const nn::Sequential& target) override {
    model_.load_params_from(target);
  }

  std::size_t payload_bytes() const override {
    return model_.parameter_count() * sizeof(float);
  }

  double mac_cost_factor() const override { return 2.0; }

 private:
  nn::Sequential model_;
};

}  // namespace

std::unique_ptr<SelectionModel> make_quantized_selection_model(
    const nn::Sequential& target, util::Parallelism parallelism) {
  return std::make_unique<QuantizedSelectionModel>(target, parallelism);
}

std::unique_ptr<SelectionModel> make_float_selection_model(
    const nn::Sequential& target) {
  return std::make_unique<FloatSelectionModel>(target);
}

std::unique_ptr<SelectionModel> make_selection_model(
    const nn::Sequential& target, util::Parallelism parallelism) {
  try {
    return make_quantized_selection_model(target, parallelism);
  } catch (const std::invalid_argument&) {
    return make_float_selection_model(target);
  }
}

}  // namespace nessa::core
