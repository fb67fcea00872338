#include "nessa/nn/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nessa/tensor/ops.hpp"
#include "nessa/util/thread_pool.hpp"

namespace nessa::nn {

PenultimateForward forward_with_penultimate(Sequential& model,
                                            const Tensor& inputs) {
  // Find the index of the last layer that has parameters (the classifier
  // head); capture its input during a manual forward walk.
  std::size_t head = model.layer_count();
  for (std::size_t i = model.layer_count(); i-- > 0;) {
    if (!model.layer(i).params().empty()) {
      head = i;
      break;
    }
  }
  if (head == model.layer_count()) {
    throw std::logic_error("forward_with_penultimate: model has no parameters");
  }
  PenultimateForward out;
  Tensor x = inputs;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    if (i == head) out.penultimate = x;
    x = model.layer(i).forward(x, /*train=*/false);
  }
  out.logits = std::move(x);
  return out;
}

EmbeddingResult compute_embeddings(Sequential& model, const Tensor& inputs,
                                   std::span<const Label> labels,
                                   EmbeddingKind kind, std::size_t batch_size) {
  if (inputs.rank() != 2) {
    throw std::invalid_argument("compute_embeddings: inputs must be rank 2");
  }
  const std::size_t n = inputs.rows();
  const std::size_t dim = inputs.cols();
  if (labels.size() != n) {
    throw std::invalid_argument("compute_embeddings: label count mismatch");
  }
  if (batch_size == 0) batch_size = n;

  EmbeddingResult result;
  result.losses.resize(n);
  result.preds.resize(n);
  const std::size_t batches = n == 0 ? 0 : (n - 1) / batch_size + 1;

  // Scores batch b through `net`, writing only that batch's output rows.
  const auto score = [&](Sequential& net, std::size_t b) {
    const std::size_t start = b * batch_size;
    const std::size_t count = std::min(batch_size, n - start);
    Tensor batch({count, dim});
    std::copy_n(inputs.data() + start * dim, count * dim, batch.data());

    Tensor logits;
    Tensor penultimate;
    if (kind == EmbeddingKind::kScaledLogitGrad) {
      auto fwd = forward_with_penultimate(net, batch);
      logits = std::move(fwd.logits);
      penultimate = std::move(fwd.penultimate);
    } else {
      logits = net.forward(batch, /*train=*/false);
    }
    const std::size_t classes = logits.cols();
    if (result.embeddings.rank() != 2) {
      result.embeddings = Tensor({n, classes});
    }

    const SoftmaxCrossEntropy loss_fn;
    auto loss = loss_fn.forward(logits, labels.subspan(start, count));
    auto preds = tensor::argmax_rows(loss.probs);
    for (std::size_t i = 0; i < count; ++i) {
      result.losses[start + i] = loss.example_losses[i];
      result.preds[start + i] = preds[i];
      float scale = 1.0f;
      if (kind == EmbeddingKind::kScaledLogitGrad) {
        scale = tensor::l2_norm(penultimate.row(i));
        scale = std::max(scale, 1e-6f);
      }
      const Label y = labels[start + i];
      float* dst = result.embeddings.data() + (start + i) * classes;
      const float* probs = loss.probs.data() + i * classes;
      for (std::size_t c = 0; c < classes; ++c) {
        const float onehot = (static_cast<Label>(c) == y) ? 1.0f : 0.0f;
        dst[c] = (probs[c] - onehot) * scale;
      }
    }
  };

  if (batches == 0) return result;
  // The first batch fixes the embedding width, so it runs here.
  score(model, 0);
  auto& pool = util::ThreadPool::global();
  if (batches < 3 || pool.size() < 2 ||
      util::ThreadPool::in_parallel_region()) {
    for (std::size_t b = 1; b < batches; ++b) score(model, b);
    return result;
  }
  // Forward caches activations, so concurrent batches cannot share a
  // model: each slot scores every slots-th batch on its own clone, made
  // here. A clone's forward is the model's bit for bit, and the GEMMs
  // inside a pool task run unsplit, so the result equals the serial pass.
  const std::size_t slots = std::min(pool.size(), batches - 1);
  std::vector<Sequential> clones;
  clones.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) clones.push_back(model.clone());
  pool.parallel_for_chunked(0, slots, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      for (std::size_t b = 1 + s; b < batches; b += slots) {
        score(clones[s], b);
      }
    }
  });
  return result;
}

}  // namespace nessa::nn
