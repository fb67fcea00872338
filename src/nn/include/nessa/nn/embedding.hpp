// Per-example gradient embeddings — the signal the selection model ranks.
//
// Following CRAIG (Mirzasoleiman et al., ICML'20) and the NeSSA selection
// model (§3.1), the gradient of the loss w.r.t. the last layer's
// pre-activations, g_i = p_i - onehot(y_i), is used as a cheap, provably
// effective proxy for the full per-example gradient: distances between these
// low-dimensional vectors upper-bound (up to a constant) distances between
// full gradients. The "scaled" variant multiplies by the penultimate
// activation norm, recovering the exact norm of the last-layer weight
// gradient outer(a_i, g_i).
#pragma once

#include <span>

#include "nessa/nn/loss.hpp"
#include "nessa/nn/model.hpp"

namespace nessa::nn {

enum class EmbeddingKind {
  kLogitGrad,        ///< g_i = p_i - onehot(y_i)           (dim = classes)
  kScaledLogitGrad,  ///< g_i scaled by ||penultimate a_i||  (dim = classes)
};

struct EmbeddingResult {
  Tensor embeddings;               ///< [n, classes]
  std::vector<float> losses;       ///< per-example NLL, length n
  std::vector<std::size_t> preds;  ///< argmax predictions, length n
};

/// Run `model` forward (inference mode) over the rows of `inputs` and build
/// gradient embeddings against `labels`, `batch_size` rows at a time. The
/// batches after the first run concurrently on the global pool, each
/// through its own clone of `model`; the result is the serial pass's bit
/// for bit, for any pool size and batch size. Small batches keep each
/// worker's activations small: 256-row batches on the pool raised a CRAIG
/// run's peak RSS by 2-3 MB, 32-row ones by nothing measurable.
EmbeddingResult compute_embeddings(Sequential& model, const Tensor& inputs,
                                   std::span<const Label> labels,
                                   EmbeddingKind kind,
                                   std::size_t batch_size = 32);

/// Forward pass that also captures the activation entering the last
/// parameterized (Dense) layer. Used by the scaled embedding and tested
/// directly.
struct PenultimateForward {
  Tensor logits;
  Tensor penultimate;
};
PenultimateForward forward_with_penultimate(Sequential& model,
                                            const Tensor& inputs);

}  // namespace nessa::nn
