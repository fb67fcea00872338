// The near-storage computations the SmartSSD FPGA kernel performs, exposed
// as library API so single- and multi-device trainers (and downstream
// users) share one implementation:
//  - the quantized forward pass producing gradient embeddings, losses and
//    per-sample correctness over a candidate pool, and
//  - the rolling per-sample loss history behind §3.2.2 subset biasing.
#pragma once

#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "nessa/data/dataset.hpp"
#include "nessa/quant/qmodel.hpp"
#include "nessa/util/parallelism.hpp"

namespace nessa::core {

struct QEmbeddings {
  tensor::Tensor embeddings;   ///< [pool, classes] gradient embeddings
  std::vector<float> losses;   ///< per pool row
  std::vector<bool> correct;   ///< per pool row
};

/// Quantized near-storage forward pass over the pooled candidates: what the
/// FPGA kernel computes each selection round. `pool` holds row indices into
/// `split`; `scaled` selects the ||penultimate||-scaled embedding variant.
/// The pool is scored in slices of `batch_size` rows (activations are
/// quantized per slice); with `parallelism` on, the slices run on the
/// global thread pool. Each slice writes only its own rows, so the result
/// is bit-identical for every thread count.
QEmbeddings compute_q_embeddings(const quant::QuantizedMlp& qmodel,
                                 const data::Split& split,
                                 std::span<const std::size_t> pool,
                                 bool scaled, std::size_t batch_size,
                                 util::Parallelism parallelism = {});

/// The model copy living on the selection device, abstracted over kernel
/// arithmetic. The paper's kernel is the int8-quantized target model
/// (contribution 2); the float variant supports target architectures the
/// int8 MLP kernel cannot express (e.g. convolutional targets) at 4x the
/// feedback bytes and roughly 2x the modeled forward cost.
class SelectionModel {
 public:
  virtual ~SelectionModel() = default;

  /// Score a candidate pool: gradient embeddings + losses + correctness.
  virtual QEmbeddings score(const data::Split& split,
                            std::span<const std::size_t> pool, bool scaled,
                            std::size_t batch_size) = 0;

  /// §3.2.1 feedback: refresh from the freshly trained target model.
  virtual void refresh(const nn::Sequential& target) = 0;

  /// Bytes shipped per feedback refresh.
  [[nodiscard]] virtual std::size_t payload_bytes() const = 0;

  /// Relative cost of one scoring MAC vs the int8 kernel's (1.0 = int8).
  [[nodiscard]] virtual double mac_cost_factor() const = 0;
};

/// Int8 kernel (wraps quant::QuantizedMlp); `parallelism` is handed to
/// every compute_q_embeddings call. Throws std::invalid_argument at
/// construction if the target contains layers the int8 MLP kernel cannot
/// express.
std::unique_ptr<SelectionModel> make_quantized_selection_model(
    const nn::Sequential& target, util::Parallelism parallelism = {});

/// Float kernel: a deep copy of the target refreshed by weight copy. It
/// always scores serially (Sequential::forward is not thread-safe).
std::unique_ptr<SelectionModel> make_float_selection_model(
    const nn::Sequential& target);

/// Quantized if the architecture allows it, float otherwise.
std::unique_ptr<SelectionModel> make_selection_model(
    const nn::Sequential& target, util::Parallelism parallelism = {});

/// Rolling per-sample loss statistics for §3.2.2 subset biasing: the most
/// recent `window` recorded losses per sample, with an infinite mean for
/// samples never observed (so they are never treated as "learned").
class LossHistory {
 public:
  LossHistory(std::size_t samples, std::size_t window)
      : window_(window), histories_(samples) {}

  void record(std::size_t sample, float loss) {
    auto& h = histories_.at(sample);
    if (h.size() == window_) h.erase(h.begin());
    h.push_back(loss);
  }

  [[nodiscard]] double windowed_mean(std::size_t sample) const {
    const auto& h = histories_.at(sample);
    if (h.empty()) return std::numeric_limits<double>::infinity();
    double s = 0.0;
    for (float x : h) s += x;
    return s / static_cast<double>(h.size());
  }

  [[nodiscard]] std::size_t window() const noexcept { return window_; }

  /// Raw per-sample windows, for checkpoint/restore.
  [[nodiscard]] const std::vector<std::vector<float>>& windows()
      const noexcept {
    return histories_;
  }
  /// Restore from a snapshot; the sample count must match the history's.
  void restore(std::vector<std::vector<float>> windows) {
    if (windows.size() != histories_.size()) {
      throw std::invalid_argument(
          "LossHistory::restore: sample count mismatch");
    }
    histories_ = std::move(windows);
  }

 private:
  std::size_t window_;
  std::vector<std::vector<float>> histories_;
};

}  // namespace nessa::core
