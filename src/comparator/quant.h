#ifndef REPRO_COMPARATOR_QUANT_H_
#define REPRO_COMPARATOR_QUANT_H_

#include <cstdint>
#include <vector>

#include "common/runtime_config.h"
#include "comparator/comparator.h"

namespace autocts {

/// Quantized inference twin of Comparator::CompareLogits.
///
/// The evolutionary search spends most comparator time in eval-mode
/// CompareLogits calls whose weights never change between pretraining and
/// the end of the search. This class snapshots those weights ONCE (bf16,
/// per AUTOCTS_COMPARATOR_PRECISION) and replays the forward pass off-tape
/// through the active kernel backend's bf16 GEMM (tensor/backend.h) — no
/// tape nodes, no plan capture, no Tensor allocations on the hot path.
///
/// Scope is deliberately narrow: ONLY comparator inference is quantized.
/// Comparator training, the forecaster, and every other eval path stay
/// fp32. The search consumes comparator outputs solely through pairwise
/// orderings (Eq. 21's 0.5 threshold), so the accuracy bar is RANK
/// agreement with fp32, not logit closeness; comparator_quant_test holds
/// this path to >= 99% pairwise agreement and identical top-K selections.
///
/// What is quantized: the GIN layer MLPs and the four head FC layers (the
/// GEMM-dominated work). The tiny input projections (one-hot gather + the
/// 6-wide hyper vector) and the adjacency aggregation stay fp32 — they are
/// a vanishing fraction of the FLOPs and the first layer is where
/// quantization noise compounds the most.
///
/// bf16 scheme: weights narrowed round-to-nearest-even, fp32 ascending-k
/// accumulation, bit-identical across kernel backends (see backend.h).
/// kFp32 is also accepted and replays the same off-tape path unquantized
/// (used by tests as the agreement oracle).
class QuantizedComparator {
 public:
  /// Snapshots `comparator`'s weights at the given precision. The
  /// comparator must outlive nothing — all weights are copied. Re-quantize
  /// (construct a new instance) after any further comparator training.
  QuantizedComparator(const Comparator& comparator,
                      ComparatorPrecision precision);

  /// Logits for a batch of comparisons; mirrors eval-mode
  /// Comparator::CompareLogits. `task_embeds` is [M, f2] when the source
  /// comparator is task-aware, ignored otherwise. Returns M logits.
  std::vector<float> CompareLogits(const EncodingBatch& first,
                                   const EncodingBatch& second,
                                   const Tensor& task_embeds) const;

  ComparatorPrecision precision() const { return precision_; }

 private:
  /// One snapshotted FC layer. Exactly one of the weight arrays is
  /// populated, matching `mode`.
  struct QLinear {
    ComparatorPrecision mode = ComparatorPrecision::kFp32;
    int in = 0;
    int out = 0;
    std::vector<float> bias;        ///< Empty when the layer has no bias.
    std::vector<float> w_f32;       ///< [in*out] (fp32 mode).
    std::vector<uint16_t> w_bf16;   ///< [in*out] (bf16 mode).
  };

  QLinear Snapshot(const Linear& layer, ComparatorPrecision mode) const;
  /// y[rows, q.out] = (relu? relu : id)(x[rows, q.in] · W + b).
  void Apply(const QLinear& q, const float* x, int rows, float* y,
             bool relu) const;
  /// Replays GinEncoder::Forward; returns row-major [B, embed_dim_].
  std::vector<float> GinForward(const EncodingBatch& batch) const;

  ComparatorPrecision precision_;
  bool task_aware_ = false;
  int embed_dim_ = 0;
  int fc_dim_ = 0;
  int f2_ = 0;

  // GIN encoder snapshot (input projections stay fp32 by design).
  QLinear op_proj_;
  QLinear hyper_proj_;
  std::vector<float> epsilons_;
  std::vector<QLinear> gin_fc1_;
  std::vector<QLinear> gin_fc2_;

  // Head FC snapshot.
  QLinear fc_pair_;
  QLinear fc_task_;  ///< Unused when !task_aware_.
  QLinear fc_o_;
  QLinear fc_out_;
};

}  // namespace autocts

#endif  // REPRO_COMPARATOR_QUANT_H_
