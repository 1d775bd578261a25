#ifndef REPRO_COMPARATOR_COMPARATOR_H_
#define REPRO_COMPARATOR_COMPARATOR_H_

#include <memory>
#include <vector>

#include "comparator/gin.h"
#include "embedding/set_transformer.h"
#include "searchspace/encoding.h"

namespace autocts {

/// The (Task-aware) Architecture-Hyperparameter Comparator.
///
/// Plain AHC (AutoCTS+): two arch-hypers enter through a shared GIN, their
/// embeddings are concatenated, refined by FC layers, and classified —
/// output 1 means "the first arch-hyper is at least as accurate".
///
/// T-AHC (AutoCTS++, Fig. 4) additionally embeds the task: the TS2Vec
/// preliminary embedding passes through the two-stage Set-Transformer
/// (Eq. 10–12) and an FC, and joins the pair embedding before the
/// classifier. Construct with `task_aware = false` for plain AHC and with
/// `mean_pool_tasks = true` for the "w/o Set-Transformer" ablation.
class Comparator : public Module {
 public:
  struct Options {
    GinEncoder::Options gin;
    int repr_dim = 16;   ///< TS2Vec F' (must match the task encoder).
    int f1 = 16;         ///< IntraSetPool output F'_1.
    int f2 = 8;          ///< InterSetPool output F'_2 (task vector size).
    int fc_dim = 32;     ///< Width of the FC refinement layers.
    bool task_aware = true;
    bool mean_pool_tasks = false;  ///< Ablation: mean-pool instead of PMA.
  };

  Comparator(const Options& options, uint64_t seed);

  /// Embeds a task's preliminary embedding [W, S, F'] into E' [f2].
  /// Requires task_aware.
  Tensor EmbedTask(const Tensor& preliminary) const;

  /// Logits for a batch of comparisons. `task_embeds` is [M, f2] (aligned
  /// with the pairs) when task_aware, ignored otherwise. Output [M].
  /// Equals CompareEmbedded(EmbedArchHypers(first), EmbedArchHypers(second),
  /// task_embeds).
  Tensor CompareLogits(const EncodingBatch& first, const EncodingBatch& second,
                       const Tensor& task_embeds) const;

  /// The Siamese half (Eq. 13–16): the shared GIN embeds each arch-hyper on
  /// its own, [B] encodings -> l_a [B, D]. Row-local, so one embedding
  /// serves every duel its arch-hyper takes part in.
  Tensor EmbedArchHypers(const EncodingBatch& batch) const;

  /// The pair head (Eq. 17–21) over embedded rows: `l1`, `l2` [M, D] and
  /// `task_embeds` as in CompareLogits. Output [M] logits.
  Tensor CompareEmbedded(const Tensor& l1, const Tensor& l2,
                         const Tensor& task_embeds) const;

  /// Probability that `first` is at least as accurate as `second` on the
  /// task (single pair, eval mode).
  double CompareProb(const ArchHyperEncoding& first,
                     const ArchHyperEncoding& second,
                     const Tensor& task_embed) const;

  /// Binary decision with the paper's 0.5 threshold (Eq. 21).
  bool Prefers(const ArchHyperEncoding& first, const ArchHyperEncoding& second,
               const Tensor& task_embed) const {
    return CompareProb(first, second, task_embed) >= 0.5;
  }

  const Options& options() const { return options_; }

  /// Read-only submodule views for off-tape inference paths
  /// (comparator/quant.h snapshots these weights once at quantize time).
  const GinEncoder& gin() const { return gin_; }
  const Linear& fc_pair() const { return *fc_pair_; }
  const Linear* fc_task() const { return fc_task_.get(); }  ///< Null if !task_aware.
  const Linear& fc_o() const { return *fc_o_; }
  const Linear& fc_out() const { return *fc_out_; }

 private:
  Options options_;
  mutable Rng rng_;
  GinEncoder gin_;
  std::unique_ptr<TaskEmbedModule> task_module_;  // Null when !task_aware.
  std::unique_ptr<Linear> fc_pair_;   ///< FC_L (Eq. 17).
  std::unique_ptr<Linear> fc_task_;   ///< FC_E (Eq. 18).
  std::unique_ptr<Linear> fc_o_;      ///< First classifier layer (Eq. 20).
  std::unique_ptr<Linear> fc_out_;    ///< Final logit layer (Eq. 21).
};

}  // namespace autocts

#endif  // REPRO_COMPARATOR_COMPARATOR_H_
