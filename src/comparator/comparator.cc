#include "comparator/comparator.h"

#include "tensor/fused.h"
#include "tensor/ops.h"

namespace autocts {

Comparator::Comparator(const Options& options, uint64_t seed)
    : options_(options), rng_(seed), gin_(options.gin, &rng_) {
  AddChild(&gin_);
  const int d = options.gin.embed_dim;
  if (options.task_aware) {
    task_module_ = std::make_unique<TaskEmbedModule>(options.repr_dim,
                                                     options.f1, options.f2,
                                                     &rng_);
    AddChild(task_module_.get());
    fc_task_ = std::make_unique<Linear>(options.f2, options.fc_dim, &rng_);
    AddChild(fc_task_.get());
  }
  fc_pair_ = std::make_unique<Linear>(2 * d, options.fc_dim, &rng_);
  AddChild(fc_pair_.get());
  const int o_in = options.task_aware ? 2 * options.fc_dim : options.fc_dim;
  fc_o_ = std::make_unique<Linear>(o_in, options.fc_dim, &rng_);
  fc_out_ = std::make_unique<Linear>(options.fc_dim, 1, &rng_);
  AddChild(fc_o_.get());
  AddChild(fc_out_.get());
}

Tensor Comparator::EmbedTask(const Tensor& preliminary) const {
  CHECK(options_.task_aware) << "plain AHC has no task path";
  return options_.mean_pool_tasks
             ? task_module_->MeanPoolForward(preliminary)
             : task_module_->Forward(preliminary);
}

Tensor Comparator::CompareLogits(const EncodingBatch& first,
                                 const EncodingBatch& second,
                                 const Tensor& task_embeds) const {
  // Sequenced: the tape order (and so the gradient accumulation order of
  // the shared GIN weights) must be first, then second.
  Tensor l1 = EmbedArchHypers(first);   // [M, D]
  Tensor l2 = EmbedArchHypers(second);  // [M, D]
  return CompareEmbedded(l1, l2, task_embeds);
}

Tensor Comparator::EmbedArchHypers(const EncodingBatch& batch) const {
  return gin_.Forward(batch);  // [B, D]
}

Tensor Comparator::CompareEmbedded(const Tensor& l1, const Tensor& l2,
                                   const Tensor& task_embeds) const {
  const int m = l1.dim(0);
  CHECK_EQ(l2.dim(0), m);
  Tensor pair =
      fc_pair_->Forward(Concat({l1, l2}, -1), FusedAct::kRelu);  // Eq. 16–17.
  Tensor o = pair;
  if (options_.task_aware) {
    CHECK(task_embeds.defined());
    CHECK_EQ(task_embeds.dim(0), m);
    Tensor te = fc_task_->Forward(task_embeds, FusedAct::kRelu);  // Eq. 18.
    o = Concat({pair, te}, -1);                                   // Eq. 19.
  }
  Tensor hidden = fc_o_->Forward(o, FusedAct::kRelu);  // Eq. 20.
  return Reshape(fc_out_->Forward(hidden), {m});       // Logits (Eq. 21).
}

double Comparator::CompareProb(const ArchHyperEncoding& first,
                               const ArchHyperEncoding& second,
                               const Tensor& task_embed) const {
  EncodingBatch b1 = StackEncodings({first});
  EncodingBatch b2 = StackEncodings({second});
  Tensor te;
  if (options_.task_aware) {
    CHECK(task_embed.defined());
    te = Reshape(task_embed, {1, options_.f2});
  }
  Tensor logits = CompareLogits(b1, b2, te);
  return 1.0 / (1.0 + std::exp(-static_cast<double>(logits.item())));
}

}  // namespace autocts
