// Rank agreement of the quantized comparator inference path
// (comparator/quant.h) against fp32. The search consumes comparator logits
// only through pairwise orderings, so the acceptance bar is: >= 99% of
// pairwise verdicts agree with fp32 and the top-K candidates selected by
// round-robin win counts are identical — for bf16, at a fixed seed. Also checks that quantized logits are bit-identical across
// kernel backends (they dispatch through tensor/backend.h) and that the
// off-tape fp32 replay tracks the tensor-path logits closely.
#include "comparator/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/optimizer.h"
#include "searchspace/search_space.h"
#include "tensor/backend.h"
#include "tensor/ops.h"

namespace autocts {
namespace {

Comparator::Options SmallOptions(bool task_aware) {
  Comparator::Options opts;
  opts.gin.layers = 3;
  opts.gin.embed_dim = 16;
  opts.repr_dim = 8;
  opts.f1 = 8;
  opts.f2 = 8;
  opts.fc_dim = 32;
  opts.task_aware = task_aware;
  return opts;
}

/// The training pool and conditioning used by TrainOnSyntheticOrder; the
/// rank-agreement sweep runs over the SAME candidates and task embedding.
/// Fresh candidates (or a fresh task embedding) would put many pairs at
/// near-zero logits whose signs are numerical noise — no precision,
/// including fp32-vs-fp32 with a different summation order, could agree on
/// them. Ranking in the search always runs a *pretrained* comparator, so
/// the rank-agreement bar is measured in that regime: logits with learned
/// margins.
struct SyntheticOrder {
  std::vector<ArchHyperEncoding> encs;
  Tensor task_row;  ///< Undefined when the comparator is not task-aware.
};

/// Trains the comparator to rank a synthetic total order (each candidate
/// gets a random latent score; the label says whether first's score wins).
SyntheticOrder TrainOnSyntheticOrder(Comparator* comparator, int steps,
                                     uint64_t seed) {
  Rng rng(seed);
  JointSearchSpace space;
  const int pool = 24;
  const int batch = 16;
  std::vector<ArchHyperEncoding> encs;
  std::vector<float> score;
  for (int i = 0; i < pool; ++i) {
    encs.push_back(EncodeArchHyper(space.Sample(&rng)));
    score.push_back(rng.Normal(0.0f, 1.0f));
  }
  const bool task_aware = comparator->options().task_aware;
  Tensor task_row;
  if (task_aware) {
    task_row = Tensor::Randn({1, comparator->options().f2}, &rng);
  }
  comparator->SetTraining(true);
  Adam adam(comparator->Parameters(), {});
  for (int s = 0; s < steps; ++s) {
    std::vector<ArchHyperEncoding> first, second;
    std::vector<float> target;
    for (int b = 0; b < batch; ++b) {
      const int i = rng.Int(0, pool - 1);
      int j = rng.Int(0, pool - 2);
      if (j >= i) ++j;
      first.push_back(encs[static_cast<size_t>(i)]);
      second.push_back(encs[static_cast<size_t>(j)]);
      target.push_back(score[static_cast<size_t>(i)] >=
                               score[static_cast<size_t>(j)]
                           ? 1.0f
                           : 0.0f);
    }
    EncodingBatch b1 = StackEncodings(first);
    EncodingBatch b2 = StackEncodings(second);
    Tensor te;
    if (task_aware) {
      std::vector<Tensor> rows(static_cast<size_t>(batch), task_row);
      te = Concat(rows, 0);
    }
    adam.ZeroGrad();
    Tensor logits = comparator->CompareLogits(b1, b2, te);
    Tensor loss = BceLoss(Sigmoid(logits),
                          Tensor::FromVector({batch}, std::move(target)));
    loss.Backward();
    adam.Step();
    loss.ReleaseTape();
  }
  comparator->SetTraining(false);
  return {std::move(encs), task_row};
}

struct PairSweep {
  std::vector<float> fp32_logits;      ///< Tensor-path fp32 logits.
  std::vector<float> quant_logits;     ///< Quantized-path logits.
  std::vector<int> wins_fp32;          ///< Round-robin wins per candidate.
  std::vector<int> wins_quant;
  double agreement = 0.0;              ///< Fraction of agreeing verdicts.
};

/// All ordered pairs (i, j), i != j, over `order`'s candidates, scored by
/// the fp32 comparator and by `quant`, conditioned on `order`'s task
/// embedding when the comparator is task-aware.
PairSweep SweepAllPairs(const Comparator& comparator,
                        const QuantizedComparator& quant,
                        const SyntheticOrder& order) {
  const std::vector<ArchHyperEncoding>& encs = order.encs;
  const Tensor& task_row = order.task_row;
  const int count = static_cast<int>(encs.size());

  PairSweep sweep;
  sweep.wins_fp32.assign(count, 0);
  sweep.wins_quant.assign(count, 0);
  int agree = 0, total = 0;
  NoGradScope no_grad;
  for (int i = 0; i < count; ++i) {
    std::vector<ArchHyperEncoding> first, second;
    std::vector<int> js;
    for (int j = 0; j < count; ++j) {
      if (j == i) continue;
      first.push_back(encs[static_cast<size_t>(i)]);
      second.push_back(encs[static_cast<size_t>(j)]);
      js.push_back(j);
    }
    const int m = static_cast<int>(first.size());
    EncodingBatch b1 = StackEncodings(first);
    EncodingBatch b2 = StackEncodings(second);
    Tensor te;
    if (comparator.options().task_aware) {
      std::vector<Tensor> rows(static_cast<size_t>(m), task_row);
      te = Concat(rows, 0);
    }
    Tensor ref = comparator.CompareLogits(b1, b2, te);
    std::vector<float> got = quant.CompareLogits(b1, b2, te);
    for (int r = 0; r < m; ++r) {
      const float ref_logit = ref.at(r);
      const float got_logit = got[static_cast<size_t>(r)];
      sweep.fp32_logits.push_back(ref_logit);
      sweep.quant_logits.push_back(got_logit);
      const bool ref_win = ref_logit >= 0.0f;
      const bool got_win = got_logit >= 0.0f;
      agree += ref_win == got_win ? 1 : 0;
      ++total;
      if (ref_win) ++sweep.wins_fp32[static_cast<size_t>(i)];
      if (got_win) ++sweep.wins_quant[static_cast<size_t>(i)];
    }
  }
  sweep.agreement = static_cast<double>(agree) / total;
  return sweep;
}

/// `count` freshly sampled candidates plus a random task embedding: the
/// sweep input for the fp32-replay test, which needs no learned margins
/// (it checks near-equality of the same math, not quantization rank).
SyntheticOrder SampleOrder(const Comparator& comparator, int count,
                           uint64_t seed) {
  Rng rng(seed);
  JointSearchSpace space;
  SyntheticOrder order;
  for (int i = 0; i < count; ++i) {
    order.encs.push_back(EncodeArchHyper(space.Sample(&rng)));
  }
  if (comparator.options().task_aware) {
    order.task_row = Tensor::Randn({1, comparator.options().f2}, &rng);
  }
  return order;
}

/// Top-k candidate indices by descending win count (ties by lower index —
/// the same deterministic rule for both columns).
std::vector<int> TopK(const std::vector<int>& wins, int k) {
  std::vector<int> order(wins.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return wins[static_cast<size_t>(a)] > wins[static_cast<size_t>(b)];
  });
  order.resize(static_cast<size_t>(k));
  return order;
}

class ComparatorQuantTest : public ::testing::TestWithParam<bool> {};

TEST_P(ComparatorQuantTest, Fp32ReplayTracksTensorPath) {
  const bool task_aware = GetParam();
  Comparator comparator(SmallOptions(task_aware), /*seed=*/21);
  comparator.SetTraining(false);
  QuantizedComparator quant(comparator, ComparatorPrecision::kFp32);
  PairSweep sweep =
      SweepAllPairs(comparator, quant, SampleOrder(comparator, 12, 77));
  // Same math modulo op fusion/blocking differences: near-equal, and the
  // orderings must agree everywhere.
  for (size_t i = 0; i < sweep.fp32_logits.size(); ++i) {
    EXPECT_NEAR(sweep.fp32_logits[i], sweep.quant_logits[i], 1e-4)
        << "pair " << i;
  }
  EXPECT_EQ(sweep.agreement, 1.0);
}

TEST_P(ComparatorQuantTest, Bf16RankAgreement) {
  const bool task_aware = GetParam();
  Comparator comparator(SmallOptions(task_aware), /*seed=*/21);
  SyntheticOrder order = TrainOnSyntheticOrder(&comparator, /*steps=*/150,
                                               /*seed=*/31);
  QuantizedComparator quant(comparator, ComparatorPrecision::kBf16);
  PairSweep sweep = SweepAllPairs(comparator, quant, order);
  EXPECT_GE(sweep.agreement, 0.99);
  EXPECT_EQ(TopK(sweep.wins_fp32, 2), TopK(sweep.wins_quant, 2));
}

TEST_P(ComparatorQuantTest, TwoPassBf16LogitsBitIdentical) {
  // The two-pass ranking path embeds each candidate once (GinForward, one
  // batch for all) and scores duels with the head only (CompareEmbedded);
  // its logits must equal the one-pass CompareLogits bit for bit.
  const bool task_aware = GetParam();
  Comparator comparator(SmallOptions(task_aware), /*seed=*/21);
  comparator.SetTraining(false);
  const QuantizedComparator quant(comparator, ComparatorPrecision::kBf16);
  const SyntheticOrder order = SampleOrder(comparator, 12, 78);
  const int count = static_cast<int>(order.encs.size());
  const int d = SmallOptions(task_aware).gin.embed_dim;
  const std::vector<float> embeds =
      quant.GinForward(StackEncodings(order.encs));
  ASSERT_EQ(embeds.size(), static_cast<size_t>(count) * d);

  std::vector<ArchHyperEncoding> first, second;
  std::vector<float> l1, l2;
  for (int i = 0; i < count; ++i) {
    for (int j = 0; j < count; ++j) {
      if (i == j) continue;
      first.push_back(order.encs[static_cast<size_t>(i)]);
      second.push_back(order.encs[static_cast<size_t>(j)]);
      l1.insert(l1.end(), embeds.begin() + i * d, embeds.begin() + (i + 1) * d);
      l2.insert(l2.end(), embeds.begin() + j * d, embeds.begin() + (j + 1) * d);
    }
  }
  const int m = static_cast<int>(first.size());
  Tensor te;
  if (task_aware) {
    te = Concat(std::vector<Tensor>(static_cast<size_t>(m), order.task_row), 0);
  }
  const std::vector<float> one_pass =
      quant.CompareLogits(StackEncodings(first), StackEncodings(second), te);
  const std::vector<float> two_pass = quant.CompareEmbedded(
      l1.data(), l2.data(), m, task_aware ? te.data().data() : nullptr);
  ASSERT_EQ(one_pass.size(), two_pass.size());
  EXPECT_EQ(0, std::memcmp(one_pass.data(), two_pass.data(),
                           one_pass.size() * sizeof(float)));
}

INSTANTIATE_TEST_SUITE_P(TaskAwareAndPlain, ComparatorQuantTest,
                         ::testing::Values(true, false));

TEST(ComparatorQuantBackendTest, LogitsBitIdenticalAcrossBackends) {
  Comparator comparator(SmallOptions(/*task_aware=*/false), /*seed=*/5);
  comparator.SetTraining(false);
  Rng rng(9);
  JointSearchSpace space;
  std::vector<ArchHyperEncoding> first, second;
  for (int i = 0; i < 8; ++i) {
    first.push_back(EncodeArchHyper(space.Sample(&rng)));
    second.push_back(EncodeArchHyper(space.Sample(&rng)));
  }
  EncodingBatch b1 = StackEncodings(first);
  EncodingBatch b2 = StackEncodings(second);

  const std::string original = kernels::ActiveBackend().name;
  const ComparatorPrecision precision = ComparatorPrecision::kBf16;
  QuantizedComparator quant(comparator, precision);
  std::vector<float> want;
  for (const kernels::Backend* backend : kernels::AvailableBackends()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend->name));
    std::vector<float> got = quant.CompareLogits(b1, b2, Tensor());
    if (want.empty()) {
      want = got;
      continue;
    }
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(float)))
        << backend->name << " at precision "
        << ComparatorPrecisionName(precision);
  }
  ASSERT_TRUE(kernels::SetActiveBackend(original));
}

}  // namespace
}  // namespace autocts
