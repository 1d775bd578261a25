#include "comparator/duels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>

#include "common/check.h"
#include "common/guard.h"
#include "common/parallel.h"
#include "tensor/buffer_pool.h"
#include "tensor/plan.h"

namespace autocts {
namespace {

/// Per-thread compiled inference plans of one comparator: one family for
/// the GIN pass and one for the head pass, each keyed by row count.
/// Thread-local because a StepPlan must replay on the thread that captured
/// it and both passes fan out across the pool; serving workers keep theirs
/// across requests. Task embeddings are a head-plan input, never a plan
/// constant, so one plan serves every task.
struct TlsDuelPlans {
  /// The comparator's final-layer weight: keys the cache, and pins that
  /// storage so a later comparator at a recycled address can never
  /// false-match (ABA) while these plans are live.
  Tensor comparator_key;
  std::map<int, std::unique_ptr<StepPlan>> embed;  ///< GIN, by row count.
  std::map<int, std::unique_ptr<StepPlan>> head;   ///< Head, by row count.
};

thread_local TlsDuelPlans t_duel_plans;

TlsDuelPlans& PlansFor(const Comparator& comparator) {
  TlsDuelPlans& plans = t_duel_plans;
  const Tensor& key = comparator.fc_out().weight();
  if (plans.comparator_key.impl() != key.impl()) {
    plans.embed.clear();
    plans.head.clear();
    plans.comparator_key = key;
  }
  return plans;
}

/// Rows a chunk of `m` runs at under plans: the next power of two >= 8.
/// Chunk sizes vary (tails, serve micro-batches), and each new size would
/// otherwise mint a new plan capture.
int Bucket(int m) {
  int rows = 8;
  while (rows < m) rows *= 2;
  return rows;
}

/// Runs `forward()` through `*slot`: replays the frozen plan when `inputs`
/// match it, otherwise runs eagerly and captures when capture is allowed.
template <typename Forward>
Tensor Planned(std::unique_ptr<StepPlan>* slot,
               const std::vector<Tensor>& inputs, const char* tag,
               const Forward& forward) {
  std::unique_ptr<StepPlan>& plan = *slot;
  if (plan == nullptr) plan = std::make_unique<StepPlan>();
  if (plan->ready() && !plan->MatchesInputs(inputs)) plan->Invalidate();
  if (plan->ready()) {
    // Thread-local ownership makes this structurally true; the CHECK
    // enforces plan.h's capture-thread invariant in release builds too.
    const Status thread_ok = plan->ValidateReplayThread();
    CHECK(thread_ok.ok()) << thread_ok.message();
    plan->BeginStep(inputs);
    plan->RunForward();
    return plan->output(0);
  }
  const bool capture =
      plan::PlansEnabled() && !plan->capture_failed() &&
      LiveTapeNodesThisThread() == plan::PinnedTapeNodesThisThread();
  if (capture) plan->BeginCapture(inputs, tag);
  Tensor out = forward();
  if (capture) {
    plan->AddOutput(out);
    plan->EndCapture();
  }
  return out;
}

/// A pool-backed [rows, cols] tensor whose row r is row(min(r, m - 1)):
/// rows past the chunk's m repeat its last row (pure padding).
template <typename RowFn>
Tensor GatherRows(int m, int rows, int cols, const RowFn& row) {
  std::vector<float> data = BufferPool::Global().Acquire(int64_t{rows} * cols);
  for (int r = 0; r < rows; ++r) {
    const float* src = row(std::min(r, m - 1));
    std::copy(src, src + cols, data.begin() + int64_t{r} * cols);
  }
  return Tensor::FromVector({rows, cols}, std::move(data));
}

}  // namespace

bool FirstWins(float logit, int64_t* nonfinite) {
  if (GuardsEnabled() && !std::isfinite(logit)) {
    ++*nonfinite;
    return false;
  }
  return logit >= 0.0f;
}

DuelOutcomes CompareDuels(const Comparator& comparator,
                          const QuantizedComparator* quant,
                          const DuelTable& table, int compare_batch) {
  CHECK(!comparator.training()) << "CompareDuels is eval-mode only";
  CHECK_GE(compare_batch, 1);
  const bool task_aware = comparator.options().task_aware;
  const int d = comparator.options().gin.embed_dim;
  const int f2 = comparator.options().f2;
  const int64_t num_candidates = static_cast<int64_t>(table.candidates.size());
  const int64_t num_duels = static_cast<int64_t>(table.duels.size());
  if (task_aware) {
    for (const Tensor& t : table.task_rows) CHECK_EQ(t.numel(), f2);
  }
  DuelOutcomes out;
  out.first_wins.assign(static_cast<size_t>(num_duels), 0);
  if (num_duels == 0) return out;
  const int64_t chunk = compare_batch;
  auto chunks = [chunk](int64_t n) { return (n + chunk - 1) / chunk; };

  // Pass 1: the GIN, once per candidate; chunk c fills rows
  // [c * chunk, c * chunk + m) of `embeds`.
  std::vector<float> embeds(static_cast<size_t>(num_candidates * d));
  ParallelFor(0, chunks(num_candidates), 1, [&](int64_t c0, int64_t c1) {
    NoGradScope no_grad;
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t begin = c * chunk;
      const int m = static_cast<int>(std::min(num_candidates, begin + chunk) -
                                     begin);
      const int rows = quant != nullptr ? m : Bucket(m);
      std::vector<const ArchHyperEncoding*> encs(static_cast<size_t>(rows));
      for (int r = 0; r < rows; ++r) {
        encs[static_cast<size_t>(r)] =
            table.candidates[static_cast<size_t>(begin + std::min(r, m - 1))];
      }
      const EncodingBatch batch = StackEncodings(encs);
      float* dst = embeds.data() + begin * d;
      if (quant != nullptr) {
        const std::vector<float> l = quant->GinForward(batch);
        std::copy(l.begin(), l.begin() + int64_t{m} * d, dst);
        continue;
      }
      const Tensor l = Planned(
          &PlansFor(comparator).embed[rows],
          {batch.adjacency, batch.op_onehot, batch.hyper}, "embed_arch_hypers",
          [&] { return comparator.EmbedArchHypers(batch); });
      const float* src = l.data().data();
      std::copy(src, src + int64_t{m} * d, dst);
    }
  });

  // Pass 2: the head, once per duel, over gathered embedding rows.
  std::atomic<int64_t> nonfinite{0};
  ParallelFor(0, chunks(num_duels), 1, [&](int64_t c0, int64_t c1) {
    NoGradScope no_grad;
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t begin = c * chunk;
      const int m =
          static_cast<int>(std::min(num_duels, begin + chunk) - begin);
      const int rows = quant != nullptr ? m : Bucket(m);
      const DuelTable::Duel* duels = table.duels.data() + begin;
      const Tensor l1 = GatherRows(m, rows, d, [&](int r) {
        return embeds.data() + int64_t{duels[r].first} * d;
      });
      const Tensor l2 = GatherRows(m, rows, d, [&](int r) {
        return embeds.data() + int64_t{duels[r].second} * d;
      });
      Tensor te;
      if (task_aware) {
        te = GatherRows(m, rows, f2, [&](int r) {
          return table.task_rows[static_cast<size_t>(duels[r].task)]
              .data()
              .data();
        });
      }
      std::vector<float> quant_logits;
      Tensor logits_t;
      const float* logits = nullptr;
      if (quant != nullptr) {
        quant_logits = quant->CompareEmbedded(
            l1.data().data(), l2.data().data(), m,
            task_aware ? te.data().data() : nullptr);
        logits = quant_logits.data();
      } else {
        std::vector<Tensor> inputs = {l1, l2};
        if (task_aware) inputs.push_back(te);
        logits_t = Planned(
            &PlansFor(comparator).head[rows], inputs, "compare_embedded",
            [&] { return comparator.CompareEmbedded(l1, l2, te); });
        logits = logits_t.data().data();
      }
      int64_t chunk_nonfinite = 0;
      for (int i = 0; i < m; ++i) {
        out.first_wins[static_cast<size_t>(begin + i)] =
            FirstWins(logits[i], &chunk_nonfinite) ? 1 : 0;
      }
      nonfinite.fetch_add(chunk_nonfinite, std::memory_order_relaxed);
    }
  });
  out.nonfinite = nonfinite.load(std::memory_order_relaxed);
  return out;
}

}  // namespace autocts
