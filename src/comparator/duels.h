#ifndef REPRO_COMPARATOR_DUELS_H_
#define REPRO_COMPARATOR_DUELS_H_

#include <cstdint>
#include <vector>

#include "comparator/comparator.h"
#include "comparator/quant.h"

namespace autocts {

/// A set of eval-mode comparator duels over distinct candidates: the
/// arch-hypers the duels reference (each once), the task embeddings they are
/// conditioned on (each once), and the duels as index triples into both.
struct DuelTable {
  struct Duel {
    int first = 0;   ///< Index into `candidates`.
    int second = 0;  ///< Index into `candidates`.
    int task = 0;    ///< Index into `task_rows`; ignored when task-blind.
  };
  /// Borrowed; each must outlive the CompareDuels call.
  std::vector<const ArchHyperEncoding*> candidates;
  /// f2 values each ([f2] or [1, f2]); may be empty for a task-blind
  /// comparator.
  std::vector<Tensor> task_rows;
  std::vector<Duel> duels;
};

/// Outcomes of a DuelTable, aligned with its `duels`.
struct DuelOutcomes {
  std::vector<char> first_wins;  ///< 1 = first is at least as accurate.
  /// Logits that came back NaN/inf (with guards on, each such duel falls
  /// deterministically to the second candidate).
  int64_t nonfinite = 0;
};

/// The verdict of one logit, "first is at least as accurate" (Eq. 21's 0.5
/// threshold). With guards on, a NaN/inf logit carries no preference: it
/// bumps `*nonfinite` and falls deterministically to the second candidate.
bool FirstWins(float logit, int64_t* nonfinite);

/// Eval-mode T-AHC ranking in two passes, the Siamese split of the
/// comparator (AutoCTS+ Eq. 13–21):
///   1. the GIN embeds each candidate once, in `compare_batch` chunks;
///   2. the FC head scores each duel over the gathered [m, D] rows, in
///      `compare_batch` chunks.
/// Both passes fan out over the current ExecContext's pool. With `quant`
/// null they replay per-thread inference plans (one family per pass, keyed
/// by row count; chunks pad to a power of two >= 8 by repeating their last
/// row, which bounds the plan set); with `quant` set they run its off-tape
/// halves unpadded.
///
/// Every duel's verdict is bit-identical to a one-pair
/// Comparator::CompareLogits (or QuantizedComparator::CompareLogits): all
/// comparator ops are row-local, so neither chunking, padding nor sharing
/// an embedding across duels changes a logit. The comparator must be in
/// eval mode.
DuelOutcomes CompareDuels(const Comparator& comparator,
                          const QuantizedComparator* quant,
                          const DuelTable& table, int compare_batch);

}  // namespace autocts

#endif  // REPRO_COMPARATOR_DUELS_H_
