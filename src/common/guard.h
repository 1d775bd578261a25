#ifndef REPRO_COMMON_GUARD_H_
#define REPRO_COMMON_GUARD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace autocts {

/// Whether the non-finite guardrails (loss/gradient isfinite sweeps, the
/// Adam skip, the comparator logit check) are active. Defaults to on;
/// SetGuardsEnabled(false) disables them for the current process — the
/// toggle the guardrail-overhead benchmark A/Bs against.
bool GuardsEnabled();
void SetGuardsEnabled(bool enabled);

/// Process-wide counters of guardrail activity, folded into the
/// RuntimeStats snapshot (see common/runtime_stats.h). Cheap relaxed
/// atomics; the counts are telemetry, not control flow.
struct GuardStats {
  uint64_t finite_checks = 0;      ///< AllFiniteBlocked sweeps run.
  uint64_t nonfinite_detected = 0; ///< Non-finite events guardrails caught.
};
GuardStats CurrentGuardStats();

/// Bumps GuardStats::nonfinite_detected — call sites that catch a
/// non-finite value by other means than AllFiniteBlocked (loss probes,
/// logit checks) record it here so the snapshot sees every event.
void NoteNonfiniteDetected();

/// True when every element of `x` is finite. Blocked sweep: fixed
/// 4096-element blocks checked independently (fanning out across the
/// current pool when large enough), so the verdict — a pure property of the
/// data — is identical for every thread count. Vectorizes to an order of
/// magnitude below the cost of the passes that produced the data.
bool AllFiniteBlocked(const float* x, int64_t n);

/// Fault-tolerance counters of one pipeline run, surfaced on
/// PretrainReport and SearchOutcome so callers can see what the guardrails
/// absorbed instead of silently losing (or poisoning) work.
struct RobustnessReport {
  /// Non-finite losses or gradient norms the trainer guardrails caught.
  int nonfinite_events = 0;
  /// Samples that diverged once but recovered on the lr-halved retry.
  int retried_samples = 0;
  /// Samples excluded from the label set after retry also diverged.
  int quarantined_samples = 0;
  /// Labeled samples restored from a checkpoint instead of retrained.
  int resumed_samples = 0;
  /// Preliminary task embeddings borrowed zero-copy from the mmap sample
  /// bank instead of recomputed through the encoder.
  int resumed_task_embeddings = 0;
  /// Optimizer updates skipped because the gradient norm was non-finite.
  int64_t skipped_optimizer_steps = 0;
  /// Non-finite comparator logits treated as "no preference" during search.
  int64_t nonfinite_comparisons = 0;
  /// Final top-K candidate trainings that diverged (excluded from winner
  /// selection unless every candidate diverged).
  int diverged_candidates = 0;
  /// Pipeline checkpoint writes attempted / failed (failures degrade to
  /// counters: a full run must never die because its checkpoint could not
  /// be persisted).
  int checkpoint_writes = 0;
  int checkpoint_write_failures = 0;
  /// One human-readable line per quarantined sample.
  std::vector<std::string> quarantine_reasons;

  /// Merges another report's counters into this one (reason lists append).
  void Merge(const RobustnessReport& other);
};

}  // namespace autocts

#endif  // REPRO_COMMON_GUARD_H_
