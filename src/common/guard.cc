#include "common/guard.h"

#include <atomic>
#include <cmath>

#include "common/parallel.h"

namespace autocts {
namespace {

std::atomic<bool> g_guards_enabled{true};

std::atomic<uint64_t> g_finite_checks{0};
std::atomic<uint64_t> g_nonfinite_detected{0};

}  // namespace

bool GuardsEnabled() {
  return g_guards_enabled.load(std::memory_order_relaxed);
}

void SetGuardsEnabled(bool enabled) {
  g_guards_enabled.store(enabled, std::memory_order_relaxed);
}

GuardStats CurrentGuardStats() {
  GuardStats s;
  s.finite_checks = g_finite_checks.load(std::memory_order_relaxed);
  s.nonfinite_detected = g_nonfinite_detected.load(std::memory_order_relaxed);
  return s;
}

void NoteNonfiniteDetected() {
  g_nonfinite_detected.fetch_add(1, std::memory_order_relaxed);
}

bool AllFiniteBlocked(const float* x, int64_t n) {
  g_finite_checks.fetch_add(1, std::memory_order_relaxed);
  constexpr int64_t kBlock = 4096;
  const int64_t num_blocks = (n + kBlock - 1) / kBlock;
  auto block_finite = [&](int64_t b) {
    const int64_t lo = b * kBlock;
    const int64_t hi = std::min(n, lo + kBlock);
    // Summing |x| in double lets the loop vectorize and cannot itself
    // overflow (4096 * FLT_MAX << DBL_MAX), so the sum is non-finite iff
    // some element is (no cancellation: all terms are non-negative).
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) {
      acc += std::fabs(static_cast<double>(x[i]));
    }
    return std::isfinite(acc);
  };
  bool finite;
  if (num_blocks <= 1) {
    finite = n == 0 || block_finite(0);
  } else {
    std::atomic<bool> all_finite{true};
    ParallelFor(0, num_blocks, 4, [&](int64_t b0, int64_t b1) {
      for (int64_t b = b0; b < b1; ++b) {
        if (!all_finite.load(std::memory_order_relaxed)) return;
        if (!block_finite(b)) {
          all_finite.store(false, std::memory_order_relaxed);
          return;
        }
      }
    });
    finite = all_finite.load(std::memory_order_relaxed);
  }
  if (!finite) NoteNonfiniteDetected();
  return finite;
}

void RobustnessReport::Merge(const RobustnessReport& other) {
  nonfinite_events += other.nonfinite_events;
  retried_samples += other.retried_samples;
  quarantined_samples += other.quarantined_samples;
  resumed_samples += other.resumed_samples;
  resumed_task_embeddings += other.resumed_task_embeddings;
  skipped_optimizer_steps += other.skipped_optimizer_steps;
  nonfinite_comparisons += other.nonfinite_comparisons;
  diverged_candidates += other.diverged_candidates;
  checkpoint_writes += other.checkpoint_writes;
  checkpoint_write_failures += other.checkpoint_write_failures;
  quarantine_reasons.insert(quarantine_reasons.end(),
                            other.quarantine_reasons.begin(),
                            other.quarantine_reasons.end());
}

}  // namespace autocts
