#ifndef REPRO_CORE_CHECKPOINT_H_
#define REPRO_CORE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/guard.h"
#include "common/status.h"
#include "comparator/bank_file.h"
#include "comparator/pretrain.h"

namespace autocts {

/// Where (and whether) the pre-training pipeline persists its progress.
struct CheckpointOptions {
  /// Directory for the manifest and parameter files. Empty disables
  /// checkpointing entirely (the default — zero overhead, zero files).
  std::string dir;
  /// Load an existing manifest before running and skip completed work.
  /// A missing manifest is a fresh start, not an error; a corrupt or
  /// configuration-mismatched one is an error.
  bool resume = false;
};

/// Pipeline progress markers. A stage is recorded only after its outputs
/// (parameters, sample fates) are durably on disk, so "done" always means
/// "reproducible from the files next to the manifest".
enum PipelineStage : int {
  kStageNone = 0,      ///< Nothing persisted yet.
  kStageEncoder = 1,   ///< TS2Vec pre-training done; encoder + RNG saved.
  kStageSamples = 2,   ///< Sample bank fully labeled.
  kStageComparator = 3 ///< T-AHC pre-training done; whole pipeline complete.
};

/// Durable record of one Pretrain() run: a stage manifest (config hash,
/// completed stage, serialized RNG stream), the mmap sample bank holding
/// per-sample fates and preliminary task embeddings, and the encoder /
/// T-AHC parameter files written at stage boundaries. Manifest writes are
/// atomic (tmp + rename) and CRC32-framed; sample fates and embeddings go
/// to the bank as appended CRC-framed records — O(1) IO per sample instead
/// of rewriting the whole manifest — and the bank's torn-tail recovery
/// keeps a kill at any instant from losing completed work.
///
/// Doubles as the SampleBankHook for CollectSamples: Restore() answers
/// per-sample "already labeled?" queries from the loaded state (after
/// verifying the sample's signature still matches), Commit() appends each
/// freshly decided fate, and RestoreTaskSection/CommitTaskSection do the
/// same for preliminary embeddings (restored ones are zero-copy borrows
/// from the bank mapping).
///
/// Write failures never abort the pipeline — they degrade to counters in
/// robustness() (a long run must not die because its checkpoint could not
/// be persisted; it just loses resumability).
class PipelineCheckpoint : public SampleBankHook {
 public:
  /// `config_hash` fingerprints everything the run's determinism depends
  /// on (options + task identities); Load() rejects a manifest written
  /// under a different fingerprint.
  PipelineCheckpoint(std::string dir, uint64_t config_hash);

  std::string ManifestPath() const;
  std::string BankPath() const;
  std::string EncoderPath() const;
  std::string ComparatorPath() const;

  /// Loads and verifies the manifest. All-or-nothing: on any error
  /// (truncation, CRC mismatch, bad magic, config-hash drift) the
  /// in-memory state is left exactly as before the call.
  Status Load();

  /// Highest completed PipelineStage.
  int stage_done() const { return stage_done_; }

  /// Serialized mt19937_64 state captured when kStageEncoder committed
  /// (empty before that).
  const std::string& rng_state() const { return rng_state_; }

  /// Records `stage` (and, when non-empty, the RNG stream snapshot) and
  /// rewrites the manifest. Never lowers a previously recorded stage.
  void CommitStage(int stage, const std::string& rng_state = "");

  /// Folds a parameter-file save outcome into the counters.
  void NoteArtifactWrite(const Status& status);

  /// Signature of a sample as stored in the bank — a stable hash of
  /// the arch-hyper's canonical string and the shared flag. Exposed so
  /// tests can forge mismatches.
  static uint64_t SampleSignature(const LabeledSample& sample);

  // SampleBankHook:
  bool Restore(int task, int slot, LabeledSample* sample) override;
  void Commit(int task, int slot, const LabeledSample& sample) override;
  bool RestoreTaskSection(int task, uint64_t key,
                          Tensor* preliminary) override;
  void CommitTaskSection(int task, uint64_t key,
                         const ForecastTask& forecast_task,
                         const Tensor& preliminary) override;

  /// The open sample bank (null before Load or when no bank exists
  /// yet). Exposed for streaming hints and inspection.
  const SampleBank* bank() const { return bank_.get(); }

  /// Checkpoint-side counters: manifest writes attempted/failed and
  /// samples restored instead of retrained.
  const RobustnessReport& robustness() const { return robustness_; }

 private:
  /// One labeled sample's persisted fate. `shared` and `arch` only feed
  /// the bank record (inspection).
  struct SampleFate {
    uint64_t signature = 0;
    double r_prime = 0.0;
    bool shared = false;
    bool quarantined = false;
    int retries = 0;
    std::string note;
    std::string arch;
  };

  void WriteManifest();
  /// Lazily opens (creating if needed) the bank for appending. False — and
  /// a null bank_ — when the open/create failed; the caller counts that as
  /// one write failure.
  bool EnsureBankWriter();
  /// Appends one fate to the bank, degrading failures to counters.
  void AppendFateToBank(int task, int slot, const SampleFate& fate);
  /// True when the two fates describe the same decided outcome (bitwise on
  /// r_prime so quarantined NaNs compare equal).
  static bool SameFate(const SampleFate& a, const SampleFate& b);

  std::string dir_;
  uint64_t config_hash_ = 0;
  int stage_done_ = kStageNone;
  std::string rng_state_;
  std::map<std::pair<int, int>, SampleFate> fates_;  ///< Key: (task, slot).
  std::unique_ptr<SampleBank> bank_;
  RobustnessReport robustness_;
};

}  // namespace autocts

#endif  // REPRO_CORE_CHECKPOINT_H_
