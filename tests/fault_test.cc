// Fault-tolerance suite: deterministic fault injection (common/fault.h),
// checkpoint/resume bit-exactness, NaN quarantine, and guardrail behavior.
//
// The central claim under test is the one DESIGN.md makes: a run killed at
// ANY point and resumed with --resume produces a sample bank, T-AHC
// parameters, and search outcome bit-identical to an uninterrupted run, at
// any thread count.
#include "common/fault.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/crc32.h"
#include "common/fileio.h"
#include "common/guard.h"
#include "comparator/bank_file.h"
#include "core/autocts.h"
#include "core/checkpoint.h"
#include "data/synthetic.h"
#include "model/searched_model.h"
#include "shard/shard.h"

namespace autocts {
namespace {

/// Every test leaves the process-wide fault table clean.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    DisarmAllFaults();
    SetGuardsEnabled(true);
  }
};

using CheckpointResumeTest = FaultTest;
using NanQuarantineTest = FaultTest;
using IoFaultTest = FaultTest;
using GuardrailTest = FaultTest;

AutoCtsOptions TinyOptions(int num_threads) {
  ScaleConfig cfg = ScaleConfig::Test();
  AutoCtsOptions opts = AutoCtsOptions::ForScale(cfg);
  opts.ts2vec.repr_dim = 4;
  opts.ts2vec.hidden = 4;
  opts.ts2vec_pretrain.epochs = 1;
  opts.ts2vec_pretrain.batches_per_epoch = 2;
  opts.ts2vec_pretrain.batch_size = 2;
  opts.comparator.repr_dim = 4;
  opts.comparator.gin.embed_dim = 8;
  opts.comparator.f1 = 8;
  opts.comparator.f2 = 4;
  // 2 tasks x (1 shared + 1 random) = 4 pending samples; enough to kill at
  // every index without the suite taking minutes.
  opts.collect.shared_count = 1;
  opts.collect.random_count = 1;
  opts.collect.train.batches_per_epoch = 2;
  opts.pretrain.epochs = 2;
  opts.search.ranking_pool = 16;
  opts.search.opponents_per_candidate = 2;
  opts.search.population = 4;
  opts.search.generations = 1;
  opts.search.top_k = 1;
  opts.final_train.epochs = 1;
  opts.final_train.batches_per_epoch = 2;
  opts.final_train.batch_size = 2;
  opts.num_threads = num_threads;
  return opts;
}

constexpr int kPendingSamples = 4;  ///< Matches TinyOptions' collect sizes.

std::vector<ForecastTask> TinySourceTasks() {
  ScaleConfig cfg = ScaleConfig::Test();
  std::vector<ForecastTask> tasks;
  for (const char* name : {"PEMS04", "ETTh1"}) {
    ForecastTask t;
    t.data = MakeSyntheticDataset(name, cfg).value();
    t.p = 12;
    t.q = 12;
    tasks.push_back(t);
  }
  return tasks;
}

ForecastTask UnseenTask() {
  ScaleConfig cfg = ScaleConfig::Test();
  ForecastTask t;
  t.data = MakeSyntheticDataset("Los-Loop", cfg).value();
  t.p = 12;
  t.q = 12;
  return t;
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/fault_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<float> FlattenParams(const Module& module) {
  std::vector<float> out;
  for (const Tensor& p : module.Parameters()) {
    out.insert(out.end(), p.data().begin(), p.data().end());
  }
  return out;
}

/// Bitwise equality — the contract is bit-identical, not approximately
/// equal, so comparisons go through memcmp, never operator== on floats.
template <typename T>
bool BitEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectBanksIdentical(const std::vector<TaskSampleSet>& a,
                          const std::vector<TaskSampleSet>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].samples.size(), b[t].samples.size());
    for (size_t i = 0; i < a[t].samples.size(); ++i) {
      const LabeledSample& x = a[t].samples[i];
      const LabeledSample& y = b[t].samples[i];
      EXPECT_EQ(x.arch_hyper, y.arch_hyper) << "task " << t << " sample " << i;
      EXPECT_EQ(x.shared, y.shared);
      EXPECT_EQ(x.quarantined, y.quarantined);
      EXPECT_EQ(x.retries, y.retries);
      EXPECT_EQ(std::memcmp(&x.r_prime, &y.r_prime, sizeof(double)), 0)
          << "task " << t << " sample " << i << ": " << x.r_prime
          << " != " << y.r_prime;
    }
  }
}

/// Everything downstream correctness depends on, captured from one run.
struct PipelineFingerprint {
  std::vector<TaskSampleSet> bank;
  std::vector<float> encoder_params;
  std::vector<float> tahc_params;
};

PipelineFingerprint Fingerprint(AutoCtsPlusPlus* fw) {
  PipelineFingerprint fp;
  fp.bank = fw->collected_samples();
  fp.encoder_params = FlattenParams(*fw->encoder());
  fp.tahc_params = FlattenParams(*fw->comparator());
  return fp;
}

PipelineFingerprint RunUninterrupted(int num_threads) {
  AutoCtsPlusPlus fw(TinyOptions(num_threads));
  fw.Pretrain(TinySourceTasks());
  return Fingerprint(&fw);
}

// ---------------------------------------------------------------------------
// Fault harness primitives.

TEST_F(FaultTest, DisarmedProbesNeverFire) {
  EXPECT_FALSE(AnyFaultArmed());
  EXPECT_FALSE(FaultFires(FaultPoint::kNanLoss, 0));
  EXPECT_FALSE(FaultFiresIoWrite());
  EXPECT_NO_THROW(MaybeInjectKill(FaultPoint::kKillBeforeSample, 0));
}

TEST_F(FaultTest, AddressSelectsExactlyOneProbe) {
  ArmFault(FaultPoint::kNanLoss, 7);
  EXPECT_TRUE(AnyFaultArmed());
  EXPECT_FALSE(FaultFires(FaultPoint::kNanLoss, 6));
  EXPECT_FALSE(FaultFires(FaultPoint::kKillBeforeSample, 7));
  EXPECT_TRUE(FaultFires(FaultPoint::kNanLoss, 7));
}

TEST_F(FaultTest, FiresBudgetDisarmsAfterConsumption) {
  ArmFault(FaultPoint::kNanLoss, kAnyAddress, /*fires=*/2);
  EXPECT_TRUE(FaultFires(FaultPoint::kNanLoss, 1));
  EXPECT_TRUE(FaultFires(FaultPoint::kNanLoss, 2));
  EXPECT_FALSE(FaultFires(FaultPoint::kNanLoss, 3));
  EXPECT_FALSE(AnyFaultArmed());
}

TEST_F(FaultTest, StreamPointsAddressByOrdinalIndependently) {
  // The streaming engine probes kStreamResearchFail with the re-search
  // ordinal and kStreamSwapStall with the swap ordinal. Arming one point
  // never fires the other, and the address picks a single attempt.
  ArmFault(FaultPoint::kStreamResearchFail, 1, /*fires=*/1);
  EXPECT_FALSE(FaultFires(FaultPoint::kStreamSwapStall, 1));
  EXPECT_FALSE(FaultFires(FaultPoint::kStreamResearchFail, 0));
  EXPECT_TRUE(FaultFires(FaultPoint::kStreamResearchFail, 1));
  EXPECT_FALSE(AnyFaultArmed());

  ArmFault(FaultPoint::kStreamSwapStall, 0);
  EXPECT_FALSE(FaultFires(FaultPoint::kStreamResearchFail, 0));
  EXPECT_TRUE(FaultFires(FaultPoint::kStreamSwapStall, 0));
}

TEST_F(FaultTest, StreamPointsHonorFiresBudget) {
  // fires=2 on any address: exactly the first two re-search attempts fail,
  // the third proceeds — the bounded-retry path a recovering stream takes.
  ArmFault(FaultPoint::kStreamResearchFail, kAnyAddress, /*fires=*/2);
  EXPECT_TRUE(FaultFires(FaultPoint::kStreamResearchFail, 0));
  EXPECT_TRUE(FaultFires(FaultPoint::kStreamResearchFail, 1));
  EXPECT_FALSE(FaultFires(FaultPoint::kStreamResearchFail, 2));
  EXPECT_FALSE(AnyFaultArmed());

  ArmFault(FaultPoint::kStreamSwapStall, kAnyAddress, /*fires=*/1);
  EXPECT_TRUE(FaultFires(FaultPoint::kStreamSwapStall, 0));
  EXPECT_FALSE(FaultFires(FaultPoint::kStreamSwapStall, 1));
  EXPECT_FALSE(AnyFaultArmed());
}

TEST_F(FaultTest, AmbientAddressScopesNest) {
  EXPECT_EQ(CurrentFaultAddress(), kAnyAddress);
  {
    FaultAddressScope outer(3);
    EXPECT_EQ(CurrentFaultAddress(), 3);
    {
      FaultAddressScope inner(5);
      EXPECT_EQ(CurrentFaultAddress(), 5);
    }
    EXPECT_EQ(CurrentFaultAddress(), 3);
  }
  EXPECT_EQ(CurrentFaultAddress(), kAnyAddress);
}

TEST_F(FaultTest, InjectedKillCarriesPointAndAddress) {
  ArmFault(FaultPoint::kKillBeforeStage, 2);
  try {
    MaybeInjectKill(FaultPoint::kKillBeforeStage, 2);
    FAIL() << "kill did not fire";
  } catch (const InjectedKill& kill) {
    EXPECT_EQ(kill.point(), FaultPoint::kKillBeforeStage);
    EXPECT_EQ(kill.address(), 2);
  }
}

TEST_F(IoFaultTest, AtomicWriteLeavesOldContentOnInjectedFailure) {
  std::string path = testing::TempDir() + "/fault_atomic.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "generation-1").ok());
  ArmFault(FaultPoint::kIoWriteFail, kAnyAddress, /*fires=*/1);
  Status s = AtomicWriteFile(path, "generation-2");
  EXPECT_FALSE(s.ok());
  StatusOr<std::string> back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  // The failed write never tore the previous version.
  EXPECT_EQ(back.value(), "generation-1");
  ASSERT_TRUE(AtomicWriteFile(path, "generation-2").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "generation-2");
}

// ---------------------------------------------------------------------------
// Checkpoint manifest integrity.

TEST_F(CheckpointResumeTest, CorruptManifestRejectedWithoutMutation) {
  std::string dir = FreshDir("corrupt");
  {
    PipelineCheckpoint writer(dir, /*config_hash=*/42);
    LabeledSample sample;
    sample.r_prime = 1.5;
    writer.Commit(0, 0, sample);
    writer.CommitStage(kStageSamples);
  }
  // Flip one payload byte: the CRC must catch it.
  {
    PipelineCheckpoint reader(dir, 42);
    std::string bytes = ReadFileToString(reader.ManifestPath()).value();
    bytes[bytes.size() - 3] ^= 0x40;
    ASSERT_TRUE(AtomicWriteFile(reader.ManifestPath(), bytes).ok());
    Status s = reader.Load();
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("CRC"), std::string::npos) << s.message();
    // Rejection left the in-memory state untouched.
    EXPECT_EQ(reader.stage_done(), kStageNone);
    LabeledSample probe;
    EXPECT_FALSE(reader.Restore(0, 0, &probe));
  }
  // A well-formed manifest in the retired "ACTSCKP1" layout (fates inlined
  // after the RNG state) is rejected by magic, the same way.
  {
    PipelineCheckpoint reader(dir, 42);
    std::string payload;
    AppendPod(&payload, uint64_t{42});  // Config hash.
    AppendPod(&payload, static_cast<uint32_t>(kStageSamples));
    AppendString(&payload, "");         // RNG state.
    AppendPod(&payload, uint64_t{0});   // Inlined fates.
    std::string v1;
    AppendPod(&v1, uint64_t{0x41435453434b5031ull});  // "ACTSCKP1"
    AppendPod(&v1, Crc32(payload.data(), payload.size()));
    v1 += payload;
    ASSERT_TRUE(AtomicWriteFile(reader.ManifestPath(), v1).ok());
    Status s = reader.Load();
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("magic"), std::string::npos) << s.message();
    EXPECT_EQ(reader.stage_done(), kStageNone);
    LabeledSample probe;
    EXPECT_FALSE(reader.Restore(0, 0, &probe));
  }
}

TEST_F(CheckpointResumeTest, TruncatedManifestRejected) {
  std::string dir = FreshDir("truncated");
  std::string manifest_path;
  // Scoped: the writer's exclusive bank flock must drop before readers open
  // the same checkpoint (one kAppend opener at a time, enforced since the
  // bank learned flock).
  {
    PipelineCheckpoint writer(dir, 42);
    LabeledSample sample;
    sample.r_prime = 2.5;
    writer.Commit(0, 0, sample);
    // Commit appends the fate to the bank; the manifest itself is written
    // at stage boundaries.
    writer.CommitStage(kStageSamples);
    manifest_path = writer.ManifestPath();
  }
  std::string bytes = ReadFileToString(manifest_path).value();
  for (size_t keep : {size_t{4}, size_t{11}, size_t{20}, bytes.size() - 1}) {
    ASSERT_TRUE(
        AtomicWriteFile(manifest_path, bytes.substr(0, keep)).ok());
    PipelineCheckpoint reader(dir, 42);
    EXPECT_FALSE(reader.Load().ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(reader.stage_done(), kStageNone);
  }
  // Trailing garbage is as suspect as truncation.
  ASSERT_TRUE(AtomicWriteFile(manifest_path, bytes + "junk").ok());
  PipelineCheckpoint reader(dir, 42);
  Status s = reader.Load();
  EXPECT_FALSE(s.ok());
}

TEST_F(CheckpointResumeTest, ConfigDriftRejected) {
  std::string dir = FreshDir("drift");
  {
    PipelineCheckpoint writer(dir, 42);
    writer.CommitStage(kStageEncoder, "rng");
  }
  PipelineCheckpoint reader(dir, 43);
  Status s = reader.Load();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("different configuration"), std::string::npos)
      << s.message();
}

TEST_F(CheckpointResumeTest, MissingManifestIsFreshStart) {
  PipelineCheckpoint ckpt(FreshDir("missing"), 42);
  EXPECT_TRUE(ckpt.Load().ok());
  EXPECT_EQ(ckpt.stage_done(), kStageNone);
}

TEST_F(CheckpointResumeTest, SignatureMismatchForcesRetrain) {
  std::string dir = FreshDir("sig");
  JointSearchSpace space;
  Rng rng(9);
  LabeledSample stored;
  stored.arch_hyper = space.Sample(&rng);
  stored.r_prime = 3.0;
  // Scoped: release the writer's exclusive bank flock before the reader
  // opens the same checkpoint.
  {
    PipelineCheckpoint writer(dir, 42);
    writer.Commit(1, 2, stored);
  }

  PipelineCheckpoint reader(dir, 42);
  ASSERT_TRUE(reader.Load().ok());
  // Same slot, same arch-hyper: restores.
  LabeledSample same;
  same.arch_hyper = stored.arch_hyper;
  EXPECT_TRUE(reader.Restore(1, 2, &same));
  EXPECT_EQ(same.r_prime, 3.0);
  // Same slot, different arch-hyper (stale manifest): refuses.
  LabeledSample different;
  different.arch_hyper = space.Sample(&rng);
  ASSERT_NE(different.arch_hyper, stored.arch_hyper);
  EXPECT_FALSE(reader.Restore(1, 2, &different));
}

// ---------------------------------------------------------------------------
// Kill/resume bit-exactness.

/// Arms a kill at `point`/`address`, runs until it fires (possibly never,
/// when the address is past the work list), then disarms and resumes.
/// Returns the fingerprint of the completed pipeline.
PipelineFingerprint KillThenResume(int num_threads, FaultPoint point,
                                   int64_t address, const std::string& dir,
                                   bool* fired) {
  AutoCtsOptions opts = TinyOptions(num_threads);
  opts.checkpoint.dir = dir;
  opts.checkpoint.resume = true;
  *fired = false;
  {
    AutoCtsPlusPlus fw(opts);
    ArmFault(point, address);
    try {
      fw.Pretrain(TinySourceTasks());
    } catch (const InjectedKill&) {
      *fired = true;
    }
    DisarmAllFaults();
  }
  // Fresh process model: a brand-new framework object resumes from disk.
  AutoCtsPlusPlus resumed(opts);
  StatusOr<PretrainReport> report = resumed.TryPretrain(TinySourceTasks());
  EXPECT_TRUE(report.ok()) << report.status().message();
  return Fingerprint(&resumed);
}

TEST_F(CheckpointResumeTest, KillAtEverySampleMatchesUninterrupted) {
  for (int threads : {1, 4}) {
    PipelineFingerprint baseline = RunUninterrupted(threads);
    for (int64_t kill_at = 0; kill_at < kPendingSamples; ++kill_at) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " kill_at=" + std::to_string(kill_at));
      bool fired = false;
      std::string dir = FreshDir("kill_s" + std::to_string(threads) + "_" +
                                 std::to_string(kill_at));
      PipelineFingerprint resumed = KillThenResume(
          threads, FaultPoint::kKillBeforeSample, kill_at, dir, &fired);
      EXPECT_TRUE(fired);
      ExpectBanksIdentical(baseline.bank, resumed.bank);
      EXPECT_TRUE(BitEqual(baseline.encoder_params, resumed.encoder_params));
      EXPECT_TRUE(BitEqual(baseline.tahc_params, resumed.tahc_params));
    }
  }
}

TEST_F(CheckpointResumeTest, KillAtEveryStageMatchesUninterrupted) {
  for (int threads : {1, 4}) {
    PipelineFingerprint baseline = RunUninterrupted(threads);
    for (int stage : {kStageEncoder, kStageSamples, kStageComparator}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " stage=" + std::to_string(stage));
      bool fired = false;
      std::string dir = FreshDir("kill_g" + std::to_string(threads) + "_" +
                                 std::to_string(stage));
      PipelineFingerprint resumed = KillThenResume(
          threads, FaultPoint::kKillBeforeStage, stage, dir, &fired);
      EXPECT_TRUE(fired);
      ExpectBanksIdentical(baseline.bank, resumed.bank);
      EXPECT_TRUE(BitEqual(baseline.encoder_params, resumed.encoder_params));
      EXPECT_TRUE(BitEqual(baseline.tahc_params, resumed.tahc_params));
    }
  }
}

TEST_F(CheckpointResumeTest, ResumeAcrossThreadCountsAndSearchMatches) {
  // Killed at 4 threads, resumed at 1: the manifest must be interchangeable
  // because sample fates are thread-count invariant. The resumed framework
  // must also search identically to the uninterrupted one.
  AutoCtsOptions base = TinyOptions(4);
  AutoCtsPlusPlus uninterrupted(base);
  uninterrupted.Pretrain(TinySourceTasks());
  SearchOutcome expected = uninterrupted.SearchAndTrain(UnseenTask());

  std::string dir = FreshDir("cross");
  AutoCtsOptions opts = TinyOptions(4);
  opts.checkpoint.dir = dir;
  opts.checkpoint.resume = true;
  {
    AutoCtsPlusPlus fw(opts);
    ArmFault(FaultPoint::kKillBeforeSample, 2);
    EXPECT_THROW(fw.Pretrain(TinySourceTasks()), InjectedKill);
    DisarmAllFaults();
  }
  AutoCtsOptions resume_opts = TinyOptions(1);
  resume_opts.checkpoint.dir = dir;
  resume_opts.checkpoint.resume = true;
  AutoCtsPlusPlus resumed(resume_opts);
  StatusOr<PretrainReport> report = resumed.TryPretrain(TinySourceTasks());
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GT(report.value().robustness.resumed_samples, 0);

  SearchOutcome actual = resumed.SearchAndTrain(UnseenTask());
  EXPECT_EQ(expected.best.Signature(), actual.best.Signature());
  EXPECT_EQ(std::memcmp(&expected.best_report.val.mae,
                        &actual.best_report.val.mae, sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&expected.best_report.test.mae,
                        &actual.best_report.test.mae, sizeof(double)),
            0);
}

TEST_F(CheckpointResumeTest, CompletedRunResumesWithoutRetraining) {
  std::string dir = FreshDir("complete");
  AutoCtsOptions opts = TinyOptions(2);
  opts.checkpoint.dir = dir;
  opts.checkpoint.resume = true;
  AutoCtsPlusPlus first(opts);
  first.Pretrain(TinySourceTasks());
  PipelineFingerprint fp = Fingerprint(&first);

  AutoCtsPlusPlus second(opts);
  StatusOr<PretrainReport> report = second.TryPretrain(TinySourceTasks());
  ASSERT_TRUE(report.ok()) << report.status().message();
  // Every sample restored, none trained.
  EXPECT_EQ(report.value().robustness.resumed_samples, kPendingSamples);
  PipelineFingerprint fp2 = Fingerprint(&second);
  ExpectBanksIdentical(fp.bank, fp2.bank);
  EXPECT_TRUE(BitEqual(fp.encoder_params, fp2.encoder_params));
  EXPECT_TRUE(BitEqual(fp.tahc_params, fp2.tahc_params));
}

TEST_F(CheckpointResumeTest, CompletedResumeLeavesBankFileByteIdentical) {
  // A resume that restores everything must not grow or rewrite the bank:
  // restored fates dedup against what the file already holds, and restored
  // embeddings are borrowed, not re-appended.
  std::string dir = FreshDir("bank_bytes");
  AutoCtsOptions opts = TinyOptions(2);
  opts.checkpoint.dir = dir;
  opts.checkpoint.resume = true;
  {
    AutoCtsPlusPlus first(opts);
    first.Pretrain(TinySourceTasks());
  }
  std::string bank_path = dir + "/pipeline.bank";
  std::string before = ReadFileToString(bank_path).value();

  AutoCtsPlusPlus second(opts);
  StatusOr<PretrainReport> report = second.TryPretrain(TinySourceTasks());
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report.value().robustness.resumed_samples, kPendingSamples);
  // Both tasks' preliminary embeddings came back as zero-copy borrows.
  EXPECT_EQ(report.value().robustness.resumed_task_embeddings, 2);

  std::string after = ReadFileToString(bank_path).value();
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(std::memcmp(before.data(), after.data(), before.size()), 0);
}

TEST_F(CheckpointResumeTest, TornBankTailRecoveredOnResume) {
  // Kill mid-collection, then chop bytes off the bank — the state a real
  // SIGKILL leaves when it lands inside an append. Resume must truncate
  // back to the last complete frame, retrain what was lost, and still end
  // bit-identical to an uninterrupted run.
  PipelineFingerprint baseline = RunUninterrupted(1);
  std::string dir = FreshDir("torn_bank");
  AutoCtsOptions opts = TinyOptions(1);
  opts.checkpoint.dir = dir;
  opts.checkpoint.resume = true;
  {
    AutoCtsPlusPlus fw(opts);
    ArmFault(FaultPoint::kKillBeforeSample, 2);
    EXPECT_THROW(fw.Pretrain(TinySourceTasks()), InjectedKill);
    DisarmAllFaults();
  }
  std::string bank_path = dir + "/pipeline.bank";
  uint64_t size = std::filesystem::file_size(bank_path);
  ASSERT_GT(size, 72u);  // Header plus at least one frame to tear.
  std::filesystem::resize_file(bank_path, size - 8);

  AutoCtsPlusPlus resumed(opts);
  StatusOr<PretrainReport> report = resumed.TryPretrain(TinySourceTasks());
  ASSERT_TRUE(report.ok()) << report.status().message();
  PipelineFingerprint fp = Fingerprint(&resumed);
  ExpectBanksIdentical(baseline.bank, fp.bank);
  EXPECT_TRUE(BitEqual(baseline.encoder_params, fp.encoder_params));
  EXPECT_TRUE(BitEqual(baseline.tahc_params, fp.tahc_params));
}

TEST_F(CheckpointResumeTest, ResumeWithCorruptManifestFailsCleanly) {
  std::string dir = FreshDir("resume_corrupt");
  AutoCtsOptions opts = TinyOptions(1);
  opts.checkpoint.dir = dir;
  opts.checkpoint.resume = true;
  {
    AutoCtsPlusPlus fw(opts);
    fw.Pretrain(TinySourceTasks());
  }
  std::string manifest = dir + "/pipeline.manifest";
  std::string bytes = ReadFileToString(manifest).value();
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(manifest, bytes).ok());
  AutoCtsPlusPlus fw(opts);
  StatusOr<PretrainReport> report = fw.TryPretrain(TinySourceTasks());
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(fw.pretrained());
}

// ---------------------------------------------------------------------------
// NaN injection, retry, and quarantine.

TEST_F(NanQuarantineTest, PersistentNanQuarantinesExactlyThatSample) {
  // Pending index 2 = second task, slot 0 (shared sample).
  constexpr int64_t kVictim = 2;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AutoCtsPlusPlus fw(TinyOptions(threads));
    ArmFault(FaultPoint::kNanLoss, kVictim);
    PretrainReport report = fw.Pretrain(TinySourceTasks());
    DisarmAllFaults();

    const std::vector<TaskSampleSet>& bank = fw.collected_samples();
    ASSERT_EQ(bank.size(), 2u);
    int quarantined = 0;
    for (size_t t = 0; t < bank.size(); ++t) {
      for (size_t i = 0; i < bank[t].samples.size(); ++i) {
        const LabeledSample& s = bank[t].samples[i];
        if (t == 1 && i == 0) {
          // The victim: failed, retried at lr/2 (still NaN), quarantined.
          EXPECT_TRUE(s.quarantined);
          EXPECT_FALSE(s.usable());
          EXPECT_EQ(s.retries, 1);
          EXPECT_TRUE(std::isnan(s.r_prime));
          EXPECT_NE(s.note.find("non-finite loss"), std::string::npos)
              << s.note;
          ++quarantined;
        } else {
          EXPECT_FALSE(s.quarantined) << "task " << t << " sample " << i;
          EXPECT_EQ(s.retries, 0);
          EXPECT_TRUE(std::isfinite(s.r_prime));
        }
      }
    }
    EXPECT_EQ(quarantined, 1);
    EXPECT_EQ(report.robustness.quarantined_samples, 1);
    EXPECT_EQ(report.robustness.retried_samples, 0);
    EXPECT_EQ(report.robustness.nonfinite_events, 2);  // Attempt + retry.
    ASSERT_EQ(report.robustness.quarantine_reasons.size(), 1u);
    EXPECT_NE(report.robustness.quarantine_reasons[0].find("sample #0"),
              std::string::npos)
        << report.robustness.quarantine_reasons[0];
  }
}

TEST_F(NanQuarantineTest, TransientNanRecoversViaLrHalvedRetry) {
  constexpr int64_t kVictim = 1;
  AutoCtsPlusPlus fw(TinyOptions(1));
  ArmFault(FaultPoint::kNanLoss, kVictim, /*fires=*/1);
  PretrainReport report = fw.Pretrain(TinySourceTasks());
  const LabeledSample& victim = fw.collected_samples()[0].samples[1];
  EXPECT_FALSE(victim.quarantined);
  EXPECT_TRUE(victim.usable());
  EXPECT_EQ(victim.retries, 1);
  EXPECT_TRUE(std::isfinite(victim.r_prime));
  EXPECT_EQ(report.robustness.retried_samples, 1);
  EXPECT_EQ(report.robustness.quarantined_samples, 0);
  EXPECT_EQ(report.robustness.nonfinite_events, 1);
}

TEST_F(NanQuarantineTest, QuarantinedSampleNeverEntersLabelSet) {
  // Quarantine one sample, then verify the label-consuming surfaces ignore
  // it: PairwiseAccuracy pools and the curriculum pairing.
  AutoCtsPlusPlus fw(TinyOptions(1));
  ArmFault(FaultPoint::kNanLoss, 0);
  PretrainReport report = fw.Pretrain(TinySourceTasks());
  DisarmAllFaults();
  ASSERT_TRUE(fw.collected_samples()[0].samples[0].quarantined);
  // A NaN label anywhere in the BCE targets would make every epoch loss
  // NaN; finite losses prove the quarantined sample stayed out.
  for (double loss : report.epoch_loss) {
    EXPECT_TRUE(std::isfinite(loss)) << "poisoned epoch loss";
  }
  EXPECT_TRUE(std::isfinite(report.final_accuracy));
  // The task that lost a sample has 1 usable sample: no pairs from it.
  double acc = PairwiseAccuracy(*fw.comparator(), fw.collected_samples()[0]);
  EXPECT_EQ(acc, 1.0);  // Degenerate pool (< 2 usable) reports perfect.
}

TEST_F(NanQuarantineTest, QuarantineSurvivesCheckpointRoundTrip) {
  std::string dir = FreshDir("nan_resume");
  AutoCtsOptions opts = TinyOptions(1);
  opts.checkpoint.dir = dir;
  opts.checkpoint.resume = true;
  {
    AutoCtsPlusPlus fw(opts);
    ArmFault(FaultPoint::kNanLoss, 3);
    fw.Pretrain(TinySourceTasks());
    DisarmAllFaults();
    ASSERT_TRUE(fw.collected_samples()[1].samples[1].quarantined);
  }
  // No fault armed in the resumed process: the quarantine verdict must come
  // from the manifest, not from re-training (which would now succeed).
  AutoCtsPlusPlus resumed(opts);
  StatusOr<PretrainReport> report = resumed.TryPretrain(TinySourceTasks());
  ASSERT_TRUE(report.ok()) << report.status().message();
  const LabeledSample& victim = resumed.collected_samples()[1].samples[1];
  EXPECT_TRUE(victim.quarantined);
  EXPECT_EQ(victim.retries, 1);
  EXPECT_EQ(report.value().robustness.quarantined_samples, 1);
}

// ---------------------------------------------------------------------------
// Guardrails in training and search.

TEST_F(GuardrailTest, DivergedCandidatesExcludedFromWinnerSelection) {
  ForecastTask task = UnseenTask();
  JointSearchSpace space;
  Rng rng(31);
  std::vector<ArchHyper> candidates = space.SampleDistinct(2, &rng);
  TrainOptions train;
  train.epochs = 1;
  train.batch_size = 2;
  train.batches_per_epoch = 2;
  // Every candidate training sees a NaN loss immediately.
  ArmFault(FaultPoint::kNanLoss, kAnyAddress);
  SearchOutcome outcome = TrainTopKAndSelect(
      candidates, task, train, ScaleConfig::Test(), ExecContext{}.WithSeed(5));
  EXPECT_EQ(outcome.robustness.diverged_candidates, 2);
  // All-diverged: the reported winner carries its non-OK status instead of
  // a fake 0.0-MAE report.
  EXPECT_TRUE(outcome.best_report.diverged());
}

TEST_F(GuardrailTest, TrainerReportsNonFiniteLossAsStatus) {
  ForecastTask task = UnseenTask();
  JointSearchSpace space;
  Rng rng(5);
  ArchHyper ah = space.Sample(&rng);
  ForecasterSpec spec = MakeForecasterSpec(task);
  auto model = BuildSearchedModel(ah, spec, ScaleConfig::Test(), 11);
  TrainOptions train;
  train.epochs = 1;
  train.batch_size = 2;
  train.batches_per_epoch = 2;
  ModelTrainer trainer(task, train);
  ArmFault(FaultPoint::kNanLoss, kAnyAddress);
  TrainReport report = trainer.Train(model.get());
  EXPECT_TRUE(report.diverged());
  EXPECT_NE(report.status.message().find("non-finite loss"),
            std::string::npos)
      << report.status.message();
}

TEST_F(GuardrailTest, CheckpointWriteFailureDegradesToCounter) {
  std::string dir = FreshDir("io_degrade");
  AutoCtsOptions opts = TinyOptions(1);
  opts.checkpoint.dir = dir;
  // Every atomic write fails; the pipeline must still complete.
  ArmFault(FaultPoint::kIoWriteFail, kAnyAddress);
  AutoCtsPlusPlus fw(opts);
  StatusOr<PretrainReport> report = fw.TryPretrain(TinySourceTasks());
  DisarmAllFaults();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(fw.pretrained());
  EXPECT_GT(report.value().robustness.checkpoint_write_failures, 0);
  EXPECT_EQ(report.value().robustness.checkpoint_writes,
            report.value().robustness.checkpoint_write_failures);
  // And the math was untouched by the IO trouble.
  PipelineFingerprint baseline = RunUninterrupted(1);
  ExpectBanksIdentical(baseline.bank, fw.collected_samples());
}

TEST_F(GuardrailTest, GuardsCanBeDisabledProgrammatically) {
  SetGuardsEnabled(false);
  EXPECT_FALSE(GuardsEnabled());
  SetGuardsEnabled(true);
  EXPECT_TRUE(GuardsEnabled());
}

TEST_F(GuardrailTest, AllFiniteBlockedFindsTheOneBadElement) {
  std::vector<float> x(10000, 1.0f);
  EXPECT_TRUE(AllFiniteBlocked(x.data(), static_cast<int64_t>(x.size())));
  x[9876] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(AllFiniteBlocked(x.data(), static_cast<int64_t>(x.size())));
  x[9876] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(AllFiniteBlocked(x.data(), static_cast<int64_t>(x.size())));
  x[9876] = 1.0f;
  // Large-but-finite values must not overflow the block accumulator into a
  // false positive.
  for (auto& v : x) v = std::numeric_limits<float>::max();
  EXPECT_TRUE(AllFiniteBlocked(x.data(), static_cast<int64_t>(x.size())));
}

// ---------------------------------------------------------------------------
// Sharded collection under injected faults (src/shard): a worker killed
// mid-shard and a corrupted coordinator/worker frame must both be absorbed
// by work-stealing reclaim with a bit-identical merged bank.

class ShardFaultTest : public FaultTest {
 protected:
  void SetUp() override {
#if defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "fork-based test skipped under TSan";
#endif
  }
};

/// Tiny two-task sharded collection; returns the merged-bank bytes.
std::string CollectShardedMerged(const std::string& dir, int workers) {
  ScaleConfig cfg = ScaleConfig::Test();
  std::vector<ForecastTask> tasks;
  for (const char* name : {"PEMS04", "ETTh1"}) {
    ForecastTask t;
    t.data = MakeSyntheticDataset(name, cfg).value();
    t.p = 12;
    t.q = 12;
    tasks.push_back(t);
  }
  Rng rng(18);
  MlpEncoder encoder(1, 4, &rng);
  JointSearchSpace space;
  SampleCollectionOptions opts;
  opts.shared_count = 1;
  opts.random_count = 1;
  opts.early_validation_epochs = 1;
  opts.windows_per_task = 2;
  opts.train.batch_size = 2;
  opts.train.batches_per_epoch = 2;
  ShardOptions shard;
  shard.num_workers = workers;
  shard.dir = dir;
  shard.config_hash = 55;
  shard.heartbeat_ms = 10;
  StatusOr<std::vector<TaskSampleSet>> sets =
      ShardedCollectSamples(tasks, space, encoder, cfg, opts, shard);
  EXPECT_TRUE(sets.ok()) << sets.status().message();
  StatusOr<std::string> bytes = ReadFileToString(MergedBankPath(dir));
  EXPECT_TRUE(bytes.ok()) << bytes.status().message();
  return bytes.ok() ? bytes.value() : std::string();
}

TEST_F(ShardFaultTest, KilledWorkerReclaimedWithIdenticalMergedBank) {
  const std::string baseline =
      CollectShardedMerged(FreshDir("shard_nofault"), 2);
  ASSERT_FALSE(baseline.empty());

  // Kill worker ordinal 0 at its first sample commit (mid-shard: the shard
  // is claimed, the bank holds everything committed before the probe). The
  // coordinator must reclaim the shard and finish with a replacement.
  const ShardStats before = CurrentShardStats();
  ArmFault(FaultPoint::kShardWorkerKill, 0);
  const std::string with_kill =
      CollectShardedMerged(FreshDir("shard_kill"), 2);
  DisarmAllFaults();
  EXPECT_EQ(baseline, with_kill);
  const ShardStats after = CurrentShardStats();
  EXPECT_GT(after.worker_restarts, before.worker_restarts);
  EXPECT_GT(after.shards_reclaimed, before.shards_reclaimed);
}

TEST_F(ShardFaultTest, CorruptWorkerFrameDropsWorkerAndRecovers) {
  const std::string baseline =
      CollectShardedMerged(FreshDir("shard_nocorrupt"), 2);
  ASSERT_FALSE(baseline.empty());

  // Worker 0's first frame is corrupted in flight: the coordinator's CRC
  // check treats it as a dead peer, drops the channel, and a replacement
  // covers the work.
  const ShardStats before = CurrentShardStats();
  ArmFault(FaultPoint::kShardMsgCorrupt, 0, /*fires=*/1);
  const std::string corrupted =
      CollectShardedMerged(FreshDir("shard_corrupt_w"), 2);
  DisarmAllFaults();
  EXPECT_EQ(baseline, corrupted);
  EXPECT_GT(CurrentShardStats().corrupt_frames, before.corrupt_frames);
}

TEST_F(ShardFaultTest, CorruptCoordinatorFrameKillsWorkerAndRecovers) {
  const std::string baseline =
      CollectShardedMerged(FreshDir("shard_nocorrupt_c"), 2);
  ASSERT_FALSE(baseline.empty());

  // One coordinator-sent frame (an assignment) is corrupted: the receiving
  // worker cannot trust the channel and exits, the coordinator sees the
  // death and reclaims. The CRC failure happens in the worker process, so
  // only completion and bit-identity are observable here.
  ArmFault(FaultPoint::kShardMsgCorrupt, kShardCoordinatorAddress,
           /*fires=*/1);
  const std::string corrupted =
      CollectShardedMerged(FreshDir("shard_corrupt_c"), 2);
  DisarmAllFaults();
  EXPECT_EQ(baseline, corrupted);
}

}  // namespace
}  // namespace autocts
