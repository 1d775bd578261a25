#include "core/checkpoint.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/binio.h"
#include "common/crc32.h"
#include "common/fileio.h"

namespace autocts {
namespace {

/// Manifest frame: magic, CRC32 of everything after the CRC field, then
/// config hash, stage, and RNG state. Fates and embeddings live in the
/// append-only sample bank next to it.
constexpr uint64_t kManifestMagic = 0x41435453434b5032ull;  // "ACTSCKP2"

}  // namespace

PipelineCheckpoint::PipelineCheckpoint(std::string dir, uint64_t config_hash)
    : dir_(std::move(dir)), config_hash_(config_hash) {
  CHECK(!dir_.empty()) << "checkpoint directory must be set";
  // Failure to create the directory is not fatal here: every subsequent
  // write degrades to a counted failure, which is the documented policy.
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
}

std::string PipelineCheckpoint::ManifestPath() const {
  return dir_ + "/pipeline.manifest";
}

std::string PipelineCheckpoint::BankPath() const {
  return dir_ + "/pipeline.bank";
}

std::string PipelineCheckpoint::EncoderPath() const {
  return dir_ + "/encoder.params";
}

std::string PipelineCheckpoint::ComparatorPath() const {
  return dir_ + "/tahc.params";
}

uint64_t PipelineCheckpoint::SampleSignature(const LabeledSample& sample) {
  return SampleFateSignature(sample);
}

Status PipelineCheckpoint::Load() {
  const std::string path = ManifestPath();
  StatusOr<std::string> contents = ReadFileToString(path);
  // A missing manifest is simply "nothing done yet" — the normal state of
  // a first run launched with --resume for crash-safety. The bank may
  // still exist (commits land before the first stage commit), so it is
  // opened either way.
  const bool have_manifest = contents.ok();

  // Parse into locals: nothing below may touch members until manifest AND
  // bank verified, so a rejected file leaves this object unchanged.
  uint32_t stage = 0;
  std::string rng_state;
  if (have_manifest) {
    const std::string& bytes = contents.value();
    FrameReader reader(bytes, 0);
    uint64_t magic = 0;
    uint32_t crc = 0;
    if (!reader.Read(&magic) || !reader.Read(&crc)) {
      return Status::Error("truncated checkpoint manifest " + path);
    }
    if (magic != kManifestMagic) {
      return Status::Error("bad magic in checkpoint manifest " + path);
    }
    const size_t payload_offset = sizeof(uint64_t) + sizeof(uint32_t);
    if (Crc32(bytes.data() + payload_offset, bytes.size() - payload_offset) !=
        crc) {
      return Status::Error("CRC mismatch in checkpoint manifest " + path +
                           " (corrupt or torn file)");
    }
    uint64_t config_hash = 0;
    if (!reader.Read(&config_hash) || !reader.Read(&stage) ||
        !reader.ReadString(&rng_state)) {
      return Status::Error("truncated checkpoint manifest " + path);
    }
    if (config_hash != config_hash_) {
      return Status::Error(
          "checkpoint manifest " + path +
          " was written under a different configuration; refusing to resume");
    }
    if (stage > static_cast<uint32_t>(kStageComparator)) {
      return Status::Error("checkpoint manifest " + path +
                           " records unknown stage " + std::to_string(stage));
    }
    if (reader.remaining() != 0) {
      return Status::Error(std::to_string(reader.remaining()) +
                           " trailing bytes in checkpoint manifest " + path);
    }
  }

  // The bank holds the fates; open it (append mode, recovering a torn
  // tail) before mutating anything so bank corruption is all-or-nothing
  // too.
  std::unique_ptr<SampleBank> bank;
  std::map<std::pair<int, int>, SampleFate> bank_fates;
  std::error_code ec;
  if (std::filesystem::exists(BankPath(), ec)) {
    StatusOr<std::unique_ptr<SampleBank>> opened =
        SampleBank::Open(BankPath(), config_hash_, SampleBank::Mode::kAppend);
    if (!opened.ok()) return opened.status();
    bank = std::move(opened).value();
    for (const BankRecord& r : bank->records()) {
      SampleFate fate;
      fate.signature = r.signature;
      fate.r_prime = r.r_prime;
      fate.shared = r.shared;
      fate.quarantined = r.quarantined;
      fate.retries = r.retries;
      fate.note = r.note;
      fate.arch = r.arch;
      bank_fates[{r.task, r.slot}] = std::move(fate);
    }
  }

  if (!have_manifest && bank == nullptr) return Status::Ok();

  stage_done_ = static_cast<int>(stage);
  rng_state_ = std::move(rng_state);
  fates_ = std::move(bank_fates);
  bank_ = std::move(bank);
  return Status::Ok();
}

void PipelineCheckpoint::WriteManifest() {
  // The manifest carries only stage progress — the fates live in the
  // append-only bank, so this write is O(1) instead of O(samples).
  std::string payload;
  AppendPod(&payload, config_hash_);
  AppendPod(&payload, static_cast<uint32_t>(stage_done_));
  AppendString(&payload, rng_state_);
  std::string frame;
  frame.reserve(sizeof(uint64_t) + sizeof(uint32_t) + payload.size());
  AppendPod(&frame, kManifestMagic);
  AppendPod(&frame, Crc32(payload.data(), payload.size()));
  frame += payload;
  ++robustness_.checkpoint_writes;
  if (!AtomicWriteFile(ManifestPath(), frame).ok()) {
    ++robustness_.checkpoint_write_failures;
  }
}

bool PipelineCheckpoint::EnsureBankWriter() {
  if (bank_ != nullptr) return true;
  StatusOr<std::unique_ptr<SampleBank>> opened =
      SampleBank::Open(BankPath(), config_hash_, SampleBank::Mode::kAppend);
  if (!opened.ok()) return false;
  bank_ = std::move(opened).value();
  return true;
}

void PipelineCheckpoint::AppendFateToBank(int task, int slot,
                                          const SampleFate& fate) {
  ++robustness_.checkpoint_writes;
  if (!EnsureBankWriter()) {
    ++robustness_.checkpoint_write_failures;
    return;
  }
  BankRecord record;
  record.task = task;
  record.slot = slot;
  record.signature = fate.signature;
  record.r_prime = fate.r_prime;
  record.shared = fate.shared;
  record.quarantined = fate.quarantined;
  record.retries = fate.retries;
  record.note = fate.note;
  record.arch = fate.arch;
  if (!bank_->AppendRecord(record).ok()) {
    ++robustness_.checkpoint_write_failures;
  }
}

bool PipelineCheckpoint::SameFate(const SampleFate& a, const SampleFate& b) {
  uint64_t ra = 0, rb = 0;
  static_assert(sizeof(ra) == sizeof(a.r_prime));
  std::memcpy(&ra, &a.r_prime, sizeof(ra));
  std::memcpy(&rb, &b.r_prime, sizeof(rb));
  return a.signature == b.signature && ra == rb &&
         a.quarantined == b.quarantined && a.retries == b.retries &&
         a.note == b.note;
}

void PipelineCheckpoint::CommitStage(int stage, const std::string& rng_state) {
  if (stage > stage_done_) stage_done_ = stage;
  if (!rng_state.empty()) rng_state_ = rng_state;
  WriteManifest();
}

void PipelineCheckpoint::NoteArtifactWrite(const Status& status) {
  ++robustness_.checkpoint_writes;
  if (!status.ok()) ++robustness_.checkpoint_write_failures;
}

bool PipelineCheckpoint::Restore(int task, int slot, LabeledSample* sample) {
  auto it = fates_.find({task, slot});
  if (it == fates_.end()) return false;
  // The caller pre-filled arch_hyper/shared from its deterministic serial
  // pass; a signature mismatch means the fate belongs to a different
  // draw (stale file, edited options) — retrain rather than mislabel.
  if (it->second.signature != SampleSignature(*sample)) return false;
  sample->r_prime = it->second.r_prime;
  sample->quarantined = it->second.quarantined;
  sample->retries = it->second.retries;
  sample->note = it->second.note;
  ++robustness_.resumed_samples;
  return true;
}

void PipelineCheckpoint::Commit(int task, int slot,
                                const LabeledSample& sample) {
  SampleFate fate;
  fate.signature = SampleSignature(sample);
  fate.r_prime = sample.r_prime;
  fate.shared = sample.shared;
  fate.quarantined = sample.quarantined;
  fate.retries = sample.retries;
  fate.note = sample.note;
  fate.arch = sample.arch_hyper.Signature();
  // The collector commits restored samples too; an identical fate is
  // already durable, and skipping it keeps a resumed run's bank file
  // byte-identical to the uninterrupted one instead of growing duplicate
  // records.
  auto it = fates_.find({task, slot});
  if (it != fates_.end() && SameFate(it->second, fate)) return;
  fates_[{task, slot}] = std::move(fate);
  AppendFateToBank(task, slot, fates_[{task, slot}]);
}

bool PipelineCheckpoint::RestoreTaskSection(int task, uint64_t key,
                                            Tensor* preliminary) {
  if (bank_ == nullptr) return false;
  const BankSection* section = bank_->FindSection(task, key);
  if (section == nullptr) return false;
  bank_->AdviseWillNeed(*section);
  *preliminary = bank_->BorrowSection(*section);
  ++robustness_.resumed_task_embeddings;
  return true;
}

void PipelineCheckpoint::CommitTaskSection(int task, uint64_t key,
                                           const ForecastTask& forecast_task,
                                           const Tensor& preliminary) {
  ++robustness_.checkpoint_writes;
  if (!EnsureBankWriter()) {
    ++robustness_.checkpoint_write_failures;
    return;
  }
  Status appended = bank_->AppendSection(
      task, key, forecast_task.name(), preliminary.shape(),
      preliminary.data().data());
  if (!appended.ok()) ++robustness_.checkpoint_write_failures;
}

}  // namespace autocts
