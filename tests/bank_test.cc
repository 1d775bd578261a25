#include "comparator/bank_file.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "common/fileio.h"
#include "comparator/pretrain.h"
#include "data/synthetic.h"
#include "embedding/ts2vec.h"

// Fork-based cross-process tests deadlock under TSan; skip them there.
#if defined(__SANITIZE_THREAD__)
#define BANK_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BANK_TEST_TSAN 1
#endif
#endif

namespace autocts {
namespace {

using ::testing::TempDir;

class BankFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    DisarmAllFaults();
    SetSampleBankVerifyOnOpen(false);
  }

  std::string FreshPath(const std::string& name) {
    std::string path = TempDir() + "/bank_" + name;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".mmap", ec);
    return path;
  }
};

BankRecord MakeRecord(int task, int slot, double r_prime) {
  BankRecord r;
  r.task = task;
  r.slot = slot;
  r.signature = 0x1234u + static_cast<uint64_t>(slot);
  r.r_prime = r_prime;
  r.shared = (slot % 2 == 0);
  r.quarantined = false;
  r.retries = slot % 2;
  r.note = "";
  r.arch = "B2C5H32";
  return r;
}

std::vector<float> MakeFloats(int n, float base) {
  std::vector<float> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = base + 0.25f * i;
  return v;
}

// Creates a bank with two sections and three records and closes it.
void WriteSmallBank(const std::string& path, uint64_t config_hash) {
  auto bank = SampleBank::Open(path, config_hash, SampleBank::Mode::kAppend);
  ASSERT_TRUE(bank.ok()) << bank.status().message();
  std::vector<float> a = MakeFloats(2 * 3 * 4, 1.0f);
  std::vector<float> b = MakeFloats(2 * 3 * 4, -5.0f);
  ASSERT_TRUE(
      bank.value()->AppendSection(0, 77, "PEMS04", {2, 3, 4}, a.data()).ok());
  ASSERT_TRUE(
      bank.value()->AppendSection(1, 78, "ETTh1", {2, 3, 4}, b.data()).ok());
  ASSERT_TRUE(bank.value()->AppendRecord(MakeRecord(0, 0, 0.5)).ok());
  ASSERT_TRUE(bank.value()->AppendRecord(MakeRecord(0, 1, 0.25)).ok());
  ASSERT_TRUE(bank.value()->AppendRecord(MakeRecord(1, 0, 0.125)).ok());
}

TEST_F(BankFileTest, AppendReopenRoundTrip) {
  std::string path = FreshPath("roundtrip");
  WriteSmallBank(path, 42);

  auto bank = SampleBank::Open(path, 42, SampleBank::Mode::kReadOnly);
  ASSERT_TRUE(bank.ok()) << bank.status().message();
  const SampleBank& b = *bank.value();
  EXPECT_EQ(b.config_hash(), 42u);
  ASSERT_EQ(b.records().size(), 3u);
  EXPECT_EQ(b.records()[1].task, 0);
  EXPECT_EQ(b.records()[1].slot, 1);
  EXPECT_EQ(b.records()[1].r_prime, 0.25);
  EXPECT_EQ(b.records()[1].retries, 1);
  EXPECT_EQ(b.records()[1].arch, "B2C5H32");
  ASSERT_EQ(b.sections().size(), 2u);
  const BankSection* s = b.FindSection(1, 78);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name, "ETTh1");
  EXPECT_EQ(s->shape, (std::vector<int>{2, 3, 4}));
  // The raw floats sit at a 64-byte-aligned offset for zero-copy borrowing.
  EXPECT_EQ(s->float_offset % 64, 0u);
  Tensor t = b.BorrowSection(*s);
  EXPECT_EQ(t.shape(), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(t.data(), MakeFloats(24, -5.0f));
  EXPECT_EQ(b.FindSection(2, 99), nullptr);
  EXPECT_TRUE(b.VerifyAll().ok());
}

TEST_F(BankFileTest, BorrowedTensorOutlivesBankHandle) {
  std::string path = FreshPath("outlives");
  WriteSmallBank(path, 1);
  Tensor borrowed;
  {
    auto bank = SampleBank::Open(path, 1, SampleBank::Mode::kReadOnly);
    ASSERT_TRUE(bank.ok());
    const BankSection* s = bank.value()->FindSection(0, 77);
    ASSERT_NE(s, nullptr);
    borrowed = bank.value()->BorrowSection(*s);
  }  // Bank handle gone; the tensor's keepalive pins the mapping.
  EXPECT_EQ(borrowed.data(), MakeFloats(24, 1.0f));
}

TEST_F(BankFileTest, ReopenForAppendExtendsExistingBank) {
  std::string path = FreshPath("extend");
  WriteSmallBank(path, 9);
  {
    auto bank = SampleBank::Open(path, 9, SampleBank::Mode::kAppend);
    ASSERT_TRUE(bank.ok()) << bank.status().message();
    EXPECT_EQ(bank.value()->records().size(), 3u);
    ASSERT_TRUE(bank.value()->AppendRecord(MakeRecord(1, 1, 0.0625)).ok());
  }
  auto bank = SampleBank::Open(path, 9, SampleBank::Mode::kReadOnly);
  ASSERT_TRUE(bank.ok());
  EXPECT_EQ(bank.value()->records().size(), 4u);
  EXPECT_TRUE(bank.value()->VerifyAll().ok());
}

TEST_F(BankFileTest, TornTailRejectedReadOnlyRecoveredOnAppend) {
  std::string path = FreshPath("torn");
  WriteSmallBank(path, 7);
  uint64_t full_size = std::filesystem::file_size(path);
  // Chop into the final frame: the classic kill-mid-append state.
  std::filesystem::resize_file(path, full_size - 8);

  // Read-only openers must not guess; they report the torn tail.
  auto ro = SampleBank::Open(path, 7, SampleBank::Mode::kReadOnly);
  ASSERT_FALSE(ro.ok());
  EXPECT_NE(ro.status().message().find("torn"), std::string::npos)
      << ro.status().message();

  // An append opener recovers by truncating back to the last complete
  // frame — the torn record is gone, everything before it intact.
  {
    auto rw = SampleBank::Open(path, 7, SampleBank::Mode::kAppend);
    ASSERT_TRUE(rw.ok()) << rw.status().message();
    EXPECT_EQ(rw.value()->records().size(), 2u);
    EXPECT_EQ(rw.value()->sections().size(), 2u);
  }
  EXPECT_LT(std::filesystem::file_size(path), full_size - 8);
  auto again = SampleBank::Open(path, 7, SampleBank::Mode::kReadOnly);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(again.value()->records().size(), 2u);
}

TEST_F(BankFileTest, SecondAppendOpenerRejectedWhileLockHeld) {
  std::string path = FreshPath("locked");
  WriteSmallBank(path, 11);

  auto writer = SampleBank::Open(path, 11, SampleBank::Mode::kAppend);
  ASSERT_TRUE(writer.ok()) << writer.status().message();

  // The writer holds an exclusive flock on the file: a second append
  // opener — another process racing the same bank path, or (as here, since
  // flock is per open-file-description) a second open in this process —
  // gets a clear Status instead of interleaving frames into a torn file.
  auto second = SampleBank::Open(path, 11, SampleBank::Mode::kAppend);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("append lock"), std::string::npos)
      << second.status().message();

  // Read-only openers are unaffected (one writer, many readers).
  auto ro = SampleBank::Open(path, 11, SampleBank::Mode::kReadOnly);
  EXPECT_TRUE(ro.ok()) << ro.status().message();

  // The lock dies with the writer; the next append opener proceeds.
  writer.value().reset();
  auto after = SampleBank::Open(path, 11, SampleBank::Mode::kAppend);
  EXPECT_TRUE(after.ok()) << after.status().message();
}

TEST_F(BankFileTest, FlippedSectionCrcCaughtByScrubAndVerifyOnOpen) {
  std::string path = FreshPath("flip");
  WriteSmallBank(path, 3);
  // Flip one byte inside the first section's float payload (offset 64 is
  // the first frame header; its floats start at the next 64-byte line).
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = bytes.value();
  damaged[200] = static_cast<char>(damaged[200] ^ 0x40);
  ASSERT_TRUE(AtomicWriteFile(path, damaged).ok());

  // Record CRCs still verify, so the lazy default open succeeds...
  auto bank = SampleBank::Open(path, 3, SampleBank::Mode::kReadOnly);
  ASSERT_TRUE(bank.ok()) << bank.status().message();
  // ...but the scrub finds the damage.
  Status verify = bank.value()->VerifyAll();
  ASSERT_FALSE(verify.ok());
  EXPECT_NE(verify.message().find("CRC"), std::string::npos)
      << verify.message();

  // AUTOCTS_BANK_VERIFY=1 moves that check to open time.
  SetSampleBankVerifyOnOpen(true);
  auto strict = SampleBank::Open(path, 3, SampleBank::Mode::kReadOnly);
  EXPECT_FALSE(strict.ok());
}

TEST_F(BankFileTest, StaleHeaderVersionRejected) {
  std::string path = FreshPath("version");
  WriteSmallBank(path, 5);
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string stale = bytes.value();
  // Patch the version field and recompute the header CRC so only the
  // version — not general corruption — explains the rejection.
  uint32_t version = 99;
  std::memcpy(&stale[8], &version, sizeof(version));
  uint32_t crc = Crc32(stale.data() + 16, 48);
  std::memcpy(&stale[12], &crc, sizeof(crc));
  ASSERT_TRUE(AtomicWriteFile(path, stale).ok());

  auto bank = SampleBank::Open(path, 5, SampleBank::Mode::kReadOnly);
  ASSERT_FALSE(bank.ok());
  EXPECT_NE(bank.status().message().find("version"), std::string::npos)
      << bank.status().message();
}

TEST_F(BankFileTest, BadMagicAndHeaderCrcRejected) {
  std::string path = FreshPath("magic");
  WriteSmallBank(path, 5);
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  std::string bad_magic = bytes.value();
  bad_magic[0] = 'X';
  ASSERT_TRUE(AtomicWriteFile(path, bad_magic).ok());
  EXPECT_FALSE(SampleBank::Open(path, 5, SampleBank::Mode::kReadOnly).ok());

  std::string bad_crc = bytes.value();
  bad_crc[20] = static_cast<char>(bad_crc[20] ^ 0x01);  // Config hash byte.
  ASSERT_TRUE(AtomicWriteFile(path, bad_crc).ok());
  auto open = SampleBank::Open(path, 5, SampleBank::Mode::kReadOnly);
  ASSERT_FALSE(open.ok());
  EXPECT_NE(open.status().message().find("CRC"), std::string::npos);

  // A well-formed bank in the retired "ACTSBNK1" wholesale layout (magic,
  // payload CRC, config hash, sections, records) is rejected in both modes
  // and left untouched: no conversion, no sibling file.
  std::string payload;
  AppendPod(&payload, uint64_t{5});  // Config hash.
  AppendPod(&payload, uint64_t{0});  // Sections.
  AppendPod(&payload, uint64_t{1});  // Records.
  AppendPod(&payload, int32_t{0});   // Task.
  AppendPod(&payload, int32_t{0});   // Slot.
  AppendPod(&payload, uint64_t{0x1234});
  AppendPod(&payload, 0.5);
  AppendPod(&payload, uint8_t{1});   // Shared.
  AppendPod(&payload, uint8_t{0});   // Quarantined.
  AppendPod(&payload, int32_t{0});   // Retries.
  AppendString(&payload, "");
  AppendString(&payload, "B2C5H32");
  std::string wholesale;
  AppendPod(&wholesale, uint64_t{0x41435453424e4b31ull});  // "ACTSBNK1"
  AppendPod(&wholesale, Crc32(payload.data(), payload.size()));
  wholesale += payload;
  ASSERT_GE(wholesale.size(), 64u);
  ASSERT_TRUE(AtomicWriteFile(path, wholesale).ok());
  for (SampleBank::Mode mode :
       {SampleBank::Mode::kReadOnly, SampleBank::Mode::kAppend}) {
    auto legacy = SampleBank::Open(path, 5, mode);
    ASSERT_FALSE(legacy.ok());
    EXPECT_NE(legacy.status().message().find("magic"), std::string::npos)
        << legacy.status().message();
    EXPECT_EQ(ReadFileToString(path).value(), wholesale);
    EXPECT_FALSE(std::filesystem::exists(path + ".mmap"));
  }
}

TEST_F(BankFileTest, ConfigHashMismatchRejected) {
  std::string path = FreshPath("cfgmismatch");
  WriteSmallBank(path, 1111);
  auto bank = SampleBank::Open(path, 2222, SampleBank::Mode::kReadOnly);
  ASSERT_FALSE(bank.ok());
  EXPECT_NE(bank.status().message().find("configuration"), std::string::npos)
      << bank.status().message();
  // nullopt (the CLI inspection path) accepts any hash.
  EXPECT_TRUE(
      SampleBank::Open(path, std::nullopt, SampleBank::Mode::kReadOnly).ok());
}

TEST_F(BankFileTest, InjectedWriteFailureLeavesFileUnchanged) {
  std::string path = FreshPath("iofail");
  auto bank = SampleBank::Open(path, 6, SampleBank::Mode::kAppend);
  ASSERT_TRUE(bank.ok()) << bank.status().message();
  std::vector<float> floats = MakeFloats(8, 2.0f);
  ASSERT_TRUE(bank.value()->AppendSection(0, 1, "t", {8}, floats.data()).ok());
  auto before = ReadFileToString(path);
  ASSERT_TRUE(before.ok());

  ArmFault(FaultPoint::kIoWriteFail, kAnyAddress, /*fires=*/1);
  Status failed = bank.value()->AppendRecord(MakeRecord(0, 0, 0.5));
  DisarmAllFaults();
  EXPECT_FALSE(failed.ok());

  // All-or-nothing: the failed append left no partial frame behind.
  auto after = ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value(), after.value());

  // And the handle still works once IO recovers.
  ASSERT_TRUE(bank.value()->AppendRecord(MakeRecord(0, 0, 0.5)).ok());
  auto reopened = SampleBank::Open(path, 6, SampleBank::Mode::kReadOnly);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->records().size(), 1u);
  EXPECT_TRUE(reopened.value()->VerifyAll().ok());
}

TEST_F(BankFileTest, TwoProcessesShareOneReadOnlyBank) {
#ifdef BANK_TEST_TSAN
  GTEST_SKIP() << "fork-based test skipped under TSan";
#endif
  std::string path = FreshPath("fork");
  WriteSmallBank(path, 88);
  std::vector<float> expect_a = MakeFloats(24, 1.0f);
  std::vector<float> expect_b = MakeFloats(24, -5.0f);

  auto reads_back = [&]() -> bool {
    auto bank = SampleBank::Open(path, 88, SampleBank::Mode::kReadOnly);
    if (!bank.ok()) return false;
    const BankSection* sa = bank.value()->FindSection(0, 77);
    const BankSection* sb = bank.value()->FindSection(1, 78);
    if (sa == nullptr || sb == nullptr) return false;
    return bank.value()->BorrowSection(*sa).data() == expect_a &&
           bank.value()->BorrowSection(*sb).data() == expect_b &&
           bank.value()->records().size() == 3u;
  };

  pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Child process: map the same file and validate every byte.
    _exit(reads_back() ? 0 : 1);
  }
  // Parent reads concurrently with the child through its own mapping of
  // the same pages (MAP_SHARED on a read-only file).
  EXPECT_TRUE(reads_back());
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// ---------------------------------------------------------------------------
// Out-of-core pre-training: a comparator trained on borrowed (mmap-backed)
// preliminary embeddings must match one trained on freshly computed owned
// tensors bit for bit.

// Hook that restores preliminary embeddings from a bank and nothing else.
class SectionOnlyHook : public SampleBankHook {
 public:
  explicit SectionOnlyHook(const SampleBank* bank) : bank_(bank) {}
  bool Restore(int, int, LabeledSample*) override { return false; }
  void Commit(int, int, const LabeledSample&) override {}
  bool RestoreTaskSection(int task, uint64_t key,
                          Tensor* preliminary) override {
    const BankSection* s = bank_->FindSection(task, key);
    if (s == nullptr) return false;
    *preliminary = bank_->BorrowSection(*s);
    ++restored;
    return true;
  }
  int restored = 0;

 private:
  const SampleBank* bank_;
};

TEST_F(BankFileTest, OutOfCorePretrainBitIdenticalToOwned) {
  ScaleConfig cfg = ScaleConfig::Test();
  std::vector<ForecastTask> tasks;
  for (const char* name : {"PEMS04", "ETTh1"}) {
    ForecastTask t;
    t.data = MakeSyntheticDataset(name, cfg).value();
    t.p = 12;
    t.q = 12;
    tasks.push_back(t);
  }
  Rng rng(21);
  MlpEncoder encoder(1, 4, &rng);
  JointSearchSpace space;
  SampleCollectionOptions opts;
  opts.shared_count = 2;
  opts.random_count = 1;
  opts.early_validation_epochs = 1;
  opts.windows_per_task = 2;
  opts.train.batch_size = 2;
  opts.train.batches_per_epoch = 2;

  // Baseline: everything owned, no bank.
  std::vector<TaskSampleSet> owned =
      CollectSamples(tasks, space, encoder, cfg, opts);

  // Persist the preliminary embeddings, then re-collect with the hook so
  // the embeddings come back as zero-copy borrows of the mapping.
  std::string path = FreshPath("outofcore");
  {
    auto writer = SampleBank::Open(path, 0, SampleBank::Mode::kAppend);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    for (size_t ti = 0; ti < owned.size(); ++ti) {
      const TaskSampleSet& set = owned[ti];
      uint64_t key = TaskSectionKey(set.task, opts.windows_per_task);
      ASSERT_TRUE(writer.value()
                      ->AppendSection(static_cast<int>(ti), key,
                                      set.task.name(), set.preliminary.shape(),
                                      set.preliminary.data().data())
                      .ok());
    }
  }
  auto bank = SampleBank::Open(path, 0, SampleBank::Mode::kReadOnly);
  ASSERT_TRUE(bank.ok()) << bank.status().message();
  bank.value()->AdviseSequentialAll();
  SectionOnlyHook hook(bank.value().get());
  std::vector<TaskSampleSet> borrowed =
      CollectSamples(tasks, space, encoder, cfg, opts, {}, &hook);
  EXPECT_EQ(hook.restored, 2);

  ASSERT_EQ(borrowed.size(), owned.size());
  for (size_t ti = 0; ti < owned.size(); ++ti) {
    EXPECT_EQ(borrowed[ti].preliminary.data(), owned[ti].preliminary.data());
    ASSERT_EQ(borrowed[ti].samples.size(), owned[ti].samples.size());
    for (size_t si = 0; si < owned[ti].samples.size(); ++si) {
      EXPECT_EQ(borrowed[ti].samples[si].r_prime,
                owned[ti].samples[si].r_prime);
    }
  }

  // And the downstream T-AHC pre-training sees no difference either.
  PretrainOptions popts;
  popts.epochs = 2;
  popts.batch_size = 2;
  Comparator::Options copts;
  copts.gin.layers = 2;
  copts.gin.embed_dim = 8;
  copts.repr_dim = 4;
  copts.f1 = 8;
  copts.f2 = 4;
  copts.fc_dim = 16;
  Comparator a(copts, 31);
  Comparator b(copts, 31);
  PretrainReport ra = PretrainComparator(&a, owned, popts);
  PretrainReport rb = PretrainComparator(&b, borrowed, popts);
  ASSERT_EQ(ra.epoch_loss.size(), rb.epoch_loss.size());
  for (size_t e = 0; e < ra.epoch_loss.size(); ++e) {
    EXPECT_EQ(ra.epoch_loss[e], rb.epoch_loss[e]) << "epoch " << e;
  }
  EXPECT_EQ(ra.final_accuracy, rb.final_accuracy);
}

}  // namespace
}  // namespace autocts
