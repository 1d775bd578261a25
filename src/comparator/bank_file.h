#ifndef REPRO_COMPARATOR_BANK_FILE_H_
#define REPRO_COMPARATOR_BANK_FILE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mmap_file.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace autocts {

/// ---- Live toggle (seeded from AUTOCTS_BANK_VERIFY via RuntimeConfig) -----

/// Whether opening a bank CRC-verifies every section payload up front.
/// Off by default — sections are verified on scrub (VerifyAll, the CLI
/// fsck) rather than on map, which is what keeps open cost independent of
/// bank size. AUTOCTS_BANK_VERIFY=1 flips the default.
bool SampleBankVerifyOnOpen();
void SetSampleBankVerifyOnOpen(bool enabled);

/// ---- On-disk format -----------------------------------------------------
///
/// A sample bank (magic "ACTSBNK2") is a 64-byte header followed by a stream of CRC32-framed,
/// 64-byte-aligned append-only frames (full layout: DESIGN.md
/// "Memory-mapped sample bank"). Two frame kinds exist: task sections
/// (task metadata + a raw fp32 preliminary-embedding tensor, padded so the
/// floats sit at a 64-byte-aligned file offset for zero-copy borrowing)
/// and sample records (one labeled sample's fate). Integers and floats are
/// native-endian: banks are host-local artifacts like every other
/// checkpoint file in this repo, not interchange formats.

/// One labeled sample's persisted fate, as stored in (and parsed back out
/// of) a record frame. `signature` is PipelineCheckpoint::SampleSignature;
/// `arch` keeps the human-readable arch-hyper signature for inspection.
struct BankRecord {
  int task = 0;
  int slot = 0;
  uint64_t signature = 0;
  double r_prime = 0.0;
  bool shared = false;
  bool quarantined = false;
  int retries = 0;
  std::string note;
  std::string arch;
};

/// One task section discovered at open time: metadata plus the location of
/// the raw fp32 tensor payload inside the mapping.
struct BankSection {
  int task = 0;
  uint64_t key = 0;  ///< TaskSectionKey of the owning task + window count.
  std::string name;
  std::vector<int> shape;       ///< Preliminary embedding dims [W, S, F'].
  uint64_t float_offset = 0;    ///< 64-byte-aligned file offset of the data.
  uint64_t float_count = 0;
};

/// An open sample-bank file.
///
/// kReadOnly maps the file zero-copy and is strict: any structural damage
/// (bad magic, stale version, truncated frame, torn tail, record CRC
/// mismatch) is a Status error. kAppend additionally opens an append
/// descriptor, and treats an incomplete final frame as a torn append —
/// the expected after-kill state — recovering by truncating back to the
/// last complete frame; everything before it must still verify.
///
/// Concurrency: one writer, any number of read-only openers (in any mix of
/// processes — the mapping is MAP_SHARED on a read-only file). Readers see
/// the frames that existed when they opened; appends land beyond their
/// mapping and are picked up by reopening.
class SampleBank {
 public:
  enum class Mode { kReadOnly, kAppend };

  /// Opens (kAppend: creating if absent) the bank at `path`. When
  /// `expected_config_hash` is set, a bank written under a different
  /// configuration is rejected; pass nullopt to inspect any bank (CLI).
  /// A file of at least header size that is not an "ACTSBNK2" bank (the
  /// retired "ACTSBNK1" wholesale blob included) is rejected unmodified.
  static StatusOr<std::unique_ptr<SampleBank>> Open(
      const std::string& path, std::optional<uint64_t> expected_config_hash,
      Mode mode);

  /// Appends one task section (kAppend only). All-or-nothing: on failure
  /// the file is unchanged.
  Status AppendSection(int task, uint64_t key, const std::string& name,
                       const std::vector<int>& shape, const float* data);

  /// Appends one sample record (kAppend only). All-or-nothing.
  Status AppendRecord(const BankRecord& record);

  /// Records discovered at open, in file order (a later record for the
  /// same (task, slot) supersedes an earlier one).
  const std::vector<BankRecord>& records() const { return records_; }

  /// Sections discovered at open (sections appended through this handle
  /// are not borrowable until the file is reopened).
  const std::vector<BankSection>& sections() const { return sections_; }
  const BankSection* FindSection(int task, uint64_t key) const;

  /// Zero-copy view of a section's tensor. The mapping is pinned by the
  /// returned tensor's keepalive, so the view stays valid after this bank
  /// handle is destroyed.
  Tensor BorrowSection(const BankSection& section) const;

  /// CRC-verifies every frame payload against the mapping — the fsck the
  /// CLI runs, and the full-verification mode of open.
  Status VerifyAll() const;

  /// Streaming hints for out-of-core iteration (no-ops when there is no
  /// mapping).
  void AdviseSequentialAll() const;
  void AdviseWillNeed(const BankSection& section) const;

  uint64_t config_hash() const { return config_hash_; }
  const std::string& path() const { return path_; }
  /// Bytes of validated content (header + complete frames).
  uint64_t size() const;

 private:
  struct Frame {
    uint32_t kind = 0;
    uint32_t crc = 0;
    uint64_t payload_offset = 0;
    uint64_t payload_bytes = 0;
  };

  SampleBank() = default;

  Mode mode_ = Mode::kReadOnly;
  std::string path_;
  uint64_t config_hash_ = 0;
  std::shared_ptr<MmapFile> mapping_;       ///< Null for a fresh kAppend bank.
  std::shared_ptr<AppendFile> writer_;      ///< Null in kReadOnly mode.
  uint64_t valid_end_ = 0;                  ///< Mapping bytes that verified.
  std::vector<BankSection> sections_;
  std::vector<BankRecord> records_;
  std::vector<Frame> frames_;
};

}  // namespace autocts

#endif  // REPRO_COMPARATOR_BANK_FILE_H_
