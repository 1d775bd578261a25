#include "comparator/bank_file.h"

#include <atomic>
#include <cstring>
#include <utility>

#include "common/binio.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/runtime_config.h"

namespace autocts {
namespace {

std::atomic<bool> g_bank_verify{GlobalRuntimeConfig().bank_verify_on_open};

constexpr uint64_t kBankMagic = 0x41435453424e4b32ull;  // "ACTSBNK2"
constexpr uint32_t kBankVersion = 2;

constexpr uint64_t kHeaderBytes = 64;
constexpr uint64_t kFrameHeaderBytes = 32;
constexpr uint64_t kAlign = 64;
constexpr uint32_t kKindSection = 1;
constexpr uint32_t kKindRecord = 2;
/// Sanity bound on one frame's payload (a preliminary embedding is a few
/// hundred KB at paper scale; 1 TiB catches garbage lengths immediately).
constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 40;

uint64_t Align64(uint64_t n) { return (n + (kAlign - 1)) & ~(kAlign - 1); }

/// The fixed 64-byte file header. header_crc covers bytes [16, 64) — the
/// config hash and reserved tail — so a bit flip anywhere in the header is
/// caught by either the magic/version match or the CRC.
std::string EncodeHeader(uint64_t config_hash) {
  std::string out;
  AppendPod(&out, kBankMagic);
  AppendPod(&out, kBankVersion);
  const size_t crc_pos = out.size();
  AppendPod(&out, uint32_t{0});
  AppendPod(&out, config_hash);
  out.resize(kHeaderBytes, '\0');
  const uint32_t crc = Crc32(out.data() + 16, kHeaderBytes - 16);
  std::memcpy(&out[crc_pos], &crc, sizeof(crc));
  return out;
}

/// A complete frame: 32-byte header, payload, zero pad to a 64-byte
/// multiple. Frames always start 64-aligned (the header is 64 bytes and
/// every frame's length is a 64 multiple), so in-frame alignment equals
/// file alignment.
std::string EncodeFrame(uint32_t kind, uint64_t key, uint32_t task,
                        uint32_t slot, const std::string& payload) {
  std::string out;
  AppendPod(&out, kind);
  AppendPod(&out, Crc32(payload.data(), payload.size()));
  AppendPod(&out, static_cast<uint64_t>(payload.size()));
  AppendPod(&out, key);
  AppendPod(&out, task);
  AppendPod(&out, slot);
  CHECK_EQ(out.size(), kFrameHeaderBytes);
  out += payload;
  out.resize(Align64(out.size()), '\0');
  return out;
}

/// Section payload: metadata, zero pad placing the floats at a 64-aligned
/// in-frame (= in-file) offset, then the raw fp32 tensor.
std::string EncodeSectionPayload(const std::string& name,
                                 const std::vector<int>& shape,
                                 const float* data) {
  std::string p;
  AppendString(&p, name);
  AppendPod(&p, static_cast<uint32_t>(shape.size()));
  uint64_t count = 1;
  for (int d : shape) {
    AppendPod(&p, static_cast<int32_t>(d));
    count *= static_cast<uint64_t>(d);
  }
  p.resize(Align64(kFrameHeaderBytes + p.size()) - kFrameHeaderBytes, '\0');
  AppendRaw(&p, data, count * sizeof(float));
  return p;
}

std::string EncodeRecordPayload(const BankRecord& r) {
  std::string p;
  AppendPod(&p, r.signature);
  AppendPod(&p, r.r_prime);
  AppendPod(&p, static_cast<uint8_t>(r.shared ? 1 : 0));
  AppendPod(&p, static_cast<uint8_t>(r.quarantined ? 1 : 0));
  AppendPod(&p, static_cast<int32_t>(r.retries));
  AppendString(&p, r.note);
  AppendString(&p, r.arch);
  return p;
}

template <typename T>
void ReadPodAt(const char* base, uint64_t* off, T* out) {
  std::memcpy(out, base + *off, sizeof(T));
  *off += sizeof(T);
}

Status CorruptError(const std::string& path, uint64_t offset,
                    const std::string& what) {
  return Status::Error("sample bank " + path + ": " + what + " at offset " +
                       std::to_string(offset));
}

/// Frame-scan output, converted to SampleBank::Frame by the caller (the
/// nested struct is private to SampleBank).
struct ScannedFrame {
  uint32_t kind = 0;
  uint32_t crc = 0;
  uint64_t payload_offset = 0;
  uint64_t payload_bytes = 0;
};

/// Walks the frame stream of a mapped bank. `allow_torn_tail` (append
/// mode) stops cleanly at an incomplete final frame — the state a killed
/// append leaves — reporting how far the file verified; read-only mode
/// treats the same state as an error. A structurally complete frame whose
/// record payload fails its CRC is corruption in both modes.
Status ScanFrames(const std::string& path, const char* base, uint64_t size,
                  bool verify_sections, bool allow_torn_tail,
                  uint64_t* valid_end, std::vector<ScannedFrame>* frames,
                  std::vector<BankSection>* sections,
                  std::vector<BankRecord>* records) {
  uint64_t off = kHeaderBytes;
  *valid_end = off;
  while (off < size) {
    if (size - off < kFrameHeaderBytes) {
      if (allow_torn_tail) break;
      return CorruptError(path, off, "torn frame header");
    }
    uint64_t pos = off;
    uint32_t kind = 0, crc = 0, task = 0, slot = 0;
    uint64_t payload_bytes = 0, key = 0;
    ReadPodAt(base, &pos, &kind);
    ReadPodAt(base, &pos, &crc);
    ReadPodAt(base, &pos, &payload_bytes);
    ReadPodAt(base, &pos, &key);
    ReadPodAt(base, &pos, &task);
    ReadPodAt(base, &pos, &slot);
    if (kind != kKindSection && kind != kKindRecord) {
      return CorruptError(path, off,
                          "unknown frame kind " + std::to_string(kind));
    }
    if (payload_bytes > kMaxPayloadBytes) {
      return CorruptError(path, off, "implausible frame length");
    }
    const uint64_t frame_end = off + Align64(kFrameHeaderBytes + payload_bytes);
    if (frame_end > size) {
      if (allow_torn_tail) break;
      return CorruptError(path, off, "truncated frame");
    }
    const char* payload = base + off + kFrameHeaderBytes;
    if (kind == kKindRecord) {
      // Record payloads are small; their CRC is always verified so a
      // resumed run can never mislabel a sample from a corrupt fate.
      if (Crc32(payload, payload_bytes) != crc) {
        return CorruptError(path, off, "record CRC mismatch");
      }
      const std::string bytes(payload, payload_bytes);
      FrameReader reader(bytes, 0);
      BankRecord rec;
      rec.task = static_cast<int>(task);
      rec.slot = static_cast<int>(slot);
      uint8_t shared = 0, quarantined = 0;
      int32_t retries = 0;
      if (!reader.Read(&rec.signature) || !reader.Read(&rec.r_prime) ||
          !reader.Read(&shared) || !reader.Read(&quarantined) ||
          !reader.Read(&retries) || !reader.ReadString(&rec.note) ||
          !reader.ReadString(&rec.arch) || reader.remaining() != 0) {
        return CorruptError(path, off, "malformed record payload");
      }
      rec.shared = shared != 0;
      rec.quarantined = quarantined != 0;
      rec.retries = retries;
      records->push_back(std::move(rec));
    } else {
      if (verify_sections && Crc32(payload, payload_bytes) != crc) {
        return CorruptError(path, off, "section CRC mismatch");
      }
      // Metadata is a short prefix of the payload; copy just enough of it
      // to parse (the tensor body stays untouched in the mapping).
      const std::string meta(payload,
                             std::min<uint64_t>(payload_bytes, uint64_t{4096}));
      FrameReader reader(meta, 0);
      BankSection sec;
      sec.task = static_cast<int>(task);
      sec.key = key;
      uint32_t ndim = 0;
      if (!reader.ReadString(&sec.name) || !reader.Read(&ndim) || ndim > 8) {
        return CorruptError(path, off, "malformed section metadata");
      }
      uint64_t count = 1;
      for (uint32_t i = 0; i < ndim; ++i) {
        int32_t d = 0;
        if (!reader.Read(&d) || d < 0) {
          return CorruptError(path, off, "malformed section shape");
        }
        sec.shape.push_back(d);
        count *= static_cast<uint64_t>(d);
      }
      const uint64_t meta_bytes = meta.size() - reader.remaining();
      const uint64_t floats_rel =
          Align64(kFrameHeaderBytes + meta_bytes) - kFrameHeaderBytes;
      if (payload_bytes != floats_rel + count * sizeof(float)) {
        return CorruptError(path, off, "section length mismatch");
      }
      sec.float_offset = off + kFrameHeaderBytes + floats_rel;
      sec.float_count = count;
      sections->push_back(std::move(sec));
    }
    ScannedFrame f;
    f.kind = kind;
    f.crc = crc;
    f.payload_offset = off + kFrameHeaderBytes;
    f.payload_bytes = payload_bytes;
    frames->push_back(f);
    off = frame_end;
    *valid_end = off;
  }
  return Status::Ok();
}

}  // namespace

bool SampleBankVerifyOnOpen() {
  return g_bank_verify.load(std::memory_order_relaxed);
}
void SetSampleBankVerifyOnOpen(bool enabled) {
  g_bank_verify.store(enabled, std::memory_order_relaxed);
}

StatusOr<std::unique_ptr<SampleBank>> SampleBank::Open(
    const std::string& path, std::optional<uint64_t> expected_config_hash,
    Mode mode) {
  auto bank = std::unique_ptr<SampleBank>(new SampleBank());
  bank->mode_ = mode;
  bank->path_ = path;

  StatusOr<std::shared_ptr<MmapFile>> mapped = MmapFile::OpenReadOnly(path);
  const bool exists = mapped.ok();
  const uint64_t file_size = exists ? mapped.value()->size() : 0;

  if (mode == Mode::kReadOnly) {
    if (!exists) return mapped.status();
    if (file_size < kHeaderBytes) {
      return Status::Error("sample bank " + path + " is truncated (" +
                           std::to_string(file_size) + " bytes)");
    }
  }

  if (!exists || file_size < kHeaderBytes) {
    // Fresh bank, or a kill mid-header-creation: append mode starts over
    // with a new header so even an immediately killed run leaves a
    // self-describing file.
    CHECK(mode == Mode::kAppend);
    CHECK(expected_config_hash.has_value())
        << "creating a sample bank requires a config hash";
    StatusOr<std::shared_ptr<AppendFile>> writer =
        AppendFile::Open(path, /*exclusive=*/true);
    if (!writer.ok()) return writer.status();
    if (writer.value()->size() > 0) {
      Status truncated = writer.value()->Truncate(0);
      if (!truncated.ok()) return truncated;
    }
    const std::string header = EncodeHeader(*expected_config_hash);
    Status appended = writer.value()->Append(header.data(), header.size());
    if (!appended.ok()) return appended;
    bank->writer_ = writer.value();
    bank->config_hash_ = *expected_config_hash;
    bank->valid_end_ = kHeaderBytes;
    return StatusOr<std::unique_ptr<SampleBank>>(std::move(bank));
  }

  const char* base = mapped.value()->data();
  uint64_t magic = 0;
  uint32_t version = 0, header_crc = 0;
  uint64_t config_hash = 0;
  uint64_t pos = 0;
  ReadPodAt(base, &pos, &magic);
  ReadPodAt(base, &pos, &version);
  ReadPodAt(base, &pos, &header_crc);
  ReadPodAt(base, &pos, &config_hash);
  if (magic != kBankMagic) {
    return Status::Error(path + " is not a sample bank (bad magic)");
  }
  if (version != kBankVersion) {
    return Status::Error("sample bank " + path + " has unsupported version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kBankVersion) + ")");
  }
  if (Crc32(base + 16, kHeaderBytes - 16) != header_crc) {
    return Status::Error("sample bank " + path + " header CRC mismatch");
  }
  if (expected_config_hash.has_value() &&
      config_hash != *expected_config_hash) {
    return Status::Error(
        "sample bank " + path +
        " was written under a different configuration; refusing to open");
  }

  uint64_t valid_end = kHeaderBytes;
  std::vector<ScannedFrame> scanned;
  Status status = ScanFrames(path, base, file_size, SampleBankVerifyOnOpen(),
                             /*allow_torn_tail=*/mode == Mode::kAppend,
                             &valid_end, &scanned, &bank->sections_,
                             &bank->records_);
  if (!status.ok()) return status;
  if (mode == Mode::kReadOnly && valid_end != file_size) {
    return Status::Error("sample bank " + path + " has a torn tail (" +
                         std::to_string(file_size - valid_end) +
                         " trailing bytes); reopen for append to recover");
  }
  bank->frames_.reserve(scanned.size());
  for (const ScannedFrame& f : scanned) {
    Frame frame;
    frame.kind = f.kind;
    frame.crc = f.crc;
    frame.payload_offset = f.payload_offset;
    frame.payload_bytes = f.payload_bytes;
    bank->frames_.push_back(frame);
  }

  bank->mapping_ = mapped.value();
  bank->config_hash_ = config_hash;
  bank->valid_end_ = valid_end;
  if (mode == Mode::kAppend) {
    // The exclusive flock is what lets sharded collection hand every worker
    // its own bank file and still catch two processes racing one path.
    StatusOr<std::shared_ptr<AppendFile>> writer =
        AppendFile::Open(path, /*exclusive=*/true);
    if (!writer.ok()) return writer.status();
    // Torn-tail recovery: drop the incomplete append. Pages below
    // valid_end are unaffected by the truncation, so borrowed sections
    // stay valid.
    Status truncated = writer.value()->Truncate(valid_end);
    if (!truncated.ok()) return truncated;
    bank->writer_ = writer.value();
  }
  return StatusOr<std::unique_ptr<SampleBank>>(std::move(bank));
}

Status SampleBank::AppendSection(int task, uint64_t key,
                                 const std::string& name,
                                 const std::vector<int>& shape,
                                 const float* data) {
  CHECK(mode_ == Mode::kAppend && writer_ != nullptr);
  const std::string frame =
      EncodeFrame(kKindSection, key, static_cast<uint32_t>(task), 0,
                  EncodeSectionPayload(name, shape, data));
  return writer_->Append(frame.data(), frame.size());
}

Status SampleBank::AppendRecord(const BankRecord& record) {
  CHECK(mode_ == Mode::kAppend && writer_ != nullptr);
  const std::string frame = EncodeFrame(
      kKindRecord, 0, static_cast<uint32_t>(record.task),
      static_cast<uint32_t>(record.slot), EncodeRecordPayload(record));
  return writer_->Append(frame.data(), frame.size());
}

const BankSection* SampleBank::FindSection(int task, uint64_t key) const {
  // Last match wins, mirroring the record-supersede rule.
  const BankSection* found = nullptr;
  for (const BankSection& s : sections_) {
    if (s.task == task && s.key == key) found = &s;
  }
  return found;
}

Tensor SampleBank::BorrowSection(const BankSection& section) const {
  CHECK(mapping_ != nullptr) << "section borrowing needs a mapped bank";
  CHECK_LE(section.float_offset + section.float_count * sizeof(float),
           valid_end_);
  const float* data =
      reinterpret_cast<const float*>(mapping_->data() + section.float_offset);
  return Tensor::FromExternal(section.shape, data, section.float_count,
                              mapping_);
}

Status SampleBank::VerifyAll() const {
  if (mapping_ == nullptr) return Status::Ok();
  const char* base = mapping_->data();
  for (const Frame& f : frames_) {
    if (Crc32(base + f.payload_offset, f.payload_bytes) != f.crc) {
      return CorruptError(path_, f.payload_offset - kFrameHeaderBytes,
                          f.kind == kKindSection ? "section CRC mismatch"
                                                 : "record CRC mismatch");
    }
  }
  return Status::Ok();
}

void SampleBank::AdviseSequentialAll() const {
  if (mapping_ == nullptr) return;
  mapping_->AdviseSequential(0, valid_end_);
}

void SampleBank::AdviseWillNeed(const BankSection& section) const {
  if (mapping_ == nullptr) return;
  mapping_->AdviseWillNeed(section.float_offset,
                           section.float_count * sizeof(float));
}

uint64_t SampleBank::size() const {
  return writer_ != nullptr ? writer_->size() : valid_end_;
}

}  // namespace autocts
