#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/crc32.h"
#include "common/fileio.h"

namespace autocts {
namespace {

/// The parameter frame: magic, CRC32 of everything after the CRC field,
/// count, tensors. Written atomically (tmp + rename).
constexpr uint64_t kMagic = 0x4155544f43545332ull;  // "AUTOCTS2"

/// Parses the tensor list of a frame into staged buffers.
/// Validates count/shape against the module and rejects both truncation
/// (reader runs dry) and trailing garbage (bytes left after the last
/// tensor — the classic symptom of a torn or concatenated write).
Status ParseTensors(const std::string& bytes, size_t offset,
                    const std::vector<Tensor>& params,
                    const std::string& path,
                    std::vector<std::vector<float>>* staged) {
  FrameReader reader(bytes, offset);
  uint64_t count = 0;
  if (!reader.Read(&count)) {
    return Status::Error("truncated checkpoint " + path +
                         " (missing tensor count)");
  }
  if (count != params.size()) {
    return Status::Error("checkpoint holds " + std::to_string(count) +
                         " tensors, module has " +
                         std::to_string(params.size()));
  }
  staged->reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    uint64_t numel = 0;
    if (!reader.Read(&numel)) {
      return Status::Error("truncated checkpoint " + path + " (tensor " +
                           std::to_string(i) + " header)");
    }
    if (numel != static_cast<uint64_t>(params[i].numel())) {
      return Status::Error("tensor " + std::to_string(i) + " in " + path +
                           " holds " + std::to_string(numel) +
                           " elements, module expects " +
                           std::to_string(params[i].numel()));
    }
    std::vector<float> buf;
    if (!reader.ReadFloats(&buf, numel)) {
      return Status::Error("truncated checkpoint " + path + " (tensor " +
                           std::to_string(i) + " data)");
    }
    staged->push_back(std::move(buf));
  }
  if (reader.remaining() != 0) {
    return Status::Error(std::to_string(reader.remaining()) +
                         " trailing bytes after the last tensor in " + path);
  }
  return Status::Ok();
}

}  // namespace

Status SaveParameters(const Module& module, const std::string& path) {
  std::vector<Tensor> params = module.Parameters();
  std::string payload;
  AppendPod(&payload, static_cast<uint64_t>(params.size()));
  for (const Tensor& p : params) {
    AppendPod(&payload, static_cast<uint64_t>(p.numel()));
    AppendRaw(&payload, p.data().data(), p.data().size() * sizeof(float));
  }
  std::string frame;
  frame.reserve(sizeof(uint64_t) + sizeof(uint32_t) + payload.size());
  AppendPod(&frame, kMagic);
  AppendPod(&frame, Crc32(payload.data(), payload.size()));
  frame += payload;
  return AtomicWriteFile(path, frame);
}

Status LoadParameters(Module* module, const std::string& path) {
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  const std::string& bytes = contents.value();
  FrameReader header(bytes, 0);
  uint64_t magic = 0;
  if (!header.Read(&magic)) {
    return Status::Error("truncated checkpoint " + path + " (no magic)");
  }
  if (magic != kMagic) {
    return Status::Error("bad checkpoint magic in " + path);
  }
  uint32_t crc = 0;
  if (!header.Read(&crc)) {
    return Status::Error("truncated checkpoint " + path + " (no CRC)");
  }
  const size_t payload_offset = sizeof(uint64_t) + sizeof(uint32_t);
  uint32_t actual =
      Crc32(bytes.data() + payload_offset, bytes.size() - payload_offset);
  if (actual != crc) {
    return Status::Error("CRC mismatch in " + path +
                         " (corrupt or torn checkpoint)");
  }
  std::vector<Tensor> params = module->Parameters();
  std::vector<std::vector<float>> staged;
  Status s = ParseTensors(bytes, payload_offset, params, path, &staged);
  if (!s.ok()) return s;
  // All-or-nothing commit: nothing above touched the module.
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].data() = std::move(staged[i]);
  }
  return Status::Ok();
}

}  // namespace autocts
