#ifndef REPRO_NN_SERIALIZE_H_
#define REPRO_NN_SERIALIZE_H_

#include <string>

#include "common/status.h"
#include "nn/module.h"

namespace autocts {

/// Writes all parameters of a module (recursively, in registration order)
/// to a binary file: a magic header, a CRC32 of the payload, the tensor
/// count, then each tensor's element count and raw float data. The write is
/// atomic (tmp file + rename), so a crash mid-save leaves the previous
/// checkpoint intact. Architecture is NOT stored — loading requires an
/// identically constructed module.
Status SaveParameters(const Module& module, const std::string& path);

/// Restores parameters written by SaveParameters. Fails — without touching
/// the module at all — on magic/count/shape mismatch, CRC mismatch,
/// truncation, or trailing garbage.
Status LoadParameters(Module* module, const std::string& path);

}  // namespace autocts

#endif  // REPRO_NN_SERIALIZE_H_
