// NEON kernel backend stub, compiled only on aarch64 builds (see
// src/tensor/CMakeLists.txt). NEON is baseline on aarch64, so no extra ISA
// flags or cpuid gate are needed; the generic kernel bodies autovectorize
// to NEON under the default target. A hand-tiled q-register micro-kernel
// can replace GenericGemmMicro here without touching the dispatch layer —
// any replacement must keep the per-element ascending-k accumulation order
// (see backend.h) to stay bit-identical with the other backends.

#include "tensor/backend.h"

namespace autocts {
namespace kernels {
namespace {

#include "tensor/backend_kernels.inc"

bool NeonSupported() {
#if defined(__aarch64__)
  return true;
#else
  return false;
#endif
}

const Backend kNeonBackend = {
    "neon",            &NeonSupported,  &GenericGemmMicro,
    &GenericGemmSmall, &GenericQgemmBf16,
};

}  // namespace

const Backend& NeonBackend() { return kNeonBackend; }

}  // namespace kernels
}  // namespace autocts
