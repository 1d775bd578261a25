// Scalar kernel backend: the portable fallback, compiled with the base
// project flags only (no ISA options), present in every build and supported
// on every CPU. Also the parity oracle backend_test memcmps the SIMD
// backends against.

#include "tensor/backend.h"

namespace autocts {
namespace kernels {
namespace {

#include "tensor/backend_kernels.inc"

bool ScalarSupported() { return true; }

const Backend kScalarBackend = {
    "scalar",          &ScalarSupported,  &GenericGemmMicro,
    &GenericGemmSmall, &GenericQgemmBf16,
};

}  // namespace

const Backend& ScalarBackend() { return kScalarBackend; }

}  // namespace kernels
}  // namespace autocts
