// AVX-512 kernel backend. This translation unit alone is compiled with
// -mavx512f (see src/tensor/CMakeLists.txt); supported() gates entry via
// cpuid so the binary stays runnable on narrower CPUs.
//
// With 64-byte vectors the kNr=16 tile is exactly one zmm register, so the
// micro-kernel needs 6 accumulators + 1 B vector + 1 broadcast = 8 of 32
// zmm — one B load per k step instead of AVX2's two. Per-element
// accumulation order is identical to the scalar and AVX2 kernels (lane j is
// the scalar chain for column j), so results are bit-identical.

#include "tensor/backend.h"

// 64-byte vector types change ABI without AVX-512; internal use only.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace autocts {
namespace kernels {
namespace {

#include "tensor/backend_kernels.inc"

/// 16-wide float vector: one zmm register under AVX-512F.
typedef float v16 __attribute__((vector_size(64)));
/// Same type with alignment 4 for unaligned loads/stores of C rows.
typedef float v16u __attribute__((vector_size(64), aligned(4)));

inline v16 Load16(const float* p) { return *reinterpret_cast<const v16u*>(p); }
inline void Store16(float* p, v16 v) { *reinterpret_cast<v16u*>(p) = v; }
inline v16 Splat16(float x) {
  return v16{x, x, x, x, x, x, x, x, x, x, x, x, x, x, x, x};
}

void Avx512GemmMicro(int kb, const float* __restrict ap,
                     const float* __restrict bp, float* c, int64_t ldc) {
  static_assert(kGemmMr == 6 && kGemmNr == 16,
                "register tile hard-codes the 6x16 geometry");
  v16 c0 = Load16(c + 0 * ldc);
  v16 c1 = Load16(c + 1 * ldc);
  v16 c2 = Load16(c + 2 * ldc);
  v16 c3 = Load16(c + 3 * ldc);
  v16 c4 = Load16(c + 4 * ldc);
  v16 c5 = Load16(c + 5 * ldc);
  for (int kk = 0; kk < kb; ++kk) {
    const float* arow = ap + kk * kGemmMr;
    const v16 b = Load16(bp + kk * kGemmNr);
    c0 += Splat16(arow[0]) * b;
    c1 += Splat16(arow[1]) * b;
    c2 += Splat16(arow[2]) * b;
    c3 += Splat16(arow[3]) * b;
    c4 += Splat16(arow[4]) * b;
    c5 += Splat16(arow[5]) * b;
  }
  Store16(c + 0 * ldc, c0);
  Store16(c + 1 * ldc, c1);
  Store16(c + 2 * ldc, c2);
  Store16(c + 3 * ldc, c3);
  Store16(c + 4 * ldc, c4);
  Store16(c + 5 * ldc, c5);
}

bool Avx512Supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

const Backend kAvx512Backend = {
    "avx512",          &Avx512Supported, &Avx512GemmMicro,
    &GenericGemmSmall, &GenericQgemmBf16,
};

}  // namespace

const Backend& Avx512Backend() { return kAvx512Backend; }

}  // namespace kernels
}  // namespace autocts
