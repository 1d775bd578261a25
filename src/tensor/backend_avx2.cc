// AVX2 kernel backend. This translation unit alone is compiled with
// -mavx2 -mfma (see src/tensor/CMakeLists.txt); it must never be entered
// on a CPU without AVX2, which supported() guarantees via cpuid.
//
// The micro-kernel is the hand-tiled v8 kernel that previously lived in
// tensor/gemm.cc when the whole tree required AVX2. The generic bodies from
// backend_kernels.inc are also compiled here under AVX2 flags, so the
// small-GEMM and quantized paths autovectorize to ymm code while keeping
// the backend-invariant per-element accumulation order.

#include "tensor/backend.h"

// The 32-byte vector type below changes ABI when AVX is off; everything
// using it is internal and inlined, so the warning is noise.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace autocts {
namespace kernels {
namespace {

#include "tensor/backend_kernels.inc"

/// 8-wide float vector via the GCC/Clang vector extension: one ymm register
/// under AVX2. All uses are elementwise (mul/add per lane, no horizontal
/// reductions), so lane j of an accumulator is exactly the scalar sequence
/// for column j.
typedef float v8 __attribute__((vector_size(32)));
/// Same type with alignment 4 for unaligned loads/stores of C rows.
typedef float v8u __attribute__((vector_size(32), aligned(4)));

inline v8 Load8(const float* p) { return *reinterpret_cast<const v8u*>(p); }
inline void Store8(float* p, v8 v) { *reinterpret_cast<v8u*>(p) = v; }
inline v8 Splat(float x) { return v8{x, x, x, x, x, x, x, x}; }

/// Micro-kernel register tile: 6 rows x 16 columns of C = 12 named v8
/// accumulators, leaving registers for the two B vectors and the A
/// broadcast (15 of 16 ymm under AVX2). Named scalars instead of a 2-D
/// array because GCC only register-allocates the tile reliably this way.
/// Loads C into registers, accumulates all kb products per element in
/// ascending-kk order, stores once.
void Avx2GemmMicro(int kb, const float* __restrict ap,
                   const float* __restrict bp, float* c, int64_t ldc) {
  static_assert(kGemmMr == 6 && kGemmNr == 16,
                "register tile hard-codes the 6x16 geometry");
  v8 c00 = Load8(c + 0 * ldc), c01 = Load8(c + 0 * ldc + 8);
  v8 c10 = Load8(c + 1 * ldc), c11 = Load8(c + 1 * ldc + 8);
  v8 c20 = Load8(c + 2 * ldc), c21 = Load8(c + 2 * ldc + 8);
  v8 c30 = Load8(c + 3 * ldc), c31 = Load8(c + 3 * ldc + 8);
  v8 c40 = Load8(c + 4 * ldc), c41 = Load8(c + 4 * ldc + 8);
  v8 c50 = Load8(c + 5 * ldc), c51 = Load8(c + 5 * ldc + 8);
  for (int kk = 0; kk < kb; ++kk) {
    const float* arow = ap + kk * kGemmMr;
    const v8 b0 = Load8(bp + kk * kGemmNr);
    const v8 b1 = Load8(bp + kk * kGemmNr + 8);
    v8 a;
    a = Splat(arow[0]), c00 += a * b0, c01 += a * b1;
    a = Splat(arow[1]), c10 += a * b0, c11 += a * b1;
    a = Splat(arow[2]), c20 += a * b0, c21 += a * b1;
    a = Splat(arow[3]), c30 += a * b0, c31 += a * b1;
    a = Splat(arow[4]), c40 += a * b0, c41 += a * b1;
    a = Splat(arow[5]), c50 += a * b0, c51 += a * b1;
  }
  Store8(c + 0 * ldc, c00), Store8(c + 0 * ldc + 8, c01);
  Store8(c + 1 * ldc, c10), Store8(c + 1 * ldc + 8, c11);
  Store8(c + 2 * ldc, c20), Store8(c + 2 * ldc + 8, c21);
  Store8(c + 3 * ldc, c30), Store8(c + 3 * ldc + 8, c31);
  Store8(c + 4 * ldc, c40), Store8(c + 4 * ldc + 8, c41);
  Store8(c + 5 * ldc, c50), Store8(c + 5 * ldc + 8, c51);
}

bool Avx2Supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const Backend kAvx2Backend = {
    "avx2",            &Avx2Supported,  &Avx2GemmMicro,
    &GenericGemmSmall, &GenericQgemmBf16,
};

}  // namespace

const Backend& Avx2Backend() { return kAvx2Backend; }

}  // namespace kernels
}  // namespace autocts
