#ifndef REPRO_TENSOR_BACKEND_H_
#define REPRO_TENSOR_BACKEND_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace autocts {
namespace kernels {

/// ---------------------------------------------------------------------------
/// Runtime-dispatched SIMD kernel backends.
///
/// The float kernels used to hard-require AVX2+FMA at build time (the whole
/// tree compiled with -mavx2). Instead, the ISA-sensitive inner kernels now
/// live behind this dispatch seam: each backend is one translation unit
/// compiled with its own ISA flags (see src/tensor/CMakeLists.txt), the
/// rest of the tree builds generic, and the best backend the running CPU
/// supports is picked once at startup (overridable with AUTOCTS_BACKEND or
/// SetActiveBackend).
///
/// Determinism contract: every backend implements the same per-element
/// accumulation order (ascending-k, no horizontal reductions, and the build
/// compiles with -ffp-contract=off so no backend can fuse a*b+c), so
/// switching backends NEVER changes an output bit. backend_test memcmps
/// every dispatched kernel across backends; callers may switch backends
/// mid-run without invalidating captured step plans.
///
/// The bf16 kernel backs the quantized comparator inference path (see
/// comparator/quant.h): it accumulates fp32 in ascending-k order, so it too
/// is bit-identical across backends.
/// ---------------------------------------------------------------------------

/// Register-tile geometry of the blocked GEMM micro-kernel. Shared between
/// tensor/gemm.cc (packing/blocking) and every backend's micro-kernel
/// implementation; see DESIGN.md "GEMM blocking & memory reuse".
inline constexpr int kGemmMr = 6;
inline constexpr int kGemmNr = 16;

/// One SIMD backend: a name plus the dispatched kernel entry points. All
/// function pointers are non-null.
struct Backend {
  /// "scalar", "avx2", "avx512", or "neon".
  const char* name;

  /// True when the running CPU can execute this backend's code. The scalar
  /// backend always returns true; SIMD backends query cpuid.
  bool (*supported)();

  /// Full kGemmMr x kGemmNr register tile of the blocked GEMM: loads C,
  /// accumulates all kb packed products per element in ascending-kk order,
  /// stores once. `ap` is a packed A strip (kb runs of kGemmMr), `bp` a
  /// packed B panel (kb rows of kGemmNr).
  void (*gemm_micro)(int kb, const float* ap, const float* bp, float* c,
                     int64_t ldc);

  /// Unblocked small-problem GEMM: C[m,n] += op_a(A)[m,k] * op_b(B)[k,n]
  /// (same operand semantics as GemmAcc in tensor/gemm.h).
  void (*gemm_small)(const float* a, int64_t lda, bool trans_a,
                     const float* b, int64_t ldb, bool trans_b, float* c,
                     int64_t ldc, int m, int k, int n);

  /// bf16-weight GEMM: C_f32[m,n] = sum_k A_f32[m,k] * f32(B_bf16[k,n]),
  /// fp32 accumulation in ascending-k order. The bf16 -> f32 widening is a
  /// bit shift, not arithmetic, so results are exact in the widened values.
  void (*qgemm_bf16)(const float* a, const uint16_t* b, float* c, int m,
                     int k, int n);
};

/// The backend serving dispatched kernels right now. First call resolves
/// the startup choice: AUTOCTS_BACKEND if set (falling back to the best
/// available, with a stderr warning, when that backend is missing or
/// unsupported on this CPU), otherwise the widest ISA the CPU supports.
const Backend& ActiveBackend();

/// Forces the named backend for the process. Returns false (and leaves the
/// active backend unchanged) when no compiled-in backend of that name is
/// supported on this CPU. Thread-safe; in-flight kernels finish on the
/// backend they dispatched with (bit-identical results either way).
bool SetActiveBackend(const std::string& name);

/// Every backend compiled into this binary and supported by this CPU, best
/// (widest ISA) first. The scalar backend is always present.
std::vector<const Backend*> AvailableBackends();

/// Dispatch counters (relaxed atomics), folded into RuntimeStats::backend.
/// Call sites in gemm.cc / quant.cc bump these once per dispatched call.
namespace counters {
void NoteGemmMicro();
void NoteGemmSmall();
void NoteQgemmBf16();
}  // namespace counters

/// bfloat16 <-> fp32 conversion helpers shared by the bf16 kernels and the
/// comparator weight quantizer. Round-to-nearest-even, the standard bf16
/// narrowing; NaN payloads may collapse but stay NaN.
inline uint16_t Bf16FromF32(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const uint32_t rounding = 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<uint16_t>((bits + rounding) >> 16);
}

inline float F32FromBf16(uint16_t b) {
  const uint32_t bits = static_cast<uint32_t>(b) << 16;
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

}  // namespace kernels
}  // namespace autocts

#endif  // REPRO_TENSOR_BACKEND_H_
