#include "tensor/backend.h"

#include <atomic>
#include <cstdio>

#include "common/runtime_config.h"
#include "common/runtime_stats.h"

namespace autocts {
namespace kernels {

// Backend factories, one per compiled-in translation unit. Explicit externs
// (rather than static self-registration) because these live in a static
// library: an unreferenced registrar object's TU is never pulled in by the
// linker, while these references force every compiled backend into any
// binary that dispatches kernels.
const Backend& ScalarBackend();
#if AUTOCTS_HAVE_AVX2_BACKEND
const Backend& Avx2Backend();
#endif
#if AUTOCTS_HAVE_AVX512_BACKEND
const Backend& Avx512Backend();
#endif
#if AUTOCTS_HAVE_NEON_BACKEND
const Backend& NeonBackend();
#endif

namespace {

/// All compiled-in backends, widest ISA first; the scalar fallback is always
/// last and always present.
const std::vector<const Backend*>& CompiledBackends() {
  static const std::vector<const Backend*> all = [] {
    std::vector<const Backend*> v;
#if AUTOCTS_HAVE_AVX512_BACKEND
    v.push_back(&Avx512Backend());
#endif
#if AUTOCTS_HAVE_AVX2_BACKEND
    v.push_back(&Avx2Backend());
#endif
#if AUTOCTS_HAVE_NEON_BACKEND
    v.push_back(&NeonBackend());
#endif
    v.push_back(&ScalarBackend());
    return v;
  }();
  return all;
}

std::atomic<const Backend*> g_active{nullptr};

/// Startup choice: the configured backend when it names one that is
/// compiled in and CPU-supported, otherwise the widest supported backend
/// (with a stderr note when a configured choice had to be ignored).
const Backend* ResolveStartupBackend() {
  const std::vector<const Backend*> avail = AvailableBackends();
  const std::string& want = GlobalRuntimeConfig().backend;
  if (!want.empty()) {
    for (const Backend* b : avail) {
      if (want == b->name) return b;
    }
    std::fprintf(stderr,
                 "[autocts] AUTOCTS_BACKEND=%s is not available on this "
                 "host; falling back to '%s'\n",
                 want.c_str(), avail.front()->name);
  }
  return avail.front();
}

std::atomic<uint64_t> g_gemm_micro_calls{0};
std::atomic<uint64_t> g_gemm_small_calls{0};
std::atomic<uint64_t> g_qgemm_bf16_calls{0};

BackendStats CollectBackendStats() {
  BackendStats s;
  s.active = ActiveBackend().name;
  s.gemm_micro_calls = g_gemm_micro_calls.load(std::memory_order_relaxed);
  s.gemm_small_calls = g_gemm_small_calls.load(std::memory_order_relaxed);
  s.qgemm_bf16_calls = g_qgemm_bf16_calls.load(std::memory_order_relaxed);
  return s;
}

// Installed at static-init time: this TU is linked into any binary that
// dispatches kernels (they all reference ActiveBackend), so unlike a
// backend registrar this initializer cannot be dropped without the provider
// being moot anyway.
struct StatsProviderRegistrar {
  StatsProviderRegistrar() { RegisterBackendStatsProvider(&CollectBackendStats); }
} g_stats_registrar;

}  // namespace

const Backend& ActiveBackend() {
  const Backend* active = g_active.load(std::memory_order_acquire);
  if (active == nullptr) {
    static const Backend* const startup = ResolveStartupBackend();
    const Backend* expected = nullptr;
    g_active.compare_exchange_strong(expected, startup,
                                     std::memory_order_acq_rel);
    active = g_active.load(std::memory_order_acquire);
  }
  return *active;
}

bool SetActiveBackend(const std::string& name) {
  for (const Backend* b : AvailableBackends()) {
    if (name == b->name) {
      g_active.store(b, std::memory_order_release);
      return true;
    }
  }
  return false;
}

std::vector<const Backend*> AvailableBackends() {
  std::vector<const Backend*> avail;
  for (const Backend* b : CompiledBackends()) {
    if (b->supported()) avail.push_back(b);
  }
  return avail;
}

namespace counters {
void NoteGemmMicro() {
  g_gemm_micro_calls.fetch_add(1, std::memory_order_relaxed);
}
void NoteGemmSmall() {
  g_gemm_small_calls.fetch_add(1, std::memory_order_relaxed);
}
void NoteQgemmBf16() {
  g_qgemm_bf16_calls.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace counters

}  // namespace kernels
}  // namespace autocts
