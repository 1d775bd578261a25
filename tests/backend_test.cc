// Parity of the runtime-dispatched kernel backends (tensor/backend.h): every
// compiled-in, CPU-supported backend must produce memcmp-identical results
// to the scalar oracle for every dispatched kernel — the float GEMMs across
// a tail-exercising shape sweep, the bf16-weight GEMM, and the
// tensor-level MatMul under 1 and 4 threads with step-plan replay on and
// off. This is the determinism contract that makes AUTOCTS_BACKEND a pure
// performance knob.
#include "tensor/backend.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/plan.h"
#include "tensor/tensor.h"

namespace autocts {
namespace {

using kernels::ActiveBackend;
using kernels::AvailableBackends;
using kernels::Backend;
using kernels::SetActiveBackend;

std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng->Normal(0.0f, 1.0f);
  return v;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Restores the startup backend after each test so dispatch-mutating tests
/// cannot leak into each other.
class BackendTest : public ::testing::Test {
 protected:
  void SetUp() override { original_ = ActiveBackend().name; }
  void TearDown() override { ASSERT_TRUE(SetActiveBackend(original_)); }
  std::string original_;
};

TEST_F(BackendTest, ScalarAlwaysAvailable) {
  const auto avail = AvailableBackends();
  ASSERT_FALSE(avail.empty());
  bool has_scalar = false;
  for (const Backend* b : avail) {
    if (std::string(b->name) == "scalar") has_scalar = true;
    EXPECT_TRUE(b->supported());
  }
  EXPECT_TRUE(has_scalar);
}

TEST_F(BackendTest, ActiveBackendIsAvailable) {
  const Backend& active = ActiveBackend();
  bool found = false;
  for (const Backend* b : AvailableBackends()) {
    if (b == &active) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(BackendTest, UnknownOrUnsupportedNameRejected) {
  const std::string before = ActiveBackend().name;
  EXPECT_FALSE(SetActiveBackend("no-such-backend"));
  EXPECT_FALSE(SetActiveBackend(""));
  EXPECT_EQ(std::string(ActiveBackend().name), before);
  EXPECT_TRUE(SetActiveBackend("scalar"));
  EXPECT_EQ(std::string(ActiveBackend().name), "scalar");
}

// Shapes straddling the blocked threshold (m*k*n >= 2^15) and hitting both
// micro-kernel tails, so every backend exercises gemm_small, full tiles,
// and the shared tail path.
constexpr int kShapes[][3] = {{1, 1, 1},    {3, 5, 7},     {17, 33, 9},
                              {64, 64, 64}, {65, 67, 3},   {31, 257, 63},
                              {128, 32, 256}};

TEST_F(BackendTest, GemmAccBitIdenticalAcrossBackends) {
  Rng rng(7);
  for (const auto& s : kShapes) {
    const int m = s[0], k = s[1], n = s[2];
    for (bool trans_a : {false, true}) {
      const int64_t lda = trans_a ? m : k;
      const std::vector<float> a = RandomVec(int64_t{m} * k, &rng);
      const std::vector<float> b = RandomVec(int64_t{k} * n, &rng);
      const std::vector<float> c0 = RandomVec(int64_t{m} * n, &rng);

      // Scalar oracle, itself checked against the reference triple loop.
      ASSERT_TRUE(SetActiveBackend("scalar"));
      std::vector<float> want = c0;
      GemmAcc(a.data(), lda, trans_a, b.data(), n, false, want.data(), n, m,
              k, n);
      std::vector<float> ref = c0;
      GemmAccRef(a.data(), lda, trans_a, b.data(), n, false, ref.data(), n,
                 m, k, n);
      ASSERT_TRUE(BitEqual(want, ref))
          << "scalar backend diverges from reference at " << m << "x" << k
          << "x" << n;

      for (const Backend* backend : AvailableBackends()) {
        ASSERT_TRUE(SetActiveBackend(backend->name));
        std::vector<float> got = c0;
        GemmAcc(a.data(), lda, trans_a, b.data(), n, false, got.data(), n, m,
                k, n);
        EXPECT_TRUE(BitEqual(want, got))
            << backend->name << " diverges from scalar at " << m << "x" << k
            << "x" << n << " trans_a=" << trans_a;
      }
    }
  }
}

TEST_F(BackendTest, QgemmBf16BitIdenticalAcrossBackends) {
  Rng rng(13);
  const int dims[][3] = {{1, 1, 1}, {5, 9, 7}, {21, 48, 19}};
  for (const auto& s : dims) {
    const int m = s[0], k = s[1], n = s[2];
    const std::vector<float> a = RandomVec(int64_t{m} * k, &rng);
    const std::vector<float> wf = RandomVec(int64_t{k} * n, &rng);
    std::vector<uint16_t> b(wf.size());
    for (size_t i = 0; i < wf.size(); ++i) b[i] = kernels::Bf16FromF32(wf[i]);

    std::vector<float> want;
    for (const Backend* backend : AvailableBackends()) {
      std::vector<float> got(static_cast<size_t>(m) * n);
      backend->qgemm_bf16(a.data(), b.data(), got.data(), m, k, n);
      if (want.empty()) {
        want = got;
        continue;
      }
      EXPECT_TRUE(BitEqual(want, got)) << backend->name << " bf16 mismatch";
    }
  }
}

TEST_F(BackendTest, Bf16RoundTripAndRounding) {
  // Values exactly representable in bf16 round-trip unchanged.
  for (float v : {0.0f, 1.0f, -2.5f, 0.15625f, -3.140625f}) {
    EXPECT_EQ(v, kernels::F32FromBf16(kernels::Bf16FromF32(v)));
  }
  // Round-to-nearest-even at the 8-bit mantissa boundary.
  EXPECT_EQ(1.0f, kernels::F32FromBf16(kernels::Bf16FromF32(1.001953125f)));
  // NaN stays NaN.
  EXPECT_TRUE(std::isnan(
      kernels::F32FromBf16(kernels::Bf16FromF32(std::nanf("")))));
}

/// MatMul through the tensor layer under every backend, at 1 and 4 threads,
/// eagerly and via step-plan replay — all six paths must agree bitwise with
/// the scalar 1-thread eager baseline.
TEST_F(BackendTest, TensorMatMulInvariantAcrossBackendsThreadsAndPlans) {
  Rng rng(17);
  const int m = 63, k = 129, n = 47;  // Blocked path with both tails.
  Tensor a = Tensor::FromVector({m, k}, RandomVec(int64_t{m} * k, &rng));
  Tensor b = Tensor::FromVector({k, n}, RandomVec(int64_t{k} * n, &rng));

  std::vector<float> baseline;
  for (const Backend* backend : AvailableBackends()) {
    ASSERT_TRUE(SetActiveBackend(backend->name));
    for (int threads : {1, 4}) {
      ThreadPool pool(threads);
      ExecContext ctx;
      ctx.pool = &pool;
      ExecScope scope(ctx);

      NoGradScope no_grad;
      Tensor eager = MatMul(a, b);
      if (baseline.empty()) baseline = eager.data();
      EXPECT_TRUE(BitEqual(baseline, eager.data()))
          << backend->name << " eager, " << threads << " threads";

      StepPlan plan;
      plan.BeginCapture({a, b}, "backend_test_matmul");
      Tensor captured = MatMul(a, b);
      plan.AddOutput(captured);
      if (plan.EndCapture()) {
        plan.BeginStep({a, b});
        plan.RunForward();
        EXPECT_TRUE(BitEqual(baseline, plan.output(0).data()))
            << backend->name << " plan replay, " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace autocts
