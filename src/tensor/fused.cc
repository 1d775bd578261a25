#include "tensor/fused.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/plan.h"

// Same internal 32-byte vector type as gemm.cc; ABI warning is noise.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace autocts {
namespace {

/// 8-wide float vector (see tensor/gemm.cc). Used only for elementwise
/// passes — per-lane mul/div/add with no horizontal reduction — so lane j
/// runs exactly the scalar op sequence for element j and vectorization
/// cannot change a single bit. Reductions (means, variances, softmax
/// denominators, parameter-gradient sums) stay scalar in ascending index
/// order: that *is* the order the op-graph composition accumulates in, and
/// it is what makes the kernels thread-count invariant.
typedef float v8 __attribute__((vector_size(32)));
typedef float v8u __attribute__((vector_size(32), aligned(4)));

inline v8 Load8(const float* p) { return *reinterpret_cast<const v8u*>(p); }
inline void Store8(float* p, v8 v) { *reinterpret_cast<v8u*>(p) = v; }
inline v8 Splat(float x) { return v8{x, x, x, x, x, x, x, x}; }

constexpr int64_t kElemGrain = kParallelGrainWork;

std::atomic<bool> g_fused_enabled{true};

/// Rows x n geometry of a tensor normalized/activated over its last dim.
void LastAxisGeometry(const Tensor& x, int64_t* rows, int* n) {
  CHECK_GE(x.ndim(), 1);
  *n = x.dim(-1);
  CHECK_GT(*n, 0);
  *rows = x.numel() / *n;
}

/// Forward value of `act` — the same expressions as the UnaryOp lambdas in
/// tensor/ops.cc (bit-exactness depends on it).
inline float ActForward(FusedAct act, float v, float slope) {
  switch (act) {
    case FusedAct::kRelu:
      return v > 0.0f ? v : 0.0f;
    case FusedAct::kLeakyRelu:
      return v > 0.0f ? v : slope * v;
    case FusedAct::kSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
    case FusedAct::kTanh:
      return std::tanh(v);
  }
  return v;  // Unreachable.
}

/// Local derivative of `act`, taking the pre-activation v and the stored
/// output y — mirroring which of the two each UnaryOp's dydx actually reads.
inline float ActBackward(FusedAct act, float v, float y, float slope) {
  switch (act) {
    case FusedAct::kRelu:
      return v > 0.0f ? 1.0f : 0.0f;
    case FusedAct::kLeakyRelu:
      return v > 0.0f ? 1.0f : slope;
    case FusedAct::kSigmoid:
      return y * (1.0f - y);
    case FusedAct::kTanh:
      return 1.0f - y * y;
  }
  return 1.0f;  // Unreachable.
}

/// Flat index map of a d0<->d1 transpose: output index i (row-major in the
/// transposed shape) reads source index Src(i) (row-major in `view_shape`).
/// Identical arithmetic to MapOffset + permuted strides in ops.cc Transpose.
struct PermuteMap {
  std::vector<int> out_shape;
  std::vector<int64_t> out_strides;
  std::vector<int64_t> src_strides;

  PermuteMap(const std::vector<int>& view_shape, int d0, int d1) {
    out_shape = view_shape;
    std::swap(out_shape[static_cast<size_t>(d0)],
              out_shape[static_cast<size_t>(d1)]);
    out_strides = Strides(out_shape);
    src_strides = Strides(view_shape);
    std::swap(src_strides[static_cast<size_t>(d0)],
              src_strides[static_cast<size_t>(d1)]);
  }

  int64_t Src(int64_t i) const {
    int64_t off = 0;
    for (size_t d = 0; d < out_shape.size(); ++d) {
      off += ((i / out_strides[d]) % out_shape[d]) * src_strides[d];
    }
    return off;
  }
};

/// Shared core of the two permute-pair fusions: one gather node whose flat
/// output order is Transpose(view, d0, d1) of a tensor flat-identical to x,
/// reinterpreted as `final_shape`. Reshape is a flat copy, so composing it
/// with the transpose on either side only relabels the shape — the element
/// permutation (and therefore every float) is untouched. The backward
/// scatter inverts a bijection: disjoint writes, safely parallel.
Tensor PermutedCopy(const Tensor& x, const std::vector<int>& view_shape,
                    int d0, int d1, std::vector<int> final_shape) {
  const int64_t count = x.numel();
  CHECK_EQ(NumElements(view_shape), count);
  CHECK_EQ(NumElements(final_shape), count);
  const int nd = static_cast<int>(view_shape.size());
  if (d0 < 0) d0 += nd;
  if (d1 < 0) d1 += nd;
  CHECK_GE(d0, 0);
  CHECK_LT(d0, nd);
  CHECK_GE(d1, 0);
  CHECK_LT(d1, nd);
  PermuteMap map(view_shape, d0, d1);
  std::vector<float> out = BufferPool::Global().Acquire(count);
  auto kernel = [map, count](const float* xp, float* op) {
    ParallelFor(0, count, kElemGrain / 4, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) op[i] = xp[map.Src(i)];
    });
  };
  kernel(x.data().data(), out.data());
  Tensor tx = x;
  auto backward = [tx, map, count](internal::TensorImpl& node) mutable {
    const float* g = node.grad.data();
    float* gx = tx.grad().data();
    ParallelFor(0, count, kElemGrain / 4, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) gx[map.Src(i)] += g[i];
    });
  };
  Tensor result = Tensor::MakeFromOp(std::move(final_shape), std::move(out),
                                     {x}, std::move(backward));
  if (plan::Recording()) {
    const int ix = plan::In(x), io = plan::Out(result);
    plan::Commit([kernel, ix, io](float* const* bufs) {
      kernel(bufs[ix], bufs[io]);
    });
  }
  return result;
}

Tensor ApplyActOp(const Tensor& x, FusedAct act, float slope) {
  switch (act) {
    case FusedAct::kRelu:
      return Relu(x);
    case FusedAct::kLeakyRelu:
      return LeakyRelu(x, slope);
    case FusedAct::kSigmoid:
      return Sigmoid(x);
    case FusedAct::kTanh:
      return Tanh(x);
  }
  return x;  // Unreachable.
}

}  // namespace

bool FusedKernelsEnabled() {
  return g_fused_enabled.load(std::memory_order_relaxed);
}

void SetFusedKernelsEnabled(bool enabled) {
  g_fused_enabled.store(enabled, std::memory_order_relaxed);
}

Tensor ApplyFusedAct(const Tensor& x, FusedAct act, float slope) {
  return ApplyActOp(x, act, slope);
}

/// ---- Reference compositions -----------------------------------------------

Tensor LayerNormReference(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta, float eps) {
  Tensor mu = Mean(x, -1, /*keepdim=*/true);
  Tensor centered = Sub(x, mu);
  Tensor var = Mean(Square(centered), -1, /*keepdim=*/true);
  Tensor norm = Div(centered, Sqrt(AddScalar(var, eps)));
  return Add(Mul(norm, gamma), beta);
}

Tensor GluReference(const Tensor& a, const Tensor& b) {
  return Mul(Tanh(a), Sigmoid(b));
}

Tensor SoftmaxScaleReference(const Tensor& x, float scale) {
  if (scale == 1.0f) return Softmax(x, -1);
  return Softmax(MulScalar(x, scale), -1);
}

Tensor BiasActReference(const Tensor& x, const Tensor& bias, FusedAct act,
                        float slope) {
  return ApplyActOp(Add(x, bias), act, slope);
}

Tensor AddActReference(const Tensor& a, const Tensor& b, FusedAct act,
                       float slope) {
  return ApplyActOp(Add(a, b), act, slope);
}

Tensor ScalarScaleReference(const Tensor& x, const Tensor& s, float shift) {
  return Mul(x, AddScalar(s, shift));
}

Tensor ReshapeTransposeReference(const Tensor& x, std::vector<int> mid_shape,
                                 int d0, int d1) {
  return Transpose(Reshape(x, std::move(mid_shape)), d0, d1);
}

Tensor TransposeReshapeReference(const Tensor& x, int d0, int d1,
                                 std::vector<int> out_shape) {
  return Reshape(Transpose(x, d0, d1), std::move(out_shape));
}

Tensor AddNReference(const std::vector<Tensor>& parts) {
  CHECK(!parts.empty());
  Tensor acc = parts[0];
  for (size_t p = 1; p < parts.size(); ++p) acc = Add(acc, parts[p]);
  return acc;
}

Tensor AddLayerNormReference(const Tensor& a, const Tensor& b,
                             const Tensor& gamma, const Tensor& beta,
                             float eps) {
  return LayerNormReference(Add(a, b), gamma, beta, eps);
}

Tensor ReluSoftmaxReference(const Tensor& x) {
  return Softmax(Relu(x), -1);
}

Tensor MaeLossReference(const Tensor& pred, const Tensor& target) {
  return MeanAll(Abs(Sub(pred, target)));
}

/// ---- FusedLayerNorm -------------------------------------------------------
///
/// The composition is 9 tape nodes (Sum, MulScalar, Sub, Square, Sum,
/// MulScalar, AddScalar+Sqrt inside the Div chain, Mul, Add). Its backward
/// replay, in reverse topological order, executes:
///   Add -> Mul -> Div -> Sqrt -> AddScalar -> MulScalar -> Sum(sq)
///   -> Square -> Sub -> MulScalar -> Sum(x)
/// The fused kernel transcribes that sequence literally per row:
///   gnorm_j = (g_j * 1) * gamma_j            (Add, Mul backward)
///   gsd     = sum_j gnorm_j * (-c_j/sd^2)    (Div, ascending j)
///   gs2     = gsd * (0.5/max(sd,1e-12)) * invn
///   gc_j    = gnorm_j * (1/sd) + gs2 * 2c_j  (Div + Square, in that order)
///   gx_j   += gc_j;  gmu = sum_j gc_j * -1   (Sub, ascending j)
///   gx_j   += gmu * invn                     (Sum(x), second pass)
/// dgamma_j / dbeta_j fold rows in ascending order per column — the exact
/// order the serial broadcast backward of Mul/Add visits them.

Tensor FusedLayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                      float eps) {
  if (!FusedKernelsEnabled()) return LayerNormReference(x, gamma, beta, eps);
  int64_t rows;
  int n;
  LastAxisGeometry(x, &rows, &n);
  CHECK_EQ(gamma.ndim(), 1);
  CHECK_EQ(gamma.dim(0), n);
  CHECK_EQ(beta.ndim(), 1);
  CHECK_EQ(beta.dim(0), n);
  const float invn = 1.0f / static_cast<float>(n);
  BufferPool& pool = BufferPool::Global();
  std::vector<float> out = pool.Acquire(x.numel());
  // Per-row (mean, stddev) cached for backward. Wrapped in a Tensor (created
  // up front so a recording plan can bind it as a second output of this op's
  // thunk) so the buffer rides the closure's lifetime and returns to the
  // pool with it.
  Tensor stats_t = Tensor::FromVector({static_cast<int>(rows), 2},
                                      pool.Acquire(rows * 2));
  auto kernel = [rows, n, invn, eps](const float* xd, const float* gd,
                                     const float* bd, float* od, float* st) {
    ParallelFor(0, rows, GrainFor(4 * n), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* xr = xd + r * n;
        float* orow = od + r * n;
        float sum = 0.0f;
        for (int j = 0; j < n; ++j) sum += xr[j];
        const float mu = sum * invn;
        float sq = 0.0f;
        for (int j = 0; j < n; ++j) {
          const float c = xr[j] - mu;
          orow[j] = c;  // Stash centered values; overwritten below.
          sq += c * c;
        }
        const float sd = std::sqrt(sq * invn + eps);
        st[2 * r] = mu;
        st[2 * r + 1] = sd;
        const v8 vsd = Splat(sd);
        int j = 0;
        for (; j + 8 <= n; j += 8) {
          Store8(orow + j,
                 (Load8(orow + j) / vsd) * Load8(gd + j) + Load8(bd + j));
        }
        for (; j < n; ++j) orow[j] = (orow[j] / sd) * gd[j] + bd[j];
      }
    });
  };
  kernel(x.data().data(), gamma.data().data(), beta.data().data(), out.data(),
         stats_t.data().data());
  Tensor tx = x, tgamma = gamma, tbeta = beta;
  auto backward = [tx, tgamma, tbeta, stats_t, rows, n,
                   invn](internal::TensorImpl& node) mutable {
    const float* g = node.grad.data();
    const float* xd = tx.data().data();
    const float* gd = tgamma.data().data();
    const float* st = stats_t.data().data();
    float* gx = tx.grad().data();
    // dX: rows are independent (disjoint writes per chunk).
    ParallelFor(0, rows, GrainFor(6 * n), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float mu = st[2 * r];
        const float sd = st[2 * r + 1];
        const float q = 1.0f / sd;
        const float sd2 = sd * sd;
        const float* gr = g + r * n;
        const float* xr = xd + r * n;
        float* gxr = gx + r * n;
        float gsd = 0.0f;
        for (int j = 0; j < n; ++j) {
          const float gn = gr[j] * gd[j];
          const float c = xr[j] - mu;
          gsd += gn * (-c / sd2);
        }
        const float gs2 = (gsd * (0.5f / std::max(sd, 1e-12f))) * invn;
        float gmu = 0.0f;
        for (int j = 0; j < n; ++j) {
          const float gn = gr[j] * gd[j];
          const float c = xr[j] - mu;
          const float gc = gn * q + gs2 * (2.0f * c);
          gxr[j] += gc;
          gmu += gc * -1.0f;
        }
        const float gs1 = gmu * invn;
        for (int j = 0; j < n; ++j) gxr[j] += gs1;
      }
    });
    // dGamma/dBeta: one slot per column; parallel over columns with a fixed
    // ascending-row fold per slot (the serial broadcast backward's order).
    float* gg = tgamma.grad().data();
    float* gb = tbeta.grad().data();
    ParallelFor(0, n, GrainFor(2 * rows), [&](int64_t j0, int64_t j1) {
      for (int64_t j = j0; j < j1; ++j) {
        float accg = gg[j];
        float accb = gb[j];
        for (int64_t r = 0; r < rows; ++r) {
          const float gv = g[r * n + j];
          const float c = xd[r * n + j] - st[2 * r];
          accg += gv * (c / st[2 * r + 1]);
          accb += gv;
        }
        gg[j] = accg;
        gb[j] = accb;
      }
    });
  };
  Tensor result = Tensor::MakeFromOp(x.shape(), std::move(out),
                                     {x, gamma, beta}, std::move(backward));
  if (plan::Recording()) {
    const int ix = plan::In(x), ig = plan::In(gamma), ib = plan::In(beta);
    const int io = plan::Out(result), is = plan::Out(stats_t);
    plan::Commit([kernel, ix, ig, ib, io, is](float* const* bufs) {
      kernel(bufs[ix], bufs[ig], bufs[ib], bufs[io], bufs[is]);
    });
  }
  return result;
}

/// ---- FusedGlu -------------------------------------------------------------

Tensor FusedGlu(const Tensor& a, const Tensor& b) {
  if (!FusedKernelsEnabled()) return GluReference(a, b);
  CHECK(a.shape() == b.shape());
  const int64_t count = a.numel();
  std::vector<float> out = BufferPool::Global().Acquire(count);
  auto kernel = [count](const float* ad, const float* bd, float* od) {
    ParallelFor(0, count, kElemGrain / 4, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const float t = std::tanh(ad[i]);
        const float s = 1.0f / (1.0f + std::exp(-bd[i]));
        od[i] = t * s;
      }
    });
  };
  kernel(a.data().data(), b.data().data(), out.data());
  Tensor ta = a, tb = b;
  auto backward = [ta, tb, count](internal::TensorImpl& node) mutable {
    const float* g = node.grad.data();
    const float* ad = ta.data().data();
    const float* bd = tb.data().data();
    float* ga = ta.grad().data();
    float* gb = tb.grad().data();
    ParallelFor(0, count, kElemGrain / 4, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const float t = std::tanh(ad[i]);
        const float s = 1.0f / (1.0f + std::exp(-bd[i]));
        // Mul backward hands g*s to Tanh and g*t to Sigmoid; each then
        // multiplies its local derivative — same expressions as ops.cc.
        ga[i] += (g[i] * s) * (1.0f - t * t);
        gb[i] += (g[i] * t) * (s * (1.0f - s));
      }
    });
  };
  Tensor result = Tensor::MakeFromOp(a.shape(), std::move(out), {a, b},
                                     std::move(backward));
  if (plan::Recording()) {
    const int ia = plan::In(a), ib = plan::In(b), io = plan::Out(result);
    plan::Commit([kernel, ia, ib, io](float* const* bufs) {
      kernel(bufs[ia], bufs[ib], bufs[io]);
    });
  }
  return result;
}

/// ---- FusedSoftmax ---------------------------------------------------------

Tensor FusedSoftmax(const Tensor& x, float scale) {
  if (!FusedKernelsEnabled()) return SoftmaxScaleReference(x, scale);
  int64_t rows;
  int n;
  LastAxisGeometry(x, &rows, &n);
  std::vector<float> out = BufferPool::Global().Acquire(x.numel());
  auto kernel = [rows, n, scale](const float* xd, float* od) {
    ParallelFor(0, rows, GrainFor(3 * n), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* xr = xd + r * n;
        float* orow = od + r * n;
        // Scale into the output buffer (x * 1.0f is exact, so scale == 1
        // reproduces the plain Softmax bit-for-bit), tracking the max with
        // the same ascending std::max fold as the unfused kernel.
        float mx = -std::numeric_limits<float>::infinity();
        for (int j = 0; j < n; ++j) {
          const float v = xr[j] * scale;
          orow[j] = v;
          mx = std::max(mx, v);
        }
        float denom = 0.0f;
        for (int j = 0; j < n; ++j) {
          orow[j] = std::exp(orow[j] - mx);
          denom += orow[j];
        }
        const v8 vden = Splat(denom);
        int j = 0;
        for (; j + 8 <= n; j += 8) Store8(orow + j, Load8(orow + j) / vden);
        for (; j < n; ++j) orow[j] /= denom;
      }
    });
  };
  kernel(x.data().data(), out.data());
  Tensor tx = x;
  auto backward = [tx, rows, n, scale](internal::TensorImpl& node) mutable {
    const float* g = node.grad.data();
    const float* y = node.data.data();
    float* gx = tx.grad().data();
    ParallelFor(0, rows, GrainFor(2 * n), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* gr = g + r * n;
        const float* yr = y + r * n;
        float* gxr = gx + r * n;
        float dot = 0.0f;
        for (int j = 0; j < n; ++j) dot += gr[j] * yr[j];
        for (int j = 0; j < n; ++j) {
          gxr[j] += (yr[j] * (gr[j] - dot)) * scale;
        }
      }
    });
  };
  Tensor result = Tensor::MakeFromOp(x.shape(), std::move(out), {x},
                                     std::move(backward));
  if (plan::Recording()) {
    const int ix = plan::In(x), io = plan::Out(result);
    plan::Commit([kernel, ix, io](float* const* bufs) {
      kernel(bufs[ix], bufs[io]);
    });
  }
  return result;
}

/// ---- FusedBiasAct ---------------------------------------------------------

Tensor FusedBiasAct(const Tensor& x, const Tensor& bias, FusedAct act,
                    float slope) {
  if (!FusedKernelsEnabled()) return BiasActReference(x, bias, act, slope);
  int64_t rows;
  int n;
  LastAxisGeometry(x, &rows, &n);
  CHECK_EQ(bias.ndim(), 1);
  CHECK_EQ(bias.dim(0), n);
  std::vector<float> out = BufferPool::Global().Acquire(x.numel());
  auto kernel = [rows, n, act, slope](const float* xd, const float* bd,
                                      float* od) {
    ParallelFor(0, rows, GrainFor(2 * n), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* xr = xd + r * n;
        float* orow = od + r * n;
        for (int j = 0; j < n; ++j) {
          orow[j] = ActForward(act, xr[j] + bd[j], slope);
        }
      }
    });
  };
  kernel(x.data().data(), bias.data().data(), out.data());
  Tensor tx = x, tbias = bias;
  auto backward = [tx, tbias, rows, n, act,
                   slope](internal::TensorImpl& node) mutable {
    const float* g = node.grad.data();
    const float* y = node.data.data();
    const float* xd = tx.data().data();
    const float* bd = tbias.data().data();
    float* gx = tx.grad().data();
    // dX: elementwise, disjoint writes.
    ParallelFor(0, rows, GrainFor(3 * n), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* gr = g + r * n;
        const float* yr = y + r * n;
        const float* xr = xd + r * n;
        float* gxr = gx + r * n;
        for (int j = 0; j < n; ++j) {
          gxr[j] += gr[j] * ActBackward(act, xr[j] + bd[j], yr[j], slope);
        }
      }
    });
    // dBias: one slot per column, ascending-row fold (the order the serial
    // broadcast Add backward visits it).
    float* gb = tbias.grad().data();
    ParallelFor(0, n, GrainFor(2 * rows), [&](int64_t j0, int64_t j1) {
      for (int64_t j = j0; j < j1; ++j) {
        float acc = gb[j];
        for (int64_t r = 0; r < rows; ++r) {
          const int64_t i = r * n + j;
          acc += g[i] * ActBackward(act, xd[i] + bd[j], y[i], slope);
        }
        gb[j] = acc;
      }
    });
  };
  Tensor result = Tensor::MakeFromOp(x.shape(), std::move(out), {x, bias},
                                     std::move(backward));
  if (plan::Recording()) {
    const int ix = plan::In(x), ib = plan::In(bias), io = plan::Out(result);
    plan::Commit([kernel, ix, ib, io](float* const* bufs) {
      kernel(bufs[ix], bufs[ib], bufs[io]);
    });
  }
  return result;
}

/// ---- FusedAddAct ----------------------------------------------------------

Tensor FusedAddAct(const Tensor& a, const Tensor& b, FusedAct act,
                   float slope) {
  if (!FusedKernelsEnabled()) return AddActReference(a, b, act, slope);
  CHECK(a.shape() == b.shape());
  const int64_t count = a.numel();
  std::vector<float> out = BufferPool::Global().Acquire(count);
  auto kernel = [count, act, slope](const float* ad, const float* bd,
                                    float* od) {
    ParallelFor(0, count, kElemGrain / 2, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        od[i] = ActForward(act, ad[i] + bd[i], slope);
      }
    });
  };
  kernel(a.data().data(), b.data().data(), out.data());
  Tensor ta = a, tb = b;
  auto backward = [ta, tb, count, act,
                   slope](internal::TensorImpl& node) mutable {
    const float* g = node.grad.data();
    const float* y = node.data.data();
    const float* ad = ta.data().data();
    const float* bd = tb.data().data();
    float* ga = ta.grad().data();
    float* gb = tb.grad().data();
    ParallelFor(0, count, kElemGrain / 2, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const float gv = g[i] * ActBackward(act, ad[i] + bd[i], y[i], slope);
        ga[i] += gv;
        gb[i] += gv;
      }
    });
  };
  Tensor result = Tensor::MakeFromOp(a.shape(), std::move(out), {a, b},
                                     std::move(backward));
  if (plan::Recording()) {
    const int ia = plan::In(a), ib = plan::In(b), io = plan::Out(result);
    plan::Commit([kernel, ia, ib, io](float* const* bufs) {
      kernel(bufs[ia], bufs[ib], bufs[io]);
    });
  }
  return result;
}

/// ---- FusedScalarScale -----------------------------------------------------

Tensor FusedScalarScale(const Tensor& x, const Tensor& s, float shift) {
  if (!FusedKernelsEnabled()) return ScalarScaleReference(x, s, shift);
  CHECK_EQ(s.numel(), 1);
  const int64_t count = x.numel();
  std::vector<float> out = BufferPool::Global().Acquire(count);
  // The scalar is read at call time (sd[0]), not frozen into the lambda: s
  // is typically a learnable parameter, so a replaying plan must see the
  // value the optimizer last wrote — same for the backward closure below.
  auto kernel = [count, shift](const float* xd, const float* sd, float* od) {
    const float t = sd[0] + shift;
    const v8 vt = Splat(t);
    ParallelFor(0, count, kElemGrain, [&](int64_t i0, int64_t i1) {
      int64_t i = i0;
      for (; i + 8 <= i1; i += 8) Store8(od + i, Load8(xd + i) * vt);
      for (; i < i1; ++i) od[i] = xd[i] * t;
    });
  };
  kernel(x.data().data(), s.data().data(), out.data());
  Tensor tx = x, ts = s;
  auto backward = [tx, ts, count, shift](internal::TensorImpl& node) mutable {
    const float* g = node.grad.data();
    const float* xd = tx.data().data();
    float* gx = tx.grad().data();
    const float t = ts.data()[0] + shift;
    const v8 vt = Splat(t);
    ParallelFor(0, count, kElemGrain, [&](int64_t i0, int64_t i1) {
      int64_t i = i0;
      for (; i + 8 <= i1; i += 8) {
        Store8(gx + i, Load8(gx + i) + Load8(g + i) * vt);
      }
      for (; i < i1; ++i) gx[i] += g[i] * t;
    });
    // dS folds every element into one slot; the broadcast Mul backward it
    // replaces was fully serial ascending, so this stays serial ascending.
    float acc = 0.0f;
    for (int64_t i = 0; i < count; ++i) acc += g[i] * xd[i];
    ts.grad()[0] += acc * 1.0f;
  };
  Tensor result = Tensor::MakeFromOp(x.shape(), std::move(out), {x, s},
                                     std::move(backward));
  if (plan::Recording()) {
    const int ix = plan::In(x), is = plan::In(s), io = plan::Out(result);
    plan::Commit([kernel, ix, is, io](float* const* bufs) {
      kernel(bufs[ix], bufs[is], bufs[io]);
    });
  }
  return result;
}

/// ---- Permute-pair fusions -------------------------------------------------
///
/// Reshape is a full flat copy and Transpose a full permuted copy — the
/// composition moves every element twice and tapes two nodes. Each fusion
/// below is one gather node: pure data movement, so bit-exactness needs no
/// argument beyond "same permutation".

Tensor FusedReshapeTranspose(const Tensor& x, std::vector<int> mid_shape,
                             int d0, int d1) {
  if (!FusedKernelsEnabled()) {
    return ReshapeTransposeReference(x, std::move(mid_shape), d0, d1);
  }
  // Output shape is mid_shape with d0/d1 swapped; flat order is the
  // transpose's gather over the (flat-identical to x) reshaped view.
  const int nd = static_cast<int>(mid_shape.size());
  int p0 = d0 < 0 ? d0 + nd : d0;
  int p1 = d1 < 0 ? d1 + nd : d1;
  std::vector<int> final_shape = mid_shape;
  std::swap(final_shape[static_cast<size_t>(p0)],
            final_shape[static_cast<size_t>(p1)]);
  return PermutedCopy(x, mid_shape, d0, d1, std::move(final_shape));
}

Tensor FusedTransposeReshape(const Tensor& x, int d0, int d1,
                             std::vector<int> out_shape) {
  if (!FusedKernelsEnabled()) {
    return TransposeReshapeReference(x, d0, d1, std::move(out_shape));
  }
  // The transpose permutes x's own shape; the trailing reshape only
  // relabels the result, so the caller's out_shape is the node's shape.
  return PermutedCopy(x, x.shape(), d0, d1, std::move(out_shape));
}

/// ---- FusedAddN -------------------------------------------------------------

Tensor FusedAddN(const std::vector<Tensor>& parts) {
  CHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  if (!FusedKernelsEnabled()) return AddNReference(parts);
  const int64_t count = parts[0].numel();
  const size_t k = parts.size();
  std::vector<const float*> src;
  src.reserve(k);
  for (const Tensor& p : parts) {
    CHECK(p.shape() == parts[0].shape());
    src.push_back(p.data().data());
  }
  std::vector<float> out = BufferPool::Global().Acquire(count);
  auto kernel = [count, k](const float* const* sp, float* od) {
    ParallelFor(0, count, kElemGrain / 2, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        // The chained composition is the left fold ((p0 + p1) + p2) + ...
        float acc = sp[0][i] + sp[1][i];
        for (size_t p = 2; p < k; ++p) acc += sp[p][i];
        od[i] = acc;
      }
    });
  };
  kernel(src.data(), out.data());
  std::vector<Tensor> held = parts;
  auto backward = [held, count](internal::TensorImpl& node) mutable {
    const float* g = node.grad.data();
    // Each part's grad slot gets exactly one += g[i] * 1 from this node.
    // The Add chain delivers the same single contribution per part (in
    // reverse part order, which IEEE addition's commutativity makes
    // bit-irrelevant for a lone contribution). Caveat: listing the SAME
    // tensor three or more times would order >= 3 contributions into one
    // slot differently — no call site does that.
    for (Tensor& p : held) {
      float* gp = p.grad().data();
      ParallelFor(0, count, kElemGrain / 2, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) gp[i] += g[i] * 1.0f;
      });
    }
  };
  Tensor result = Tensor::MakeFromOp(parts[0].shape(), std::move(out), parts,
                                     std::move(backward));
  if (plan::Recording()) {
    std::vector<int> part_slots;
    part_slots.reserve(k);
    for (const Tensor& p : parts) part_slots.push_back(plan::In(p));
    const int io = plan::Out(result);
    plan::Commit([kernel, part_slots, io](float* const* bufs) {
      std::vector<const float*> sp;
      sp.reserve(part_slots.size());
      for (int slot : part_slots) sp.push_back(bufs[slot]);
      kernel(sp.data(), bufs[io]);
    });
  }
  return result;
}

/// ---- FusedAddLayerNorm ----------------------------------------------------
///
/// FusedLayerNorm with x_j = a_j + b_j computed inline (the residual Add
/// never materializes). The composition's Add backward hands the LN input
/// gradient (gc_j accumulated with gs1) to BOTH parents with partial 1, so
/// the only change from FusedLayerNorm's backward is the final pass: it
/// recomputes gc_j, forms gxv = gc_j + gs1, and adds gxv to ga and gb
/// instead of accumulating into a gx buffer in two passes. (0 + gc) + gs1
/// vs gc + gs1 differ only in the sign of an exact zero, which cannot
/// change any accumulated bits — see the determinism note in fused.h.

Tensor FusedAddLayerNorm(const Tensor& a, const Tensor& b,
                         const Tensor& gamma, const Tensor& beta, float eps) {
  if (!FusedKernelsEnabled()) {
    return AddLayerNormReference(a, b, gamma, beta, eps);
  }
  CHECK(a.shape() == b.shape());
  int64_t rows;
  int n;
  LastAxisGeometry(a, &rows, &n);
  CHECK_EQ(gamma.ndim(), 1);
  CHECK_EQ(gamma.dim(0), n);
  CHECK_EQ(beta.ndim(), 1);
  CHECK_EQ(beta.dim(0), n);
  const float invn = 1.0f / static_cast<float>(n);
  BufferPool& pool = BufferPool::Global();
  std::vector<float> out = pool.Acquire(a.numel());
  // Stats tensor created up front so a recording plan can bind it as a
  // second output of this op's thunk (see FusedLayerNorm).
  Tensor stats_t = Tensor::FromVector({static_cast<int>(rows), 2},
                                      pool.Acquire(rows * 2));
  auto kernel = [rows, n, invn, eps](const float* ad, const float* bd2,
                                     const float* gd, const float* bed,
                                     float* od, float* st) {
    ParallelFor(0, rows, GrainFor(5 * n), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* ar = ad + r * n;
        const float* br = bd2 + r * n;
        float* orow = od + r * n;
        float sum = 0.0f;
        for (int j = 0; j < n; ++j) sum += ar[j] + br[j];
        const float mu = sum * invn;
        float sq = 0.0f;
        for (int j = 0; j < n; ++j) {
          const float c = (ar[j] + br[j]) - mu;
          orow[j] = c;  // Stash centered values; overwritten below.
          sq += c * c;
        }
        const float sd = std::sqrt(sq * invn + eps);
        st[2 * r] = mu;
        st[2 * r + 1] = sd;
        const v8 vsd = Splat(sd);
        int j = 0;
        for (; j + 8 <= n; j += 8) {
          Store8(orow + j,
                 (Load8(orow + j) / vsd) * Load8(gd + j) + Load8(bed + j));
        }
        for (; j < n; ++j) orow[j] = (orow[j] / sd) * gd[j] + bed[j];
      }
    });
  };
  kernel(a.data().data(), b.data().data(), gamma.data().data(),
         beta.data().data(), out.data(), stats_t.data().data());
  Tensor ta = a, tb = b, tgamma = gamma, tbeta = beta;
  auto backward = [ta, tb, tgamma, tbeta, stats_t, rows, n,
                   invn](internal::TensorImpl& node) mutable {
    const float* g = node.grad.data();
    const float* ad = ta.data().data();
    const float* bd2 = tb.data().data();
    const float* gd = tgamma.data().data();
    const float* st = stats_t.data().data();
    float* ga = ta.grad().data();
    float* gb2 = tb.grad().data();
    ParallelFor(0, rows, GrainFor(8 * n), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float mu = st[2 * r];
        const float sd = st[2 * r + 1];
        const float q = 1.0f / sd;
        const float sd2 = sd * sd;
        const float* gr = g + r * n;
        const float* ar = ad + r * n;
        const float* br = bd2 + r * n;
        float* gar = ga + r * n;
        float* gbr = gb2 + r * n;
        float gsd = 0.0f;
        for (int j = 0; j < n; ++j) {
          const float gn = gr[j] * gd[j];
          const float c = (ar[j] + br[j]) - mu;
          gsd += gn * (-c / sd2);
        }
        const float gs2 = (gsd * (0.5f / std::max(sd, 1e-12f))) * invn;
        float gmu = 0.0f;
        for (int j = 0; j < n; ++j) {
          const float gn = gr[j] * gd[j];
          const float c = (ar[j] + br[j]) - mu;
          const float gc = gn * q + gs2 * (2.0f * c);
          gmu += gc * -1.0f;
        }
        const float gs1 = gmu * invn;
        for (int j = 0; j < n; ++j) {
          const float gn = gr[j] * gd[j];
          const float c = (ar[j] + br[j]) - mu;
          const float gc = gn * q + gs2 * (2.0f * c);
          const float gxv = gc + gs1;
          gar[j] += gxv * 1.0f;
          gbr[j] += gxv * 1.0f;
        }
      }
    });
    float* gg = tgamma.grad().data();
    float* gbe = tbeta.grad().data();
    ParallelFor(0, n, GrainFor(2 * rows), [&](int64_t j0, int64_t j1) {
      for (int64_t j = j0; j < j1; ++j) {
        float accg = gg[j];
        float accb = gbe[j];
        for (int64_t r = 0; r < rows; ++r) {
          const float gv = g[r * n + j];
          const float c = (ad[r * n + j] + bd2[r * n + j]) - st[2 * r];
          accg += gv * (c / st[2 * r + 1]);
          accb += gv;
        }
        gg[j] = accg;
        gbe[j] = accb;
      }
    });
  };
  Tensor result = Tensor::MakeFromOp(a.shape(), std::move(out),
                                     {a, b, gamma, beta}, std::move(backward));
  if (plan::Recording()) {
    const int ia = plan::In(a), ib = plan::In(b);
    const int ig = plan::In(gamma), ie = plan::In(beta);
    const int io = plan::Out(result), is = plan::Out(stats_t);
    plan::Commit([kernel, ia, ib, ig, ie, io, is](float* const* bufs) {
      kernel(bufs[ia], bufs[ib], bufs[ig], bufs[ie], bufs[io], bufs[is]);
    });
  }
  return result;
}

/// ---- FusedReluSoftmax -----------------------------------------------------

Tensor FusedReluSoftmax(const Tensor& x) {
  if (!FusedKernelsEnabled()) return ReluSoftmaxReference(x);
  int64_t rows;
  int n;
  LastAxisGeometry(x, &rows, &n);
  std::vector<float> out = BufferPool::Global().Acquire(x.numel());
  auto kernel = [rows, n](const float* xd, float* od) {
    ParallelFor(0, rows, GrainFor(3 * n), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* xr = xd + r * n;
        float* orow = od + r * n;
        // Relu into the output buffer, then the plain softmax sequence —
        // the same ascending folds as Softmax over the Relu'd values.
        float mx = -std::numeric_limits<float>::infinity();
        for (int j = 0; j < n; ++j) {
          const float v = xr[j] > 0.0f ? xr[j] : 0.0f;
          orow[j] = v;
          mx = std::max(mx, v);
        }
        float denom = 0.0f;
        for (int j = 0; j < n; ++j) {
          orow[j] = std::exp(orow[j] - mx);
          denom += orow[j];
        }
        const v8 vden = Splat(denom);
        int j = 0;
        for (; j + 8 <= n; j += 8) Store8(orow + j, Load8(orow + j) / vden);
        for (; j < n; ++j) orow[j] /= denom;
      }
    });
  };
  kernel(x.data().data(), out.data());
  Tensor tx = x;
  auto backward = [tx, rows, n](internal::TensorImpl& node) mutable {
    const float* g = node.grad.data();
    const float* y = node.data.data();
    const float* xd = tx.data().data();
    float* gx = tx.grad().data();
    ParallelFor(0, rows, GrainFor(3 * n), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* gr = g + r * n;
        const float* yr = y + r * n;
        const float* xr = xd + r * n;
        float* gxr = gx + r * n;
        float dot = 0.0f;
        for (int j = 0; j < n; ++j) dot += gr[j] * yr[j];
        // Softmax backward hands y*(g - dot) to Relu, whose local
        // derivative is the ops.cc step function.
        for (int j = 0; j < n; ++j) {
          gxr[j] += (yr[j] * (gr[j] - dot)) * (xr[j] > 0.0f ? 1.0f : 0.0f);
        }
      }
    });
  };
  Tensor result = Tensor::MakeFromOp(x.shape(), std::move(out), {x},
                                     std::move(backward));
  if (plan::Recording()) {
    const int ix = plan::In(x), io = plan::Out(result);
    plan::Commit([kernel, ix, io](float* const* bufs) {
      kernel(bufs[ix], bufs[io]);
    });
  }
  return result;
}

/// ---- FusedMaeLoss ---------------------------------------------------------
///
/// mean(|pred - target|) is Sub + Abs + SumAll + MulScalar: three full
/// elementwise passes, a serial fold, and four tape nodes. Fused: one
/// serial ascending fold (SumAll's exact order) for the forward, one
/// parallel elementwise pass for the backward.

Tensor FusedMaeLoss(const Tensor& pred, const Tensor& target) {
  if (!FusedKernelsEnabled()) return MaeLossReference(pred, target);
  CHECK(pred.shape() == target.shape());
  const int64_t count = pred.numel();
  const float invn = 1.0f / static_cast<float>(count);
  auto kernel = [count, invn](const float* pd, const float* td, float* op) {
    float total = 0.0f;
    for (int64_t i = 0; i < count; ++i) total += std::fabs(pd[i] - td[i]);
    op[0] = total * invn;
  };
  float loss = 0.0f;
  kernel(pred.data().data(), target.data().data(), &loss);
  Tensor tp = pred, tt = target;
  auto backward = [tp, tt, count, invn](internal::TensorImpl& node) mutable {
    // MulScalar then SumAll broadcast: every element sees g[0] * invn.
    const float base = node.grad[0] * invn;
    const float* pd = tp.data().data();
    const float* td = tt.data().data();
    float* gp = tp.grad().data();
    float* gt = tt.grad().data();
    ParallelFor(0, count, kElemGrain / 2, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const float d = pd[i] - td[i];
        // Abs backward's sign, then Sub's +1 / -1 partials.
        const float s = d > 0.0f ? 1.0f : (d < 0.0f ? -1.0f : 0.0f);
        const float gd = base * s;
        gp[i] += gd * 1.0f;
        gt[i] += gd * -1.0f;
      }
    });
  };
  Tensor result = Tensor::MakeFromOp({1}, {loss}, {pred, target},
                                     std::move(backward));
  if (plan::Recording()) {
    const int ip = plan::In(pred), it = plan::In(target);
    const int io = plan::Out(result);
    plan::Commit([kernel, ip, it, io](float* const* bufs) {
      kernel(bufs[ip], bufs[it], bufs[io]);
    });
  }
  return result;
}

}  // namespace autocts
