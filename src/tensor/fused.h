#ifndef REPRO_TENSOR_FUSED_H_
#define REPRO_TENSOR_FUSED_H_

#include "tensor/tensor.h"

namespace autocts {

/// Fused forward/backward kernels for the composite ops that dominate the
/// training hot path between GEMMs.
///
/// Each Fused* op collapses a small op-graph composition (LayerNorm is 9
/// tape nodes, the GLU gate is 3, softmax-with-scale is 2, bias+activation
/// is 2) into ONE tape node with a single-pass vectorized kernel per
/// direction. That halves tape nodes and BufferPool round-trips per
/// training step and removes the per-node full-tensor memory passes — the
/// glue cost that dominates once GEMM itself is cache-blocked.
///
/// Determinism contract (same as tensor/gemm.h): every fused kernel
/// replays the *exact* per-element floating-point operation sequence of the
/// op-graph composition it replaces — same ops, same order, including the
/// ascending-index accumulation order of every reduction — so outputs AND
/// gradients are bit-identical to the unfused path (memcmp-checked in
/// tests/fused_ops_test.cc) and invariant to thread count. The only
/// parallelism is over disjoint output ranges; shared-slot reductions
/// (bias/affine parameter gradients) are chunked over the *parameter* axis
/// with a fixed ascending-row accumulation per slot.
///
/// The op-graph composition of each kernel is retained as a *Reference
/// function: it is the fallback when fusion is disabled (the baseline the
/// microbenchmarks compare against) and the oracle the tests memcmp
/// against. To add a fused kernel: write the Reference composition first,
/// derive the per-element op sequence of its forward and of its backward
/// replay (reverse topological order), transcribe both literally, and add
/// the memcmp + gradcheck + thread-invariance cases to fused_ops_test.

/// Activation applied by the fused bias/add kernels. Derivative handling
/// matches the corresponding UnaryOp in tensor/ops.cc exactly.
enum class FusedAct { kRelu, kLeakyRelu, kSigmoid, kTanh };

/// Process-wide switch. On by default; SetFusedKernelsEnabled(false) routes
/// every Fused* call through its op-graph Reference composition instead — the A/B the ST-block training
/// benchmark measures. Fused and unfused paths are bit-identical, so the
/// toggle can never change results, only speed.
bool FusedKernelsEnabled();
void SetFusedKernelsEnabled(bool enabled);

/// ---- Fused kernels --------------------------------------------------------

/// LayerNorm over the last dimension with learnable affine:
///   (x - mean) / sqrt(var + eps) * gamma + beta
/// One tape node instead of nine; forward is one pass over x plus a cached
/// (mean, stddev) pair per row, backward three row-local passes instead of
/// the composition's ~twelve (several of which were serial broadcast
/// scatters).
Tensor FusedLayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                      float eps);

/// Gated linear unit gate: tanh(a) * sigmoid(b), elementwise, same shapes.
Tensor FusedGlu(const Tensor& a, const Tensor& b);

/// Numerically stable softmax(x * scale) along the LAST axis (the only
/// axis the model zoo uses). scale = 1.0f fuses a plain softmax; any other
/// value additionally absorbs the attention MulScalar node (x * 1.0f is
/// exact, so one kernel serves both).
Tensor FusedSoftmax(const Tensor& x, float scale);

/// bias-add + activation: act(x + bias) with bias broadcast over the last
/// dimension — the Linear epilogue (MatMul output + bias + ReLU et al).
Tensor FusedBiasAct(const Tensor& x, const Tensor& bias, FusedAct act,
                    float slope = 0.01f);

/// Same-shape add + activation: act(a + b) — the GRU gate pattern.
Tensor FusedAddAct(const Tensor& a, const Tensor& b, FusedAct act,
                   float slope = 0.01f);

/// x * (s[0] + shift) for a scalar (shape {1}) tensor s — GIN's (1+eps)*H.
/// Replaces a broadcast Mul whose backward was a fully serial scatter.
Tensor FusedScalarScale(const Tensor& x, const Tensor& s, float shift);

/// Transpose(Reshape(x, mid_shape), d0, d1) as ONE gather node — the
/// attention split-heads pattern ([B,L,D] -> [B,H,L,Dh]). The composition
/// moves every element twice (a full reshape copy plus a permuted copy) and
/// tapes two nodes; this is one permuted copy. Pure data movement, so
/// bit-exactness is trivial; the backward scatter is a bijection (disjoint
/// writes, safely parallel).
Tensor FusedReshapeTranspose(const Tensor& x, std::vector<int> mid_shape,
                             int d0, int d1);

/// Reshape(Transpose(x, d0, d1), out_shape) as ONE gather node — the
/// merge-heads pattern and the [B,N,T,H] <-> rows plumbing around spatial
/// attention.
Tensor FusedTransposeReshape(const Tensor& x, int d0, int d1,
                             std::vector<int> out_shape);

/// Left-fold sum of same-shape tensors: ((p0 + p1) + p2) + ... as ONE node —
/// the ST-block skip sum and the DGCN diffusion accumulator, whose Add
/// chains tape (and fully re-walk) a full tensor per term.
Tensor FusedAddN(const std::vector<Tensor>& parts);

/// LayerNorm(a + b) — the residual + post-norm backbone pattern. Folds the
/// elementwise Add into the normalization passes.
Tensor FusedAddLayerNorm(const Tensor& a, const Tensor& b,
                         const Tensor& gamma, const Tensor& beta, float eps);

/// softmax(relu(x)) along the last axis — the self-adaptive adjacency of
/// DGCN/MTGNN/AGCRN.
Tensor FusedReluSoftmax(const Tensor& x);

/// mean(|pred - target|) — the forecasting training loss; 4 tape nodes and
/// three full passes collapsed into one of each.
Tensor FusedMaeLoss(const Tensor& pred, const Tensor& target);

/// The single-op activation for `act` (Relu/LeakyRelu/Sigmoid/Tanh from
/// tensor/ops.h). Not fused — for call sites whose producer has nothing to
/// fuse with (e.g. a bias-free Linear).
Tensor ApplyFusedAct(const Tensor& x, FusedAct act, float slope = 0.01f);

/// ---- Op-graph reference compositions --------------------------------------
/// The exact multi-node graphs each fused kernel replaces. Used as the
/// dispatch target when fusion is disabled and as the bit-exactness oracle
/// in tests.

Tensor LayerNormReference(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta, float eps);
Tensor GluReference(const Tensor& a, const Tensor& b);
Tensor SoftmaxScaleReference(const Tensor& x, float scale);
Tensor BiasActReference(const Tensor& x, const Tensor& bias, FusedAct act,
                        float slope = 0.01f);
Tensor AddActReference(const Tensor& a, const Tensor& b, FusedAct act,
                       float slope = 0.01f);
Tensor ScalarScaleReference(const Tensor& x, const Tensor& s, float shift);
Tensor ReshapeTransposeReference(const Tensor& x, std::vector<int> mid_shape,
                                 int d0, int d1);
Tensor TransposeReshapeReference(const Tensor& x, int d0, int d1,
                                 std::vector<int> out_shape);
Tensor AddNReference(const std::vector<Tensor>& parts);
Tensor AddLayerNormReference(const Tensor& a, const Tensor& b,
                             const Tensor& gamma, const Tensor& beta,
                             float eps);
Tensor ReluSoftmaxReference(const Tensor& x);
Tensor MaeLossReference(const Tensor& pred, const Tensor& target);

}  // namespace autocts

#endif  // REPRO_TENSOR_FUSED_H_
