#ifndef REPRO_TENSOR_PLAN_H_
#define REPRO_TENSOR_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace autocts {

/// ---------------------------------------------------------------------------
/// Graph capture & replay (see DESIGN.md "Graph capture & replay").
///
/// A StepPlan records one eager step — every op's forward kernel as a flat
/// "thunk" over a slot-indexed buffer table, plus (for training steps) the
/// exact backward-closure invocation order — and then replays it with zero
/// tape-node allocation, zero shape inference, and zero buffer-pool
/// round-trips. Replay is bit-exact versus eager execution: the thunks ARE
/// the eager kernels (same code, same accumulation order, same ParallelFor
/// partitioning contract), run over the same buffers in the same order.
///
/// Capture protocol (implemented by every op in ops.cc / fused.cc):
///
///   auto kernel = [geometry...](const float* a, float* out) { ... };
///   kernel(a_ptr, out_ptr);                       // eager execution
///   if (plan::Recording()) {
///     const int ia = plan::In(a), io = plan::Out(out_t);
///     plan::Commit([kernel, ia, io](float* const* b) {
///       kernel(b[ia], b[io]);
///     });
///   }
///
/// plan::In / plan::Out intern a Tensor into the recording plan's slot
/// table (Out additionally marks the slot as produced by this op);
/// plan::Commit appends the thunk. Tensor::MakeFromOp independently notes
/// every op output born during the capture, and EndCapture refuses to
/// freeze unless each one was bound via plan::Out — so an uninstrumented op
/// poisons the capture (the step falls back to eager, permanently for that
/// plan) instead of replaying a graph with a hole in it.
/// ---------------------------------------------------------------------------

namespace plan {

/// Whether step plans are captured/replayed at all. Defaults to on;
/// SetPlansEnabled(false) disables them for the current process (every step
/// then runs eagerly — the A/B knob for the plan benchmark).
bool PlansEnabled();
void SetPlansEnabled(bool enabled);

/// True while a StepPlan capture is active on the current thread. Op
/// implementations use this to decide whether to record; everyone else can
/// ignore it. Captures never nest on one thread.
bool Recording();

/// Interns `t` as an input of the op being recorded; returns its slot index
/// in the plan's buffer table. The plan keeps `t`'s storage alive.
int In(const Tensor& t);

/// Interns `t` as an output of the op being recorded (the op's thunk writes
/// the slot's buffer on every replay); returns its slot index.
int Out(const Tensor& t);

/// Appends the recorded op's replay thunk. `thunk` receives the plan's
/// buffer table, indexed by the slots handed out by In/Out.
void Commit(std::function<void(float* const*)> thunk);

/// Marks the active capture as unusable (e.g. an op that cannot replay).
/// The eager step still completes; EndCapture will fail and the owning call
/// site keeps running eagerly. No-op when not recording.
void Poison(const char* reason);

/// Tape nodes currently pinned by frozen plans on this thread — the plans'
/// share of LiveTapeNodesThisThread(). The stale-tape capture assert checks
/// live == pinned: anything above what plans pin is a leaked step graph.
uint64_t PinnedTapeNodesThisThread();

namespace detail {
/// Capture hooks called by tensor.cc (only while Recording()).
void NoteNodeCreated(const Tensor& t);
void NoteBackwardBegin(internal::TensorImpl* root);
void NoteBackwardNode(internal::TensorImpl* node);
}  // namespace detail

}  // namespace plan

/// One captured step. Owns the recorded thunks, the pinned tensors of the
/// captured graph, and (for inference plans) the bump arena that replaces
/// pool-backed intermediates.
///
/// Training plans (SetLoss + a Backward during capture) keep every
/// intermediate pinned to its original impl-backed buffer — the retained
/// backward closures read node/parent storage directly — and replay both
/// passes; the optimizer step is already tape-free (fused Adam) and runs
/// unchanged. Inference plans (AddOutput, capture under NoGradScope) have
/// no closures to satisfy, so every pure intermediate is released back to
/// the buffer pool at freeze and its slot re-bound into a single arena with
/// liveness-based (def..last-use) offset reuse.
///
/// Replay sequence:
///   if (p.ready() && p.MatchesInputs(inputs)) {
///     p.BeginStep(inputs);   // memcpy fresh inputs, zero pinned grads
///     p.RunForward();        // flat thunk list
///     ... probe p.LossValue() / p.output(i), guard, fault-inject ...
///     p.RunBackward();       // training plans only
///   }
///
/// Not thread-safe: capture and every replay of one StepPlan must happen on
/// the thread that captured it (distinct plans on distinct threads are
/// fine; recording state is thread-local). This is a hard invariant, not
/// just a data race: frozen plans pin tape-node accounting in thread-local
/// counters, so a cross-thread replay (or destruction) corrupts another
/// thread's bookkeeping. The plan remembers its capture thread; debug
/// builds assert the invariant inside BeginStep/RunForward/RunBackward, and
/// ValidateReplayThread() reports a violation as a clear error Status for
/// release-mode callers (long-lived serving workers) that would otherwise
/// hit silent UB.
class StepPlan {
 public:
  StepPlan();
  ~StepPlan();

  StepPlan(const StepPlan&) = delete;
  StepPlan& operator=(const StepPlan&) = delete;

  /// ---- Capture ---------------------------------------------------------

  /// Starts recording the ops the current thread executes. `inputs` are the
  /// tensors refreshed with new data every step (batch x/y, stacked
  /// encodings, targets); everything else touched by the step is frozen as
  /// a constant or parameter of the plan. In debug builds, asserts that no
  /// stale (un-released, un-pinned) tape nodes exist on this thread.
  void BeginCapture(std::vector<Tensor> inputs, std::string tag);

  /// Declares the scalar loss of a training capture. Its Backward() must
  /// run while the capture is still open.
  void SetLoss(const Tensor& loss);

  /// Declares a tensor whose values callers read after each replay
  /// (inference plans). Output buffers are never arena-aliased.
  void AddOutput(const Tensor& output);

  /// Stops recording and freezes the plan. Returns false (and leaves the
  /// plan unusable but safe) when the capture was poisoned — the caller
  /// simply keeps running eagerly.
  bool EndCapture();

  /// Stops recording and discards everything (e.g. the eager step aborted
  /// on a guardrail mid-capture). The plan may capture again later.
  void AbortCapture();

  bool capturing() const;
  /// True when a frozen plan is loaded and replayable.
  bool ready() const;
  /// True when a capture attempt was poisoned; callers should stop trying
  /// to capture with this plan and stay eager.
  bool capture_failed() const;

  /// Drops the frozen plan (counts as an invalidation in PlanStats). The
  /// next step can recapture — this is the shape/knob-change and
  /// NaN-quarantine-recovery path.
  void Invalidate();

  /// ---- Replay ----------------------------------------------------------

  /// Ok when the calling thread is allowed to replay this plan — i.e. it is
  /// the thread that captured it, or the plan is not frozen. A descriptive
  /// error otherwise. Replaying (or destroying) a frozen plan on any other
  /// thread is UB; callers holding plans in long-lived worker threads should
  /// validate on re-entry paths where thread affinity is not structural.
  Status ValidateReplayThread() const;

  /// True when `inputs` have the captured shapes and the global knobs the
  /// plan was captured under (fused kernels, guardrails, plans enabled)
  /// still hold. On false the caller should Invalidate() and recapture.
  bool MatchesInputs(const std::vector<Tensor>& inputs) const;

  /// Copies this step's input values into the captured input buffers and,
  /// for training plans, zeroes every pinned gradient (the replay
  /// equivalent of fresh zeroed intermediate grads plus optimizer
  /// ZeroGrad). Inference plans write no gradient.
  void BeginStep(const std::vector<Tensor>& inputs);

  /// Writable view of the `i`-th captured input buffer (the slot BeginStep
  /// memcpys into), or nullptr when no recorded op reads that input. The
  /// streaming engine maintains its window directly in this buffer —
  /// updating the few slots a new tick changes — and then replays via
  /// BeginStepInPlace(), skipping the full per-step window copy. The
  /// pointer is stable for the lifetime of the frozen plan (until
  /// Invalidate()); writing it from a thread other than the capture thread
  /// follows the same affinity rule as replay.
  float* input_data(size_t i);
  /// Element count of the `i`-th captured input buffer.
  int64_t input_size(size_t i) const;

  /// BeginStep for callers that already refreshed the input buffers via
  /// input_data(): copies nothing; zeroes pinned gradients (training
  /// plans only).
  void BeginStepInPlace();

  /// Executes the recorded forward thunks.
  void RunForward();

  /// The loss value after RunForward (training plans).
  float LossValue() const;

  /// Seeds the loss gradient and re-invokes the captured backward closures
  /// in the recorded order (training plans).
  void RunBackward();

  /// The `i`-th AddOutput tensor; its values are refreshed by RunForward.
  const Tensor& output(size_t i = 0) const;

  /// ---- Introspection ---------------------------------------------------

  /// Bytes of the replay arena (inference plans; 0 for training plans).
  int64_t arena_bytes() const;
  /// Bytes pinned to impl-backed buffers (data + grad) by the frozen plan.
  int64_t pinned_bytes() const;
  /// Recorded forward thunks in the frozen plan.
  int64_t num_ops() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace autocts

#endif  // REPRO_TENSOR_PLAN_H_
