#include "tensor/plan.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/guard.h"
#include "common/parallel.h"
#include "tensor/buffer_pool.h"
#include "tensor/fused.h"

namespace autocts {

namespace plan {

namespace {

std::atomic<bool> g_plans_enabled{true};

std::atomic<uint64_t> g_captures{0};
std::atomic<uint64_t> g_replays{0};
std::atomic<uint64_t> g_invalidations{0};
std::atomic<uint64_t> g_poisoned{0};
std::atomic<int64_t> g_arena_bytes{0};
std::atomic<int64_t> g_pinned_bytes{0};

PlanStats CurrentPlanStats() {
  PlanStats s;
  s.captures = g_captures.load(std::memory_order_relaxed);
  s.replays = g_replays.load(std::memory_order_relaxed);
  s.invalidations = g_invalidations.load(std::memory_order_relaxed);
  s.poisoned = g_poisoned.load(std::memory_order_relaxed);
  s.arena_bytes =
      static_cast<uint64_t>(g_arena_bytes.load(std::memory_order_relaxed));
  s.pinned_bytes =
      static_cast<uint64_t>(g_pinned_bytes.load(std::memory_order_relaxed));
  return s;
}

struct PlanStatsRegistrar {
  PlanStatsRegistrar() { RegisterPlanStatsProvider(&CurrentPlanStats); }
} g_plan_stats_registrar;

/// Tape nodes pinned by frozen plans owned by this thread.
thread_local uint64_t t_pinned_tape_nodes = 0;

using Thunk = std::function<void(float* const*)>;

/// One buffer of the plan: a Tensor the recorded step touched.
struct RecSlot {
  Tensor keep;
  /// True when a committed op writes this buffer on replay.
  bool op_defined = false;
  int def_op = -1;   ///< Thunk index that produces the buffer.
  int last_use = -1; ///< Last thunk index that touches it.
};

/// Thread-local capture state; one per open BeginCapture.
class Recorder {
 public:
  explicit Recorder(std::string tag) : tag_(std::move(tag)) {}

  int SlotFor(const Tensor& t, bool as_output) {
    CHECK(t.defined());
    auto [it, fresh] =
        slot_of_.try_emplace(t.impl(), static_cast<int>(slots_.size()));
    if (fresh) slots_.push_back(RecSlot{t});
    RecSlot& s = slots_[static_cast<size_t>(it->second)];
    const int op = static_cast<int>(thunks_.size());
    s.last_use = op;
    if (as_output) {
      if (s.op_defined) {
        PoisonNow("buffer produced by two ops");
      } else {
        s.op_defined = true;
        s.def_op = op;
      }
    }
    return it->second;
  }

  void Commit(Thunk thunk) { thunks_.push_back(std::move(thunk)); }

  void PoisonNow(const char* reason) {
    if (!poisoned_) {
      poisoned_ = true;
      poison_reason_ = reason;
    }
  }

  std::string tag_;
  bool poisoned_ = false;
  std::string poison_reason_;
  std::vector<RecSlot> slots_;
  std::unordered_map<internal::TensorImpl*, int> slot_of_;
  std::vector<Thunk> thunks_;
  /// Every MakeFromOp result born during the capture (pinned so impl
  /// pointers stay unique until the EndCapture coverage check).
  std::vector<Tensor> fresh_nodes_;
  internal::TensorImpl* backward_root_ = nullptr;
  std::vector<internal::TensorImpl*> backward_order_;
};

thread_local Recorder* t_recorder = nullptr;

}  // namespace

bool PlansEnabled() { return g_plans_enabled.load(std::memory_order_relaxed); }

void SetPlansEnabled(bool enabled) {
  g_plans_enabled.store(enabled, std::memory_order_relaxed);
}

bool Recording() { return t_recorder != nullptr; }

int In(const Tensor& t) {
  CHECK(t_recorder != nullptr) << "plan::In outside a capture";
  return t_recorder->SlotFor(t, /*as_output=*/false);
}

int Out(const Tensor& t) {
  CHECK(t_recorder != nullptr) << "plan::Out outside a capture";
  return t_recorder->SlotFor(t, /*as_output=*/true);
}

void Commit(std::function<void(float* const*)> thunk) {
  CHECK(t_recorder != nullptr) << "plan::Commit outside a capture";
  t_recorder->Commit(std::move(thunk));
}

void Poison(const char* reason) {
  if (t_recorder != nullptr) t_recorder->PoisonNow(reason);
}

uint64_t PinnedTapeNodesThisThread() { return t_pinned_tape_nodes; }

namespace detail {

void NoteNodeCreated(const Tensor& t) {
  if (t_recorder != nullptr) t_recorder->fresh_nodes_.push_back(t);
}

void NoteBackwardBegin(internal::TensorImpl* root) {
  if (t_recorder == nullptr) return;
  if (t_recorder->backward_root_ != nullptr) {
    t_recorder->PoisonNow("two Backward() calls in one capture");
    return;
  }
  t_recorder->backward_root_ = root;
}

void NoteBackwardNode(internal::TensorImpl* node) {
  if (t_recorder != nullptr) t_recorder->backward_order_.push_back(node);
}

}  // namespace detail

}  // namespace plan

/// Frozen state of a plan plus the open-capture recorder.
struct StepPlan::Impl {
  // -- capture state --
  std::unique_ptr<plan::Recorder> rec;
  std::vector<Tensor> declared_inputs;
  Tensor loss;
  std::vector<Tensor> outputs;
  bool capture_failed = false;

  // -- frozen state --
  bool ready = false;
  std::vector<plan::Thunk> thunks;
  /// Slot index -> buffer. Pinned slots point at their impl's data (stable:
  /// data vectors are never reassigned while the plan holds the Tensor);
  /// arena slots point into `arena`.
  std::vector<float*> bufs;
  std::vector<Tensor> pinned;
  std::vector<float> arena;
  struct Span {
    float* p;
    int64_t n;
  };
  /// Gradients zeroed at BeginStep (replay equivalent of ZeroGrad plus
  /// fresh zeroed intermediate grads).
  std::vector<Span> grad_zero;
  struct InputBinding {
    float* dst = nullptr;  ///< Null when the input is unused by any op.
    int64_t n = 0;
    std::vector<int> shape;
  };
  std::vector<InputBinding> inputs;
  internal::TensorImpl* loss_impl = nullptr;
  std::vector<internal::TensorImpl*> backward_order;
  bool fused_snapshot = false;
  bool guards_snapshot = false;
  int64_t arena_bytes = 0;
  int64_t pinned_bytes = 0;
  uint64_t pinned_tape = 0;
  /// Thread that ran BeginCapture. Frozen plans are bound to it: replay
  /// thunks and the pinned-tape accounting (t_pinned_tape_nodes) are only
  /// valid there. See StepPlan's class comment and ValidateReplayThread().
  std::thread::id capture_thread;
  std::string tag;  ///< Capture tag, kept for error messages.

  void ReleaseFrozen() {
    if (!ready) return;
    ready = false;
    plan::t_pinned_tape_nodes -= pinned_tape;
    plan::g_arena_bytes.fetch_sub(arena_bytes, std::memory_order_relaxed);
    plan::g_pinned_bytes.fetch_sub(pinned_bytes, std::memory_order_relaxed);
    thunks.clear();
    bufs.clear();
    grad_zero.clear();
    inputs.clear();
    backward_order.clear();
    loss_impl = nullptr;
    // Sever the pinned graph's parent links while every node is still held
    // by `pinned` below — the flat teardown ReleaseTape exists for; without
    // it, clearing the keeps could cascade shared_ptr destruction down the
    // whole step graph recursively.
    loss.ReleaseTape();
    loss = Tensor();
    outputs.clear();
    declared_inputs.clear();
    pinned.clear();
    BufferPool::Global().Release(std::move(arena));
    arena = std::vector<float>();
    arena_bytes = 0;
    pinned_bytes = 0;
    pinned_tape = 0;
  }
};

StepPlan::StepPlan() : impl_(std::make_unique<Impl>()) {}

StepPlan::~StepPlan() { impl_->ReleaseFrozen(); }

void StepPlan::BeginCapture(std::vector<Tensor> inputs, std::string tag) {
  CHECK(!impl_->ready) << "BeginCapture on a frozen plan (Invalidate first)";
  CHECK(impl_->rec == nullptr) << "BeginCapture while already capturing";
  CHECK(plan::t_recorder == nullptr)
      << "nested plan captures on one thread are not supported";
#ifndef NDEBUG
  // The per-step ReleaseTape() convention means nothing but plan-pinned
  // nodes may be alive here; a stale graph would get silently frozen into
  // the plan (and replayed against dead state) otherwise.
  CHECK_EQ(LiveTapeNodesThisThread(), plan::PinnedTapeNodesThisThread())
      << "plan capture '" << tag << "' with a stale autograd tape alive";
#endif
  for (const Tensor& t : inputs) CHECK(t.defined());
  impl_->declared_inputs = std::move(inputs);
  impl_->loss = Tensor();
  impl_->outputs.clear();
  impl_->capture_thread = std::this_thread::get_id();
  impl_->tag = tag;
  impl_->rec = std::make_unique<plan::Recorder>(std::move(tag));
  plan::t_recorder = impl_->rec.get();
}

void StepPlan::SetLoss(const Tensor& loss) {
  CHECK(impl_->rec != nullptr) << "SetLoss outside a capture";
  CHECK(loss.defined());
  impl_->loss = loss;
}

void StepPlan::AddOutput(const Tensor& output) {
  CHECK(impl_->rec != nullptr) << "AddOutput outside a capture";
  CHECK(output.defined());
  impl_->outputs.push_back(output);
}

void StepPlan::AbortCapture() {
  if (impl_->rec == nullptr) return;
  plan::t_recorder = nullptr;
  impl_->rec.reset();
  impl_->declared_inputs.clear();
  impl_->loss = Tensor();
  impl_->outputs.clear();
}

bool StepPlan::EndCapture() {
  CHECK(impl_->rec != nullptr) << "EndCapture without BeginCapture";
  plan::t_recorder = nullptr;
  std::unique_ptr<plan::Recorder> rec = std::move(impl_->rec);

  // Coverage: every op output born during the capture must have been bound
  // by its op via plan::Out. A miss means an uninstrumented op — the frozen
  // thunk list would silently skip its computation.
  if (!rec->poisoned_) {
    for (const Tensor& t : rec->fresh_nodes_) {
      auto it = rec->slot_of_.find(t.impl());
      if (it == rec->slot_of_.end() ||
          !rec->slots_[static_cast<size_t>(it->second)].op_defined) {
        rec->PoisonNow("op output not bound to the plan (uninstrumented op)");
        break;
      }
    }
  }
  if (!rec->poisoned_ && impl_->loss.defined()) {
    if (rec->backward_order_.empty()) {
      rec->PoisonNow("training capture without a Backward()");
    } else if (rec->backward_root_ != impl_->loss.impl()) {
      rec->PoisonNow("Backward() root is not the declared loss");
    }
  }
  if (!rec->poisoned_) {
    for (const Tensor& out : impl_->outputs) {
      if (rec->slot_of_.find(out.impl()) == rec->slot_of_.end()) {
        rec->PoisonNow("declared output was not produced by a recorded op");
        break;
      }
    }
  }
  if (rec->poisoned_) {
    impl_->capture_failed = true;
    impl_->declared_inputs.clear();
    impl_->loss = Tensor();
    impl_->outputs.clear();
    plan::g_poisoned.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // `fresh_nodes_` holds an extra handle on every op output; drop them now
  // so use_count()==1 below really means "only the plan sees this buffer".
  rec->fresh_nodes_.clear();
  rec->fresh_nodes_.shrink_to_fit();

  Impl& f = *impl_;
  const bool training = f.loss.defined();
  const size_t num_slots = rec->slots_.size();
  f.thunks = std::move(rec->thunks_);
  f.bufs.assign(num_slots, nullptr);
  f.backward_order = std::move(rec->backward_order_);
  f.loss_impl = training ? f.loss.impl() : nullptr;

  std::unordered_set<internal::TensorImpl*> output_impls;
  for (const Tensor& out : f.outputs) output_impls.insert(out.impl());
  std::unordered_set<internal::TensorImpl*> input_impls;
  for (const Tensor& in : f.declared_inputs) input_impls.insert(in.impl());

  // Arena placement (inference plans): a pure intermediate — produced by a
  // recorded op, observed by nobody outside the plan, carrying no autograd
  // state — does not need its own buffer. Its slot gets an offset in one
  // shared arena, reused across slots whose [def_op, last_use] intervals
  // don't overlap (best-fit free list, 16-float granularity), and its
  // pooled buffer is returned to the BufferPool right here. Training plans
  // pin everything: the retained backward closures read impl storage.
  std::vector<int> arena_eligible;
  for (size_t i = 0; i < num_slots; ++i) {
    const plan::RecSlot& s = rec->slots_[i];
    internal::TensorImpl* im = s.keep.impl();
    const bool pure = !training && s.op_defined && s.keep.use_count() == 1 &&
                      im->backward == nullptr && im->parents.empty() &&
                      im->grad.empty() && output_impls.count(im) == 0 &&
                      input_impls.count(im) == 0;
    if (pure) arena_eligible.push_back(static_cast<int>(i));
  }
  if (!arena_eligible.empty()) {
    constexpr int64_t kAlign = 16;  // floats; keeps rows SIMD-friendly
    struct Block {
      int64_t off;
      int64_t size;
    };
    std::vector<Block> free_blocks;
    std::vector<int64_t> offset(num_slots, -1);
    std::vector<int64_t> rounded(num_slots, 0);
    int64_t top = 0;
    // Slots sorted by definition point = allocation order; frees happen
    // when the walk passes a slot's last use. Everything here is a pure
    // function of the recorded structure, so layout is deterministic.
    std::vector<int> by_def = arena_eligible;
    std::sort(by_def.begin(), by_def.end(), [&](int a, int b) {
      const auto& sa = rec->slots_[static_cast<size_t>(a)];
      const auto& sb = rec->slots_[static_cast<size_t>(b)];
      return sa.def_op != sb.def_op ? sa.def_op < sb.def_op : a < b;
    });
    std::vector<int> by_end = arena_eligible;
    std::sort(by_end.begin(), by_end.end(), [&](int a, int b) {
      const auto& sa = rec->slots_[static_cast<size_t>(a)];
      const auto& sb = rec->slots_[static_cast<size_t>(b)];
      return sa.last_use != sb.last_use ? sa.last_use < sb.last_use : a < b;
    });
    size_t next_free = 0;
    for (int idx : by_def) {
      const plan::RecSlot& s = rec->slots_[static_cast<size_t>(idx)];
      // Release every block whose slot died before this one is born.
      while (next_free < by_end.size() &&
             rec->slots_[static_cast<size_t>(by_end[next_free])].last_use <
                 s.def_op) {
        int dead = by_end[next_free++];
        free_blocks.push_back(
            Block{offset[static_cast<size_t>(dead)],
                  rounded[static_cast<size_t>(dead)]});
      }
      const int64_t need =
          (s.keep.numel() + kAlign - 1) / kAlign * kAlign;
      rounded[static_cast<size_t>(idx)] = need;
      // Best fit over the free list.
      int best = -1;
      for (size_t b = 0; b < free_blocks.size(); ++b) {
        if (free_blocks[b].size >= need &&
            (best < 0 ||
             free_blocks[b].size < free_blocks[static_cast<size_t>(best)].size))
          best = static_cast<int>(b);
      }
      if (best >= 0) {
        Block blk = free_blocks[static_cast<size_t>(best)];
        free_blocks.erase(free_blocks.begin() + best);
        offset[static_cast<size_t>(idx)] = blk.off;
        if (blk.size > need) {
          free_blocks.push_back(Block{blk.off + need, blk.size - need});
        }
      } else {
        offset[static_cast<size_t>(idx)] = top;
        top += need;
      }
    }
    f.arena = BufferPool::Global().Acquire(top);
    for (int idx : arena_eligible) {
      f.bufs[static_cast<size_t>(idx)] =
          f.arena.data() + offset[static_cast<size_t>(idx)];
    }
    f.arena_bytes = static_cast<int64_t>(f.arena.size() * sizeof(float));
  }

  // Pin everything that isn't arena-bound, cache buffer pointers, and
  // collect the gradient spans BeginStep must zero. Only training plans
  // zero gradients: an inference replay, like the eager no-grad step it
  // records, leaves them alone — and concurrent replays of plans sharing
  // one model's parameters on several threads must not write them.
  for (size_t i = 0; i < num_slots; ++i) {
    if (f.bufs[i] != nullptr) continue;  // arena slot
    plan::RecSlot& s = rec->slots_[i];
    internal::TensorImpl* im = s.keep.impl();
    f.bufs[i] = im->data.data();
    f.pinned_bytes += static_cast<int64_t>(
        (im->data.size() + im->grad.size()) * sizeof(float));
    if (training && !im->grad.empty()) {
      f.grad_zero.push_back(
          Impl::Span{im->grad.data(), static_cast<int64_t>(im->grad.size())});
    }
    if (im->backward) ++f.pinned_tape;
    f.pinned.push_back(std::move(s.keep));
  }

  // Input bindings, in declaration order. An input the step never fed to an
  // op has no slot and nothing to refresh.
  for (const Tensor& in : f.declared_inputs) {
    Impl::InputBinding b;
    b.n = in.numel();
    b.shape = in.shape();
    auto it = rec->slot_of_.find(in.impl());
    if (it != rec->slot_of_.end()) {
      b.dst = f.bufs[static_cast<size_t>(it->second)];
    }
    f.inputs.push_back(std::move(b));
  }

  f.fused_snapshot = FusedKernelsEnabled();
  f.guards_snapshot = GuardsEnabled();
  f.ready = true;
  plan::t_pinned_tape_nodes += f.pinned_tape;
  plan::g_captures.fetch_add(1, std::memory_order_relaxed);
  plan::g_arena_bytes.fetch_add(f.arena_bytes, std::memory_order_relaxed);
  plan::g_pinned_bytes.fetch_add(f.pinned_bytes, std::memory_order_relaxed);
  return true;
}

bool StepPlan::capturing() const { return impl_->rec != nullptr; }

bool StepPlan::ready() const { return impl_->ready; }

bool StepPlan::capture_failed() const { return impl_->capture_failed; }

void StepPlan::Invalidate() {
  if (!impl_->ready) return;
  impl_->ReleaseFrozen();
  plan::g_invalidations.fetch_add(1, std::memory_order_relaxed);
}

Status StepPlan::ValidateReplayThread() const {
  const Impl& f = *impl_;
  if (!f.ready || std::this_thread::get_id() == f.capture_thread) {
    return Status::Ok();
  }
  std::ostringstream os;
  os << "StepPlan '" << f.tag << "' replayed on thread "
     << std::this_thread::get_id() << " but captured on thread "
     << f.capture_thread
     << "; plans are thread-local — replay (and destruction) must happen on "
        "the capture thread";
  return Status::Error(os.str());
}

bool StepPlan::MatchesInputs(const std::vector<Tensor>& inputs) const {
  const Impl& f = *impl_;
  if (!f.ready || !plan::PlansEnabled()) return false;
  if (f.fused_snapshot != FusedKernelsEnabled()) return false;
  if (f.guards_snapshot != GuardsEnabled()) return false;
  if (inputs.size() != f.inputs.size()) return false;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!inputs[i].defined() || inputs[i].shape() != f.inputs[i].shape)
      return false;
  }
  return true;
}

void StepPlan::BeginStep(const std::vector<Tensor>& inputs) {
  Impl& f = *impl_;
  CHECK(f.ready) << "BeginStep on a plan that is not frozen";
#ifndef NDEBUG
  CHECK(ValidateReplayThread().ok()) << ValidateReplayThread().message();
#endif
  CHECK_EQ(inputs.size(), f.inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Impl::InputBinding& b = f.inputs[i];
    CHECK(inputs[i].shape() == b.shape) << "plan input shape changed";
    if (b.dst != nullptr && inputs[i].impl()->data.data() != b.dst) {
      std::memcpy(b.dst, inputs[i].data().data(),
                  static_cast<size_t>(b.n) * sizeof(float));
    }
  }
  for (const Impl::Span& z : f.grad_zero) {
    std::fill(z.p, z.p + z.n, 0.0f);
  }
}

float* StepPlan::input_data(size_t i) {
  Impl& f = *impl_;
  CHECK(f.ready) << "input_data on a plan that is not frozen";
  CHECK_LT(i, f.inputs.size());
  return f.inputs[i].dst;
}

int64_t StepPlan::input_size(size_t i) const {
  const Impl& f = *impl_;
  CHECK(f.ready) << "input_size on a plan that is not frozen";
  CHECK_LT(i, f.inputs.size());
  return f.inputs[i].n;
}

void StepPlan::BeginStepInPlace() {
  Impl& f = *impl_;
  CHECK(f.ready) << "BeginStepInPlace on a plan that is not frozen";
#ifndef NDEBUG
  CHECK(ValidateReplayThread().ok()) << ValidateReplayThread().message();
#endif
  for (const Impl::Span& z : f.grad_zero) {
    std::fill(z.p, z.p + z.n, 0.0f);
  }
}

void StepPlan::RunForward() {
  Impl& f = *impl_;
  CHECK(f.ready);
#ifndef NDEBUG
  CHECK(ValidateReplayThread().ok()) << ValidateReplayThread().message();
#endif
  float* const* bufs = f.bufs.data();
  for (const plan::Thunk& t : f.thunks) t(bufs);
  plan::g_replays.fetch_add(1, std::memory_order_relaxed);
}

float StepPlan::LossValue() const {
  CHECK(impl_->loss_impl != nullptr) << "LossValue on an inference plan";
  return impl_->loss_impl->data[0];
}

void StepPlan::RunBackward() {
  Impl& f = *impl_;
  CHECK(f.ready);
  CHECK(f.loss_impl != nullptr) << "RunBackward on an inference plan";
#ifndef NDEBUG
  CHECK(ValidateReplayThread().ok()) << ValidateReplayThread().message();
#endif
  // Grads were zeroed in BeginStep; seed the root exactly as Backward()
  // does and re-run the captured closures in the recorded order.
  std::fill(f.loss_impl->grad.begin(), f.loss_impl->grad.end(), 1.0f);
  for (internal::TensorImpl* node : f.backward_order) {
    node->backward(*node);
  }
}

const Tensor& StepPlan::output(size_t i) const {
  CHECK_LT(i, impl_->outputs.size());
  return impl_->outputs[i];
}

int64_t StepPlan::arena_bytes() const { return impl_->arena_bytes; }

int64_t StepPlan::pinned_bytes() const { return impl_->pinned_bytes; }

int64_t StepPlan::num_ops() const {
  return static_cast<int64_t>(impl_->thunks.size());
}

}  // namespace autocts
