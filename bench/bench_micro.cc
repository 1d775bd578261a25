// Micro-benchmarks of the substrate (google-benchmark): tensor matmul,
// operator forwards, GIN inference, comparator ranking throughput, and a
// supernet training step. These pin the per-component costs that the
// paper's efficiency claims (Fig. 7, Table 13 TIME column) decompose into.
//
// After the google-benchmark pass, main() runs a small self-timed pass and
// writes BENCH_PR2.json (kernel throughput, buffer-pool hit rate, and
// allocations per training step), BENCH_PR3.json (fused vs op-graph
// ST-block A/B), and BENCH_PR4.json (guardrails armed vs disarmed, with
// the <2% overhead budget), BENCH_PR5.json (step-plan replay vs eager), and
// BENCH_PR6.json (per-backend GEMM throughput and the quantized-vs-fp32
// comparator ranking A/B) for CI to archive. AUTOCTS_BENCH_ITERS sets
// the iteration count (default 5; CI smoke uses 2).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/guard.h"
#include "common/parallel.h"
#include "common/runtime_stats.h"
#include "comparator/comparator.h"
#include "comparator/quant.h"
#include "data/synthetic.h"
#include "model/operators.h"
#include "model/trainer.h"
#include "model/searched_model.h"
#include "nn/optimizer.h"
#include "search/evolutionary.h"
#include "searchspace/parse.h"
#include "supernet/supernet.h"
#include "tensor/backend.h"
#include "tensor/buffer_pool.h"
#include "tensor/fused.h"
#include "tensor/ops.h"
#include "tensor/plan.h"
#include "tensor/tensor.h"

namespace autocts {
namespace {

// Kernel benches take a trailing thread-count argument: a local pool is
// installed for the timed region, so `--benchmark_filter=BM_MatMul` compares
// the serial path (1) against the fan-out path (4) on the same sizes.
void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadPool pool(static_cast<int>(state.range(1)));
  ExecScope scope(ExecContext{&pool, 0});
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_MatMul)->ArgsProduct({{16, 64, 128, 256}, {1, 4}});

void BM_MatMulBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadPool pool(static_cast<int>(state.range(1)));
  ExecScope scope(ExecContext{&pool, 0});
  Rng rng(2);
  Tensor a = Tensor::Randn({n, n}, &rng, 1.0f, true);
  Tensor b = Tensor::Randn({n, n}, &rng, 1.0f, true);
  for (auto _ : state) {
    Tensor loss = SumAll(MatMul(a, b));
    loss.Backward();
    a.ZeroGrad();
    b.ZeroGrad();
  }
}
BENCHMARK(BM_MatMulBackward)->ArgsProduct({{16, 64, 128}, {1, 4}});

void BM_CausalConv(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  ThreadPool pool(static_cast<int>(state.range(1)));
  ExecScope scope(ExecContext{&pool, 0});
  Rng rng(6);
  Tensor x = Tensor::Randn({rows, 64, 8}, &rng);
  Tensor w = Tensor::Randn({3, 8, 16}, &rng);
  Tensor b = Tensor::Randn({16}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CausalConv1d(x, w, b, /*dilation=*/2).data().data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{rows} * 64 * 3 * 8 * 16);
}
BENCHMARK(BM_CausalConv)->ArgsProduct({{8, 32}, {1, 4}});

void BM_CausalConvBackward(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  ThreadPool pool(static_cast<int>(state.range(1)));
  ExecScope scope(ExecContext{&pool, 0});
  Rng rng(8);
  Tensor x = Tensor::Randn({rows, 64, 8}, &rng, 1.0f, true);
  Tensor w = Tensor::Randn({3, 8, 16}, &rng, 1.0f, true);
  Tensor b = Tensor::Randn({16}, &rng, 1.0f, true);
  for (auto _ : state) {
    Tensor loss = SumAll(CausalConv1d(x, w, b, /*dilation=*/2));
    loss.Backward();
    x.ZeroGrad();
    w.ZeroGrad();
    b.ZeroGrad();
  }
}
BENCHMARK(BM_CausalConvBackward)->ArgsProduct({{8, 32}, {1, 4}});

OperatorContext MicroContext(Rng* rng) {
  OperatorContext ctx;
  ctx.num_sensors = 10;
  ctx.hidden_dim = 4;
  std::vector<float> adj(100, 0.2f);
  for (int i = 0; i < 10; ++i) adj[static_cast<size_t>(i) * 10 + i] = 1.0f;
  ctx.adjacency = Tensor::FromVector({10, 10}, std::move(adj));
  ctx.rng = rng;
  return ctx;
}

void BM_OperatorForward(benchmark::State& state) {
  Rng rng(3);
  OperatorContext ctx = MicroContext(&rng);
  auto op = MakeOperator(static_cast<OpType>(state.range(0)), ctx, 1);
  Tensor x = Tensor::Randn({8, 10, 12, 4}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(op->Forward(x).data().data());
  }
}
BENCHMARK(BM_OperatorForward)
    ->Arg(static_cast<int>(OpType::kGdcc))
    ->Arg(static_cast<int>(OpType::kInfT))
    ->Arg(static_cast<int>(OpType::kDgcn))
    ->Arg(static_cast<int>(OpType::kInfS));

void BM_GinBatchForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Rng rng(4);
  GinEncoder::Options opts;
  GinEncoder gin(opts, &rng);
  JointSearchSpace space;
  std::vector<ArchHyperEncoding> encs;
  for (int i = 0; i < batch; ++i) {
    encs.push_back(EncodeArchHyper(space.Sample(&rng)));
  }
  EncodingBatch eb = StackEncodings(encs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gin.Forward(eb).data().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_GinBatchForward)->Arg(16)->Arg(64)->Arg(256);

void BM_ComparatorRankingThroughput(benchmark::State& state) {
  // Pairwise comparisons per second — the quantity that makes K_s=300,000
  // rankings feasible (Table 13's TIME column).
  Rng rng(5);
  Comparator::Options opts;
  opts.task_aware = false;
  Comparator comp(opts, 6);
  JointSearchSpace space;
  std::vector<ArchHyper> pool = space.SampleDistinct(64, &rng);
  EvolutionarySearcher searcher(&comp, &space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        searcher.SparseWinCounts(pool, Tensor(), 4, 64, &rng));
  }
  state.SetItemsProcessed(state.iterations() * 64 * 4);
}
BENCHMARK(BM_ComparatorRankingThroughput);

void BM_ModelTrainStep(benchmark::State& state) {
  ScaleConfig cfg = ScaleConfig::Test();
  ForecastTask task;
  task.data = MakeSyntheticDataset("Los-Loop", cfg).value();
  task.p = 12;
  task.q = 12;
  ForecasterSpec spec = MakeForecasterSpec(task);
  JointSearchSpace space;
  Rng rng(7);
  auto model = BuildSearchedModel(space.Sample(&rng), spec, cfg, 8);
  WindowProvider provider(task);
  Adam adam(model->Parameters(), {});
  WindowBatch batch = provider.SampleTrainBatch(4, &rng);
  for (auto _ : state) {
    adam.ZeroGrad();
    Tensor loss = MaeLoss(model->Forward(batch.x), batch.y);
    loss.Backward();
    adam.Step();
  }
}
BENCHMARK(BM_ModelTrainStep);

void BM_SupernetStep(benchmark::State& state) {
  ScaleConfig cfg = ScaleConfig::Test();
  ForecastTask task;
  task.data = MakeSyntheticDataset("Los-Loop", cfg).value();
  task.p = 12;
  task.q = 12;
  ForecasterSpec spec = MakeForecasterSpec(task);
  SupernetOptions opts;
  opts.num_blocks = 2;
  Supernet net(opts, spec, cfg);
  WindowProvider provider(task);
  Rng rng(9);
  Adam adam(net.WeightParameters(), {});
  WindowBatch batch = provider.SampleTrainBatch(2, &rng);
  for (auto _ : state) {
    adam.ZeroGrad();
    Tensor loss = MaeLoss(net.Forward(batch.x), batch.y);
    loss.Backward();
    adam.Step();
  }
}
BENCHMARK(BM_SupernetStep);

// ---- Self-timed JSON report (BENCH_PR2.json) ------------------------------

/// The MatMul inner kernel this repo shipped before the blocked GEMM
/// (row-major axpy with a zero skip), kept verbatim as the speedup baseline
/// the JSON report measures against.
void PrePrGemmAcc(const float* a, const float* b, float* c, int m, int k,
                  int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<int64_t>(i) * k;
    float* crow = c + static_cast<int64_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<int64_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// Mean wall-clock ns of `fn` over `iters` runs.
template <typename Fn>
double MeanNs(int iters, Fn fn) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         iters;
}

void AppendMatMulRecords(int iters,
                         std::vector<bench::MicroBenchRecord>* records) {
  constexpr int kN = 512;
  const double flop = 2.0 * kN * kN * kN;
  Rng rng(11);
  Tensor a = Tensor::Randn({kN, kN}, &rng);
  Tensor b = Tensor::Randn({kN, kN}, &rng);
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ExecScope scope(ExecContext{&pool, 0});
    double ns = MeanNs(iters, [&] {
      benchmark::DoNotOptimize(MatMul(a, b).data().data());
    });
    bench::MicroBenchRecord rec;
    rec.op = "matmul_blocked_512";
    rec.threads = threads;
    rec.gflops = flop / ns;
    rec.ns_per_iter = ns;
    records->push_back(rec);
  }
  std::vector<float> c(static_cast<size_t>(kN) * kN);
  double ns = MeanNs(iters, [&] {
    std::fill(c.begin(), c.end(), 0.0f);
    PrePrGemmAcc(a.data().data(), b.data().data(), c.data(), kN, kN, kN);
    benchmark::DoNotOptimize(c.data());
  });
  bench::MicroBenchRecord rec;
  rec.op = "matmul_pre_pr_512";
  rec.threads = 1;
  rec.gflops = flop / ns;
  rec.ns_per_iter = ns;
  records->push_back(rec);
}

/// Comparator training steps with buffer-pool counters: one cold step
/// against an empty pool, then a warmed-up timed run. The warm
/// allocs_per_step is the number the pool exists to shrink.
void AppendTrainStepRecords(int iters,
                            std::vector<bench::MicroBenchRecord>* records) {
  Rng rng(13);
  Comparator::Options opts;
  opts.task_aware = false;
  Comparator comp(opts, 6);
  comp.SetTraining(true);
  JointSearchSpace space;
  constexpr int kPairs = 8;
  std::vector<ArchHyperEncoding> first, second;
  for (int i = 0; i < kPairs; ++i) {
    first.push_back(EncodeArchHyper(space.Sample(&rng)));
    second.push_back(EncodeArchHyper(space.Sample(&rng)));
  }
  EncodingBatch b1 = StackEncodings(first);
  EncodingBatch b2 = StackEncodings(second);
  std::vector<float> labels(kPairs);
  for (int i = 0; i < kPairs; ++i) labels[static_cast<size_t>(i)] = i % 2;
  Adam adam(comp.Parameters(), {});
  auto step = [&] {
    adam.ZeroGrad();
    Tensor target = Tensor::FromVector({kPairs}, labels);
    Tensor loss =
        BceLoss(Sigmoid(comp.CompareLogits(b1, b2, Tensor())), target);
    loss.Backward();
    adam.Step();
    loss.ReleaseTape();
  };
  BufferPool& pool = BufferPool::Global();
  pool.Clear();
  pool.ResetStats();
  step();
  bench::MicroBenchRecord cold;
  cold.op = "comparator_train_step_cold";
  cold.allocs_per_step =
      static_cast<double>(ExecContext{}.pool_stats().allocations());
  records->push_back(cold);
  for (int i = 0; i < 3; ++i) step();  // Warm the pool.
  pool.ResetStats();
  const int warm_iters = std::max(iters, 4);
  double ns = MeanNs(warm_iters, step);
  PoolStats stats = ExecContext{}.pool_stats();
  bench::MicroBenchRecord warm;
  warm.op = "comparator_train_step_warm";
  warm.ns_per_iter = ns;
  warm.pool_hit_rate = stats.hit_rate();
  warm.allocs_per_step =
      static_cast<double>(stats.allocations()) / warm_iters;
  records->push_back(warm);
}

// ---- ST-block training step: fused vs op-graph (BENCH_PR3.json) -----------

/// Trains the PR-3 reference ST-block (one operator of each kind on a B4
/// cell) for `iters` steps on a single thread and reports ns/step, tape
/// nodes/step, and buffer-pool round-trips/step. Run once with the fused
/// kernels and once with their op-graph references; the two records are the
/// A/B behind the PR's "fewer tape nodes, fewer passes" claim. Both paths
/// produce bit-identical parameters (tests/fused_ops_test.cc), so the only
/// difference the JSON can show is cost.
void AppendStBlockRecord(int iters, bool fused,
                         std::vector<bench::MicroBenchRecord>* records) {
  bool saved = FusedKernelsEnabled();
  SetFusedKernelsEnabled(fused);
  {
    // Single thread: the acceptance numbers are per-pass work, not fan-out.
    ThreadPool pool(1);
    ExecScope scope(ExecContext{&pool, 0});
    ScaleConfig cfg = ScaleConfig::Test();
    ForecastTask task;
    task.data = MakeSyntheticDataset("Los-Loop", cfg).value();
    task.p = 12;
    task.q = 12;
    ForecasterSpec spec = MakeForecasterSpec(task);
    ArchHyper ah = ParseArchHyper(
                       "B4C5H32I64U1d0|0-1:GDCC,0-2:DGCN,2-3:INF-T,3-4:INF-S")
                       .value();
    Rng rng(17);
    auto model = BuildSearchedModel(ah, spec, cfg, 8);
    model->SetTraining(true);
    WindowProvider provider(task);
    Adam adam(model->Parameters(), {});
    WindowBatch batch = provider.SampleTrainBatch(4, &rng);
    auto step = [&] {
      adam.ZeroGrad();
      Tensor loss = MaeLoss(model->Forward(batch.x), batch.y);
      loss.Backward();
      adam.Step();
      loss.ReleaseTape();
    };
    for (int i = 0; i < 2; ++i) step();  // Warm the pool and code paths.
    BufferPool::Global().ResetStats();
    const uint64_t tape_before = TapeNodesCreated();
    double ns = MeanNs(iters, step);
    const double tape_per_step =
        static_cast<double>(TapeNodesCreated() - tape_before) / iters;
    PoolStats stats = ExecContext{}.pool_stats();
    bench::MicroBenchRecord rec;
    rec.op = fused ? "st_block_train_step_fused" : "st_block_train_step_opgraph";
    rec.threads = 1;
    rec.ns_per_iter = ns;
    rec.pool_hit_rate = stats.hit_rate();
    rec.allocs_per_step = static_cast<double>(stats.allocations()) / iters;
    rec.tape_nodes_per_step = tape_per_step;
    rec.pool_roundtrips_per_step =
        static_cast<double>(stats.hits + stats.misses) / iters;
    records->push_back(rec);
  }
  SetFusedKernelsEnabled(saved);
}

// ---- Guardrail overhead: guards armed vs disarmed (BENCH_PR4.json) --------

/// Times the PR-4 training-step guardrails armed vs disarmed
/// (SetGuardsEnabled), on the same ST-block
/// training step as the PR-3 A/B. The step carries the production guard
/// placements: the trainer's isfinite branch on the loss scalar it reads
/// anyway (model/trainer.cc) and Adam's non-finite-norm skip. With the
/// default clip norm (`clip=true`, the path every pipeline stage runs) the
/// Adam guard rides on the clipping reduction the step computes anyway;
/// with clipping disabled (`clip=false`) it must run the blocked isfinite
/// sweep over every gradient — the worst case.
///
/// The guard cost is far below run-to-run drift of a whole step, so the
/// A/B is paired: each iteration times one disarmed and one armed step
/// back to back on the same model state (order alternating per pair, so
/// neither leg systematically gets the warmer slot) and the overhead is
/// the *median* of the per-pair differences — frequency-scaling phases and
/// scheduler outliers hit both legs of a pair alike and cancel, where
/// separately-timed legs drift apart by more than the budget itself. The
/// derived *_guard_overhead record holds that paired percentage against
/// the PR-4 acceptance budget of <2%.
void AppendGuardrailRecords(int iters, bool clip,
                            std::vector<bench::MicroBenchRecord>* records) {
  const bool saved = GuardsEnabled();
  {
    ThreadPool pool(1);
    ExecScope scope(ExecContext{&pool, 0});
    ScaleConfig cfg = ScaleConfig::Test();
    ForecastTask task;
    task.data = MakeSyntheticDataset("Los-Loop", cfg).value();
    task.p = 12;
    task.q = 12;
    ForecasterSpec spec = MakeForecasterSpec(task);
    ArchHyper ah = ParseArchHyper(
                       "B4C5H32I64U1d0|0-1:GDCC,0-2:DGCN,2-3:INF-T,3-4:INF-S")
                       .value();
    Rng rng(17);
    auto model = BuildSearchedModel(ah, spec, cfg, 8);
    model->SetTraining(true);
    WindowProvider provider(task);
    Adam::Options opts;
    if (!clip) opts.clip_norm = 0.0f;
    Adam adam(model->Parameters(), opts);
    WindowBatch batch = provider.SampleTrainBatch(4, &rng);
    auto step = [&] {
      adam.ZeroGrad();
      Tensor loss = MaeLoss(model->Forward(batch.x), batch.y);
      float observed = loss.item();
      bool diverged = GuardsEnabled() && !std::isfinite(observed);
      benchmark::DoNotOptimize(diverged);
      loss.Backward();
      adam.Step();
      loss.ReleaseTape();
    };
    for (int i = 0; i < 2; ++i) step();  // Warm the pool and code paths.
    auto timed_step = [&](bool armed) {
      SetGuardsEnabled(armed);
      auto t0 = std::chrono::steady_clock::now();
      step();
      auto t1 = std::chrono::steady_clock::now();
      return static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
    };
    std::vector<double> diffs(iters), offs(iters);
    for (int i = 0; i < iters; ++i) {
      double t_off, t_on;
      if (i % 2 == 0) {
        t_off = timed_step(false);
        t_on = timed_step(true);
      } else {
        t_on = timed_step(true);
        t_off = timed_step(false);
      }
      diffs[i] = t_on - t_off;
      offs[i] = t_off;
    }
    auto median = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    const double off = median(offs);
    const double on = off + median(diffs);
    const char* base = clip ? "train_step_clip" : "train_step_noclip";
    bench::MicroBenchRecord rec;
    rec.threads = 1;
    rec.op = std::string(base) + "_guards_on";
    rec.ns_per_iter = on;
    records->push_back(rec);
    rec.op = std::string(base) + "_guards_off";
    rec.ns_per_iter = off;
    records->push_back(rec);
    rec.op = std::string(base) + "_guard_overhead";
    rec.ns_per_iter = on - off;
    rec.overhead_pct = off > 0.0 ? 100.0 * (on - off) / off : 0.0;
    records->push_back(rec);
  }
  SetGuardsEnabled(saved);
}

// ---- Step-plan replay vs eager (BENCH_PR5.json) ---------------------------

/// Wall-clock ns of one `fn()` call.
template <typename Fn>
double OnceNs(Fn fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double MedianOf(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Paired A/B of two step implementations that perform the same math:
/// each repetition times one step of each leg back to back (order
/// alternating, so neither leg systematically gets the warmer slot) and the
/// per-repetition speedup base/fast cancels frequency-scaling drift. Emits
/// <name>_eager, <name>_replay, and <name>_plan_speedup records.
template <typename BaseFn, typename FastFn>
void AppendPairedPlanRecords(const std::string& name, int reps, BaseFn base,
                             FastFn fast, double tape_per_replay,
                             double pool_roundtrips_per_replay,
                             double arena_bytes,
                             std::vector<bench::MicroBenchRecord>* records) {
  std::vector<double> base_ns(static_cast<size_t>(reps));
  std::vector<double> fast_ns(static_cast<size_t>(reps));
  std::vector<double> speedups(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    if (i % 2 == 0) {
      base_ns[static_cast<size_t>(i)] = OnceNs(base);
      fast_ns[static_cast<size_t>(i)] = OnceNs(fast);
    } else {
      fast_ns[static_cast<size_t>(i)] = OnceNs(fast);
      base_ns[static_cast<size_t>(i)] = OnceNs(base);
    }
    speedups[static_cast<size_t>(i)] =
        base_ns[static_cast<size_t>(i)] / fast_ns[static_cast<size_t>(i)];
  }
  bench::MicroBenchRecord rec;
  rec.threads = 1;
  rec.op = name + "_eager";
  rec.ns_per_iter = MedianOf(base_ns);
  rec.ns_min = *std::min_element(base_ns.begin(), base_ns.end());
  rec.ns_max = *std::max_element(base_ns.begin(), base_ns.end());
  records->push_back(rec);
  rec.op = name + "_replay";
  rec.ns_per_iter = MedianOf(fast_ns);
  rec.ns_min = *std::min_element(fast_ns.begin(), fast_ns.end());
  rec.ns_max = *std::max_element(fast_ns.begin(), fast_ns.end());
  rec.tape_nodes_per_step = tape_per_replay;
  rec.pool_roundtrips_per_step = pool_roundtrips_per_replay;
  rec.arena_bytes = arena_bytes;
  records->push_back(rec);
  bench::MicroBenchRecord sp;
  sp.threads = 1;
  sp.op = name + "_plan_speedup";
  sp.ns_per_iter = MedianOf(base_ns) - MedianOf(fast_ns);
  sp.speedup_min = *std::min_element(speedups.begin(), speedups.end());
  sp.speedup_median = MedianOf(speedups);
  sp.speedup_max = *std::max_element(speedups.begin(), speedups.end());
  sp.arena_bytes = arena_bytes;
  records->push_back(sp);
}

/// The PR-5 headline A/B: the PR-3 reference ST-block training step, eager
/// (re-taped every step, the fused baseline) vs replayed from a captured
/// StepPlan. Both paths compute bit-identical parameter updates
/// (tests/plan_test.cc), so interleaving them on one model state is sound
/// and the only difference the JSON can show is cost.
void AppendPlanTrainRecords(int reps,
                            std::vector<bench::MicroBenchRecord>* records) {
  const bool saved = plan::PlansEnabled();
  plan::SetPlansEnabled(true);
  {
    // Single thread: the >=1.3x acceptance bar is per-step work, not fan-out.
    ThreadPool pool(1);
    ExecScope scope(ExecContext{&pool, 0});
    ScaleConfig cfg = ScaleConfig::Test();
    ForecastTask task;
    task.data = MakeSyntheticDataset("Los-Loop", cfg).value();
    task.p = 12;
    task.q = 12;
    ForecasterSpec spec = MakeForecasterSpec(task);
    ArchHyper ah = ParseArchHyper(
                       "B4C5H32I64U1d0|0-1:GDCC,0-2:DGCN,2-3:INF-T,3-4:INF-S")
                       .value();
    Rng rng(17);
    auto model = BuildSearchedModel(ah, spec, cfg, 8);
    model->SetTraining(true);
    WindowProvider provider(task);
    Adam adam(model->Parameters(), {});
    WindowBatch batch = provider.SampleTrainBatch(4, &rng);
    auto eager_step = [&] {
      adam.ZeroGrad();
      Tensor loss = MaeLoss(model->Forward(batch.x), batch.y);
      loss.Backward();
      adam.Step();
      loss.ReleaseTape();
    };
    for (int i = 0; i < 2; ++i) eager_step();  // Warm the pool + code paths.
    StepPlan plan;
    std::vector<Tensor> step_inputs = {batch.x, batch.y};
    plan.BeginCapture(step_inputs, "bench_train_step");
    adam.ZeroGrad();
    Tensor loss = MaeLoss(model->Forward(batch.x), batch.y);
    loss.Backward();
    adam.Step();
    plan.SetLoss(loss);
    if (!plan.EndCapture()) {
      // Poisoned capture: leave BENCH_PR5.json without the speedup record so
      // the CI floor check fails loudly instead of comparing eager to eager.
      loss.ReleaseTape();
      plan::SetPlansEnabled(saved);
      return;
    }
    auto replay_step = [&] {
      plan.BeginStep(step_inputs);
      plan.RunForward();
      plan.RunBackward();
      adam.Step();
    };
    replay_step();  // Warm the replay path too.
    // Tape/pool counters over a separate untimed replay run: replay must
    // tape ~0 nodes and take ~0 pool round-trips per step.
    BufferPool::Global().ResetStats();
    const uint64_t tape_before = TapeNodesCreated();
    for (int i = 0; i < reps; ++i) replay_step();
    const double tape_per_replay =
        static_cast<double>(TapeNodesCreated() - tape_before) / reps;
    PoolStats stats = ExecContext{}.pool_stats();
    const double roundtrips =
        static_cast<double>(stats.hits + stats.misses) / reps;
    AppendPairedPlanRecords(
        "st_block_train_step", reps, eager_step, replay_step, tape_per_replay,
        roundtrips,
        static_cast<double>(plan.arena_bytes() + plan.pinned_bytes()),
        records);
  }
  plan::SetPlansEnabled(saved);
}

/// Comparator-inference A/B: an eval-mode CompareLogits batch (the
/// evolutionary ranking hot path) eager vs replayed from an inference plan.
/// Inference plans are captured under NoGradScope, so pure intermediates
/// live in one liveness-packed bump arena — arena_bytes is nonzero here.
void AppendPlanInferRecords(int reps,
                            std::vector<bench::MicroBenchRecord>* records) {
  const bool saved = plan::PlansEnabled();
  plan::SetPlansEnabled(true);
  {
    ThreadPool pool(1);
    ExecScope scope(ExecContext{&pool, 0});
    Rng rng(19);
    Comparator::Options opts;
    opts.task_aware = false;
    Comparator comp(opts, 6);
    comp.SetTraining(false);
    JointSearchSpace space;
    constexpr int kPairs = 64;
    std::vector<ArchHyperEncoding> first, second;
    for (int i = 0; i < kPairs; ++i) {
      first.push_back(EncodeArchHyper(space.Sample(&rng)));
      second.push_back(EncodeArchHyper(space.Sample(&rng)));
    }
    EncodingBatch b1 = StackEncodings(first);
    EncodingBatch b2 = StackEncodings(second);
    NoGradScope no_grad;
    auto eager_infer = [&] {
      benchmark::DoNotOptimize(
          comp.CompareLogits(b1, b2, Tensor()).data().data());
    };
    for (int i = 0; i < 2; ++i) eager_infer();
    StepPlan plan;
    std::vector<Tensor> inputs = {b1.adjacency, b1.op_onehot, b1.hyper,
                                  b2.adjacency, b2.op_onehot, b2.hyper};
    plan.BeginCapture(inputs, "bench_compare_logits");
    Tensor logits = comp.CompareLogits(b1, b2, Tensor());
    plan.AddOutput(logits);
    if (!plan.EndCapture()) {
      plan::SetPlansEnabled(saved);
      return;
    }
    auto replay_infer = [&] {
      plan.BeginStep(inputs);
      plan.RunForward();
      benchmark::DoNotOptimize(plan.output(0).data().data());
    };
    replay_infer();
    BufferPool::Global().ResetStats();
    const uint64_t tape_before = TapeNodesCreated();
    for (int i = 0; i < reps; ++i) replay_infer();
    const double tape_per_replay =
        static_cast<double>(TapeNodesCreated() - tape_before) / reps;
    PoolStats stats = ExecContext{}.pool_stats();
    const double roundtrips =
        static_cast<double>(stats.hits + stats.misses) / reps;
    AppendPairedPlanRecords("compare_logits_b64", reps, eager_infer,
                            replay_infer, tape_per_replay, roundtrips,
                            static_cast<double>(plan.arena_bytes()), records);
  }
  plan::SetPlansEnabled(saved);
}

// ---- Backend dispatch & quantized comparator (BENCH_PR6.json) -------------

/// Per-backend blocked-GEMM throughput: the same 512^3 MatMul as the PR-2
/// record, once per compiled-in, CPU-supported kernel backend. Every
/// backend produces bit-identical output (tests/backend_test.cc), so the
/// only difference the JSON can show is GFLOP/s.
void AppendBackendMatMulRecords(int iters,
                                std::vector<bench::MicroBenchRecord>* records) {
  constexpr int kN = 512;
  const double flop = 2.0 * kN * kN * kN;
  Rng rng(23);
  Tensor a = Tensor::Randn({kN, kN}, &rng);
  Tensor b = Tensor::Randn({kN, kN}, &rng);
  const std::string original = kernels::ActiveBackend().name;
  for (const kernels::Backend* backend : kernels::AvailableBackends()) {
    if (!kernels::SetActiveBackend(backend->name)) continue;
    for (int threads : {1, 4}) {
      ThreadPool pool(threads);
      ExecScope scope(ExecContext{&pool, 0});
      double ns = MeanNs(iters, [&] {
        benchmark::DoNotOptimize(MatMul(a, b).data().data());
      });
      bench::MicroBenchRecord rec;
      rec.op = "matmul_blocked_512_backend";
      rec.backend = backend->name;
      rec.threads = threads;
      rec.gflops = flop / ns;
      rec.ns_per_iter = ns;
      records->push_back(rec);
    }
  }
  kernels::SetActiveBackend(original);
}

/// Trains the comparator to rank a synthetic total order, so the quantized
/// A/B below measures rank agreement on learned logit margins — the regime
/// zero-shot ranking actually runs in (a random-init comparator emits
/// near-zero logits whose signs are numerical noise; see
/// tests/comparator_quant_test.cc for the same setup).
void TrainComparatorOnSyntheticOrder(Comparator* comp, int steps,
                                     uint64_t seed) {
  Rng rng(seed);
  JointSearchSpace space;
  constexpr int kPool = 24;
  constexpr int kBatch = 16;
  std::vector<ArchHyperEncoding> encs;
  std::vector<float> score;
  for (int i = 0; i < kPool; ++i) {
    encs.push_back(EncodeArchHyper(space.Sample(&rng)));
    score.push_back(rng.Normal(0.0f, 1.0f));
  }
  comp->SetTraining(true);
  Adam adam(comp->Parameters(), {});
  for (int s = 0; s < steps; ++s) {
    std::vector<ArchHyperEncoding> first, second;
    std::vector<float> target;
    for (int bi = 0; bi < kBatch; ++bi) {
      const int i = rng.Int(0, kPool - 1);
      int j = rng.Int(0, kPool - 2);
      if (j >= i) ++j;
      first.push_back(encs[static_cast<size_t>(i)]);
      second.push_back(encs[static_cast<size_t>(j)]);
      target.push_back(score[static_cast<size_t>(i)] >=
                               score[static_cast<size_t>(j)]
                           ? 1.0f
                           : 0.0f);
    }
    adam.ZeroGrad();
    Tensor loss = BceLoss(
        Sigmoid(comp->CompareLogits(StackEncodings(first),
                                    StackEncodings(second), Tensor())),
        Tensor::FromVector({kBatch}, std::move(target)));
    loss.Backward();
    adam.Step();
    loss.ReleaseTape();
  }
  comp->SetTraining(false);
}

/// Quantized-vs-fp32 comparator ranking A/B: an eval-mode 64-pair
/// CompareLogits batch through the fp32 tensor path vs the off-tape
/// bf16 path (comparator/quant.h), paired per repetition so
/// frequency-scaling drift cancels. Each quantized record carries the
/// active kernel backend and the pairwise rank agreement vs fp32 over the
/// measured batch. CI gates on speedup_median >= 1.2 when the backend is
/// AVX2-class; the >= 0.99 agreement bar is enforced by
/// tests/comparator_quant_test.cc (the batch here pairs unseen candidates,
/// so the archived agreement is informational).
void AppendQuantCompareRecords(int reps,
                               std::vector<bench::MicroBenchRecord>* records) {
  ThreadPool pool(1);
  ExecScope scope(ExecContext{&pool, 0});
  Rng rng(29);
  Comparator::Options opts;
  opts.task_aware = false;
  Comparator comp(opts, 6);
  TrainComparatorOnSyntheticOrder(&comp, /*steps=*/60, /*seed=*/31);
  JointSearchSpace space;
  constexpr int kPairs = 64;
  std::vector<ArchHyperEncoding> first, second;
  for (int i = 0; i < kPairs; ++i) {
    first.push_back(EncodeArchHyper(space.Sample(&rng)));
    second.push_back(EncodeArchHyper(space.Sample(&rng)));
  }
  EncodingBatch b1 = StackEncodings(first);
  EncodingBatch b2 = StackEncodings(second);
  NoGradScope no_grad;
  std::vector<float> fp32_logits(comp.CompareLogits(b1, b2, Tensor()).data());
  auto fp32_leg = [&] {
    benchmark::DoNotOptimize(
        comp.CompareLogits(b1, b2, Tensor()).data().data());
  };
  for (int i = 0; i < 2; ++i) fp32_leg();
  const std::string backend = kernels::ActiveBackend().name;
  const ComparatorPrecision precision = ComparatorPrecision::kBf16;
  const char* tag = ComparatorPrecisionName(precision);
  QuantizedComparator quant(comp, precision);
  std::vector<float> quant_logits = quant.CompareLogits(b1, b2, Tensor());
  int agree = 0;
  for (int i = 0; i < kPairs; ++i) {
    agree += (fp32_logits[static_cast<size_t>(i)] >= 0.0f) ==
                     (quant_logits[static_cast<size_t>(i)] >= 0.0f)
                 ? 1
                 : 0;
  }
  const double agreement = static_cast<double>(agree) / kPairs;
  auto quant_leg = [&] {
    benchmark::DoNotOptimize(quant.CompareLogits(b1, b2, Tensor()).data());
  };
  for (int i = 0; i < 2; ++i) quant_leg();
  std::vector<double> fp32_ns(static_cast<size_t>(reps));
  std::vector<double> quant_ns(static_cast<size_t>(reps));
  std::vector<double> speedups(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    if (i % 2 == 0) {
      fp32_ns[static_cast<size_t>(i)] = OnceNs(fp32_leg);
      quant_ns[static_cast<size_t>(i)] = OnceNs(quant_leg);
    } else {
      quant_ns[static_cast<size_t>(i)] = OnceNs(quant_leg);
      fp32_ns[static_cast<size_t>(i)] = OnceNs(fp32_leg);
    }
    speedups[static_cast<size_t>(i)] =
        fp32_ns[static_cast<size_t>(i)] / quant_ns[static_cast<size_t>(i)];
  }
  bench::MicroBenchRecord rec;
  rec.threads = 1;
  rec.backend = backend;
  rec.op = std::string("compare_logits_b64_fp32_vs_") + tag;
  rec.ns_per_iter = MedianOf(fp32_ns);
  records->push_back(rec);
  rec.op = std::string("compare_logits_b64_") + tag;
  rec.ns_per_iter = MedianOf(quant_ns);
  rec.rank_agreement = agreement;
  records->push_back(rec);
  bench::MicroBenchRecord sp;
  sp.threads = 1;
  sp.backend = backend;
  sp.op = std::string("compare_logits_b64_") + tag + "_quant_speedup";
  sp.ns_per_iter = MedianOf(fp32_ns) - MedianOf(quant_ns);
  sp.speedup_min = *std::min_element(speedups.begin(), speedups.end());
  sp.speedup_median = MedianOf(speedups);
  sp.speedup_max = *std::max_element(speedups.begin(), speedups.end());
  sp.rank_agreement = agreement;
  records->push_back(sp);
}

}  // namespace

void WriteMicroReport() {
  int iters = 5;
  if (const char* env = std::getenv("AUTOCTS_BENCH_ITERS")) {
    iters = std::max(1, std::atoi(env));
  }
  std::vector<bench::MicroBenchRecord> records;
  AppendMatMulRecords(iters, &records);
  AppendTrainStepRecords(iters, &records);
  bench::WriteBenchJson("BENCH_PR2.json", records);
  std::vector<bench::MicroBenchRecord> st_records;
  AppendStBlockRecord(iters, /*fused=*/true, &st_records);
  AppendStBlockRecord(iters, /*fused=*/false, &st_records);
  bench::WriteBenchJson("BENCH_PR3.json", st_records);
  // The guardrail A/B resolves a sub-percent difference, so it gets a floor
  // of 20 paired iterations even under the CI smoke setting.
  std::vector<bench::MicroBenchRecord> guard_records;
  AppendGuardrailRecords(std::max(iters, 20), /*clip=*/true, &guard_records);
  AppendGuardrailRecords(std::max(iters, 20), /*clip=*/false, &guard_records);
  bench::WriteBenchJson("BENCH_PR4.json", guard_records);
  // Plan-vs-eager A/B: paired medians need a floor of 5 repetitions even
  // under the CI smoke setting.
  std::vector<bench::MicroBenchRecord> plan_records;
  AppendPlanTrainRecords(std::max(iters, 5), &plan_records);
  AppendPlanInferRecords(std::max(iters, 5), &plan_records);
  bench::WriteBenchJson("BENCH_PR5.json", plan_records);
  // Backend dispatch + quantized comparator A/B: the paired speedup needs a
  // floor of 5 repetitions even under the CI smoke setting.
  std::vector<bench::MicroBenchRecord> backend_records;
  AppendBackendMatMulRecords(iters, &backend_records);
  AppendQuantCompareRecords(std::max(iters, 5), &backend_records);
  bench::WriteBenchJson("BENCH_PR6.json", backend_records);
  // One RuntimeStats snapshot at the end of the run, through the same
  // serializer as the reports — the per-backend kernel counters confirm
  // which dispatch paths the benches above actually exercised.
  std::cout << "[bench] runtime stats: " << RuntimeStats::Snapshot().ToJson()
            << "\n";
}

}  // namespace autocts

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  autocts::WriteMicroReport();
  return 0;
}
