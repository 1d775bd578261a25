// Regenerates Tables 9–12: ablation studies of the zero-shot framework.
//
// Variants (paper §4.2.3):
//   AutoCTS++            — the full framework.
//   w/o TS2Vec           — preliminary task embeddings from a plain MLP.
//   w/o Set-Transformer  — mean pooling instead of the two-stage PMA.
//   w/o shared samples   — pre-training on per-task random samples only.
//
// Each variant pre-trains its own T-AHC (cached across runs under a
// distinct checkpoint tag) and then zero-shot searches on every target
// dataset under all four forecasting settings: P-12/Q-12 (Table 9),
// P-24/Q-24 (Table 10), P-48/Q-48 (Table 11), P-168/Q-1 3rd (Table 12).
//
// PR 6 adds a comparator-precision ablation: pairwise rank agreement of
// the quantized bf16 CompareLogits path vs fp32, measured on the full
// variant's pre-trained T-AHC with a real task embedding (the regime the
// ≥99% acceptance bar is defined in).
#include <algorithm>
#include <iostream>
#include <map>
#include <numeric>

#include "bench/harness.h"
#include "common/table.h"
#include "comparator/quant.h"
#include "tensor/ops.h"

namespace autocts {
namespace bench {
namespace {

struct Variant {
  std::string name;
  std::string tag;
};

AutoCtsOptions VariantOptions(const BenchEnv& env, const std::string& name) {
  AutoCtsOptions opts = env.autocts;
  // Ablations use a leaner search and a leaner label-collection diet so
  // the 4 variants × 4 settings × 7 datasets sweep stays in CPU-minutes.
  opts.search.ranking_pool = std::max(50, opts.search.ranking_pool / 2);
  opts.search.top_k = 1;
  opts.collect.train.batches_per_epoch = 6;
  if (name == "w/o TS2Vec") {
    opts.use_mlp_encoder = true;
  } else if (name == "w/o Set-Transformer") {
    opts.comparator.mean_pool_tasks = true;
  } else if (name == "w/o shared samples") {
    opts.collect.random_count += opts.collect.shared_count;
    opts.collect.shared_count = 0;
    opts.pretrain.initial_random_fraction = 1.0f;  // No curriculum anchor.
  }
  return opts;
}

/// Rank agreement of quantized comparator inference vs fp32, on the full
/// framework's pre-trained comparator: every ordered pair over `count`
/// sampled candidates, scored through the fp32 tensor path and through
/// QuantizedComparator at each reduced precision. Reports the fraction of
/// agreeing pairwise verdicts and whether the top win-count candidate
/// matches — the quantities that decide whether AUTOCTS_COMPARATOR_PRECISION
/// is safe to flip during zero-shot search.
void PrecisionAblation(AutoCtsPlusPlus* framework, const BenchEnv& env) {
  Comparator* comp = framework->comparator();
  comp->SetTraining(false);
  const bool task_aware = comp->options().task_aware;
  Tensor task_vec;
  if (task_aware) {
    ForecastTask task = MakeTargetTask("PEMS-BAY", 12, 12, false, env.scale);
    task_vec = Reshape(framework->EmbedTask(task), {1, comp->options().f2});
  }
  Rng rng(41);
  constexpr int kCount = 20;
  std::vector<ArchHyperEncoding> encs;
  for (int i = 0; i < kCount; ++i) {
    encs.push_back(EncodeArchHyper(framework->space().Sample(&rng)));
  }

  std::cout << "\n=== Comparator-precision ablation (quantized inference) "
               "===\n";
  TextTable table({"Precision", "Pairs", "Rank agreement", "Top-1 match"});
  NoGradScope no_grad;
  const ComparatorPrecision precision = ComparatorPrecision::kBf16;
  QuantizedComparator quant(*comp, precision);
  int agree = 0, total = 0;
  std::vector<int> wins_fp32(kCount, 0), wins_quant(kCount, 0);
  for (int i = 0; i < kCount; ++i) {
    std::vector<ArchHyperEncoding> first, second;
    for (int j = 0; j < kCount; ++j) {
      if (j == i) continue;
      first.push_back(encs[static_cast<size_t>(i)]);
      second.push_back(encs[static_cast<size_t>(j)]);
    }
    const int m = static_cast<int>(first.size());
    EncodingBatch b1 = StackEncodings(first);
    EncodingBatch b2 = StackEncodings(second);
    Tensor te;
    if (task_aware) {
      std::vector<Tensor> rows(static_cast<size_t>(m), task_vec);
      te = Concat(rows, 0);
    }
    Tensor ref = comp->CompareLogits(b1, b2, te);
    std::vector<float> got = quant.CompareLogits(b1, b2, te);
    for (int r = 0; r < m; ++r) {
      const bool ref_win = ref.at(r) >= 0.0f;
      const bool got_win = got[static_cast<size_t>(r)] >= 0.0f;
      agree += ref_win == got_win ? 1 : 0;
      ++total;
      if (ref_win) ++wins_fp32[static_cast<size_t>(i)];
      if (got_win) ++wins_quant[static_cast<size_t>(i)];
    }
  }
  auto top1 = [](const std::vector<int>& wins) {
    return static_cast<int>(std::distance(
        wins.begin(), std::max_element(wins.begin(), wins.end())));
  };
  table.AddRow({ComparatorPrecisionName(precision), std::to_string(total),
                TextTable::Num(static_cast<double>(agree) / total, 4),
                top1(wins_fp32) == top1(wins_quant) ? "yes" : "NO"});
  std::cout << table.ToString()
            << "(acceptance: agreement >= 0.99 with identical top-K; "
               "enforced per-seed by tests/comparator_quant_test.cc)\n";
}

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  std::vector<Variant> variants = {
      {"AutoCTS++", "ablation_full"},
      {"w/o TS2Vec", "ablation_no_ts2vec"},
      {"w/o Set-Transformer", "ablation_no_settrans"},
      {"w/o shared samples", "ablation_no_shared"},
  };
  std::map<std::string, std::unique_ptr<AutoCtsPlusPlus>> frameworks;
  BenchEnv lean_env = env;
  lean_env.scale.num_source_tasks = std::max(4, env.scale.num_source_tasks * 3 / 4);
  for (const Variant& v : variants) {
    std::cout << "-- pre-training variant: " << v.name << "\n";
    frameworks[v.name] =
        PretrainedFramework(lean_env, VariantOptions(env, v.name), v.tag);
  }
  PrecisionAblation(frameworks["AutoCTS++"].get(), env);

  struct Setting {
    const char* table;
    int p, q;
    bool single;
  };
  const Setting settings[] = {{"Table 9", 12, 12, false},
                              {"Table 10", 24, 24, false},
                              {"Table 11", 48, 48, false},
                              {"Table 12", 168, 3, true}};
  uint64_t seed = 5000;
  for (const Setting& s : settings) {
    std::cout << "\n=== " << s.table << " — ablation, P-" << s.p << "/Q-"
              << (s.single ? "1 (3rd)" : std::to_string(s.q)) << " ===\n";
    std::vector<std::string> metrics =
        s.single ? std::vector<std::string>{"RRSE", "CORR"}
                 : std::vector<std::string>{"MAE", "RMSE", "MAPE"};
    std::vector<std::string> header = {"Dataset", "Metric"};
    for (const Variant& v : variants) header.push_back(v.name);
    TextTable table(header);
    for (const ForecastTask& task :
         MakeTargetTasks(s.p, s.q, s.single, env.scale)) {
      std::cerr << "[ablation] " << task.name() << "\n";
      std::map<std::string, EvalResult> results;
      // One seed per task, shared by all variants: final-model training
      // noise would otherwise swamp the comparator-quality differences the
      // ablation is meant to expose.
      seed += 7;
      for (const Variant& v : variants) {
        BenchEnv variant_env = env;
        variant_env.autocts = VariantOptions(env, v.name);
        results[v.name] = EvaluateAutoCtsPlusPlus(
            frameworks[v.name].get(), task, variant_env, seed);
      }
      for (const std::string& metric : metrics) {
        std::vector<std::string> row = {task.data->name(), metric};
        int precision = s.single ? 4 : 3;
        for (const Variant& v : variants) {
          const EvalResult& r = results[v.name];
          double value = metric == "MAE"    ? r.mae.mean
                         : metric == "RMSE" ? r.rmse.mean
                         : metric == "MAPE" ? r.mape.mean
                         : metric == "RRSE" ? r.rrse.mean
                                            : r.corr.mean;
          row.push_back(TextTable::Num(value, precision));
        }
        table.AddRow(row);
      }
    }
    std::cout << table.ToString();
  }
  std::cout << "\n(paper shape: the full framework wins most cells; "
               "w/o Set-Transformer is usually the worst variant)\n";
}

}  // namespace
}  // namespace bench
}  // namespace autocts

int main() {
  autocts::bench::Run();
  return 0;
}
