#include "core/autocts.h"

#include <sstream>

#include <cstdlib>
#include <filesystem>

#include "common/clock.h"
#include "common/fault.h"
#include "data/synthetic.h"
#include "model/searched_model.h"
#include "shard/shard.h"

namespace autocts {
namespace {

/// Fingerprint of everything a Pretrain() run's results depend on: the
/// options that shape RNG consumption or sample labeling, and the task
/// identities. Deliberately excludes num_threads and num_shard_workers
/// (results are invariant to thread and worker-process count, so a
/// checkpoint written at -j1 must resume at 4 shard workers and vice versa)
/// and purely cosmetic knobs.
uint64_t PretrainConfigHash(const AutoCtsOptions& o,
                            const std::vector<ForecastTask>& tasks) {
  std::ostringstream key;
  key << o.seed << '|' << o.use_mlp_encoder << '|' << o.ts2vec.repr_dim << ','
      << o.ts2vec.hidden << '|' << o.ts2vec_pretrain.epochs << ','
      << o.ts2vec_pretrain.batches_per_epoch << ','
      << o.ts2vec_pretrain.batch_size << ','
      << o.ts2vec_pretrain.crop_len << '|' << o.comparator.repr_dim
      << ',' << o.comparator.f1 << ',' << o.comparator.f2 << ','
      << o.comparator.task_aware << '|' << o.collect.seed << ','
      << o.collect.shared_count << ',' << o.collect.random_count << ','
      << o.collect.early_validation_epochs << ',' << o.collect.windows_per_task
      << ',' << o.collect.train.epochs << ',' << o.collect.train.batch_size
      << ',' << o.collect.train.batches_per_epoch << ','
      << o.collect.train.lr << ',' << o.collect.train.seed << '|'
      << o.pretrain.seed << ',' << o.pretrain.epochs << ','
      << o.pretrain.batch_size << ',' << o.pretrain.lr << '|'
      << o.scale.hidden_divisor << ',' << o.scale.batch_size;
  for (const ForecastTask& t : tasks) {
    key << '|' << t.name() << ':' << t.p << ':' << t.q << ':'
        << t.data->num_series() << ':' << t.data->num_steps();
  }
  const std::string bytes = key.str();
  uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

/// mt19937_64 text round-trip is exact, so a restored stream continues
/// with precisely the draws the interrupted run would have made.
std::string SerializeRngState(Rng* rng) {
  std::ostringstream os;
  os << rng->engine();
  return os.str();
}

Status RestoreRngState(const std::string& state, Rng* rng) {
  std::istringstream is(state);
  is >> rng->engine();
  if (is.fail()) {
    return Status::Error("checkpoint holds an unreadable RNG state");
  }
  return Status::Ok();
}

/// Recomputes PretrainReport's ranking-accuracy summary from a restored
/// bank + comparator (the per-epoch losses of the original run are not
/// checkpointed — only results the rest of the pipeline depends on are).
double BankPairwiseAccuracy(const Comparator& comparator,
                            const std::vector<TaskSampleSet>& data) {
  double correct = 0.0;
  int total = 0;
  for (const TaskSampleSet& set : data) {
    double acc = PairwiseAccuracy(comparator, set);
    int n = 0;
    for (const LabeledSample& s : set.samples) {
      if (s.usable()) ++n;
    }
    int pairs_n = n * (n - 1);
    correct += acc * pairs_n;
    total += pairs_n;
  }
  return total > 0 ? correct / total : 0.0;
}

}  // namespace

AutoCtsOptions AutoCtsOptions::ForScale(const ScaleConfig& scale) {
  AutoCtsOptions o;
  o.scale = scale;
  o.ts2vec.repr_dim = 8;
  o.ts2vec.hidden = 8;
  o.comparator.repr_dim = o.ts2vec.repr_dim;
  o.comparator.gin.embed_dim = 16;
  o.comparator.f1 = 16;
  o.comparator.f2 = 8;
  o.collect.shared_count = scale.samples_per_task;
  o.collect.random_count = scale.samples_per_task;
  o.collect.early_validation_epochs = scale.early_validation_epochs;
  o.collect.windows_per_task = scale.windows_per_task;
  o.collect.train.batch_size = scale.batch_size;
  o.search.ranking_pool = scale.ranking_pool;
  o.search.population = scale.population;
  o.search.top_k = scale.top_k;
  o.pretrain.epochs = 16;
  o.final_train.epochs = scale.train_epochs;
  o.final_train.batch_size = scale.batch_size;
  o.final_train.max_eval_windows = 48;
  return o;
}

AutoCtsPlusPlus::AutoCtsPlusPlus(const AutoCtsOptions& options)
    : options_(options),
      pool_(std::make_unique<ThreadPool>(options.num_threads)),
      rng_(options.seed) {
  CHECK_EQ(options_.comparator.repr_dim, options_.ts2vec.repr_dim)
      << "comparator must consume the encoder's representation size";
  if (options_.use_mlp_encoder) {
    encoder_ = std::make_unique<MlpEncoder>(1, options_.ts2vec.repr_dim,
                                            &rng_);
  } else {
    encoder_ = std::make_unique<Ts2Vec>(1, options_.ts2vec, &rng_);
  }
  comparator_ =
      std::make_unique<Comparator>(options_.comparator, rng_.Fork());
}

PretrainReport AutoCtsPlusPlus::Pretrain(
    const std::vector<ForecastTask>& source_tasks) {
  StatusOr<PretrainReport> report = TryPretrain(source_tasks);
  CHECK(report.ok()) << report.status().message();
  return std::move(report).value();
}

StatusOr<PretrainReport> AutoCtsPlusPlus::TryPretrain(
    const std::vector<ForecastTask>& source_tasks) {
  CHECK(!source_tasks.empty());
  ExecContext ctx = exec_context();
  ExecScope scope(ctx);
  std::unique_ptr<PipelineCheckpoint> ckpt;
  if (!options_.checkpoint.dir.empty()) {
    ckpt = std::make_unique<PipelineCheckpoint>(
        options_.checkpoint.dir,
        PretrainConfigHash(options_, source_tasks));
    if (options_.checkpoint.resume) {
      Status s = ckpt->Load();
      if (!s.ok()) return s;
    }
  }

  // Stage 1: contrastive pre-training of TS2Vec on the source corpora
  // (skipped for the MLP ablation encoder, which is trained implicitly by
  // virtue of being random-projection features — as in the paper's
  // ablation, it simply lacks the semantic pre-training).
  MaybeInjectKill(FaultPoint::kKillBeforeStage, kStageEncoder);
  if (ckpt != nullptr && ckpt->stage_done() >= kStageEncoder) {
    // The encoder's parameters round-trip as raw float bytes and the RNG
    // stream continues from its serialized state, so everything downstream
    // sees exactly what the interrupted run produced.
    if (auto* ts2vec = dynamic_cast<Ts2Vec*>(encoder_.get())) {
      (void)ts2vec;
      Status s = LoadParameters(encoder_.get(), ckpt->EncoderPath());
      if (!s.ok()) return s;
    }
    Status s = RestoreRngState(ckpt->rng_state(), &rng_);
    if (!s.ok()) return s;
  } else {
    if (auto* ts2vec = dynamic_cast<Ts2Vec*>(encoder_.get())) {
      std::vector<CtsDatasetPtr> corpora;
      for (const ForecastTask& t : source_tasks) corpora.push_back(t.data);
      PretrainTs2Vec(ts2vec, corpora, options_.ts2vec_pretrain, &rng_);
      if (ckpt != nullptr) {
        Status s = SaveParameters(*encoder_, ckpt->EncoderPath());
        ckpt->NoteArtifactWrite(s);
        // Committing the stage without its parameter file would make the
        // manifest lie; degrade to "stage not persisted" instead.
        if (s.ok()) ckpt->CommitStage(kStageEncoder, SerializeRngState(&rng_));
      }
    } else if (ckpt != nullptr) {
      // MLP ablation: no training, but the RNG snapshot still marks the
      // stage boundary so later stages resume uniformly.
      ckpt->CommitStage(kStageEncoder, SerializeRngState(&rng_));
    }
  }

  // Stage 2: label collection (Alg. 1 lines 1–7). The checkpoint hook
  // restores already-labeled samples and persists each new fate; the
  // serial draw pass is recomputed every run (cheap and deterministic), so
  // only fates need storing.
  MaybeInjectKill(FaultPoint::kKillBeforeStage, kStageSamples);
  if (options_.num_shard_workers > 1) {
    // Sharded collection: fork worker processes and coordinate them over
    // sockets (DESIGN.md "Sharded pretraining"). Bit-identical to the
    // in-process path below — the branch is a throughput choice, not a
    // semantic one — so it shares the checkpoint hook and config hash.
    ShardOptions shard;
    shard.num_workers = options_.num_shard_workers;
    shard.worker_threads = options_.num_threads;
    shard.config_hash = PretrainConfigHash(options_, source_tasks);
    const bool scratch = options_.checkpoint.dir.empty();
    if (scratch) {
      // No checkpoint dir to anchor shard banks in: use a throwaway scratch
      // directory (nothing to resume from without a checkpoint anyway).
      std::string tmpl = (std::filesystem::temp_directory_path() /
                          "autocts-shards-XXXXXX")
                             .string();
      if (::mkdtemp(tmpl.data()) == nullptr) {
        return Status::Error("cannot create shard scratch directory");
      }
      shard.dir = tmpl;
    } else {
      shard.dir = options_.checkpoint.dir + "/shards";
    }
    StatusOr<std::vector<TaskSampleSet>> sets =
        ShardedCollectSamples(source_tasks, space_, *encoder_, options_.scale,
                              options_.collect, shard, ctx, ckpt.get());
    if (scratch) {
      std::error_code ec;
      std::filesystem::remove_all(shard.dir, ec);
    }
    if (!sets.ok()) return sets.status();
    collected_ = std::move(sets).value();
  } else {
    collected_ = CollectSamples(source_tasks, space_, *encoder_,
                                options_.scale, options_.collect, ctx,
                                ckpt.get());
  }
  if (ckpt != nullptr && ckpt->stage_done() < kStageSamples) {
    ckpt->CommitStage(kStageSamples);
  }

  // Stage 3: curriculum + dynamic-pairing pre-training (lines 8–18). Not
  // checkpointed mid-epoch: it is the cheap stage and replays bit-exactly
  // from its own seed and the (restored) bank. Pre-training iterates the
  // borrowed preliminary embeddings epoch after epoch, so tell the kernel
  // to read the mapping ahead sequentially — out-of-core banks stream
  // instead of faulting page by page.
  if (ckpt != nullptr && ckpt->bank() != nullptr) {
    ckpt->bank()->AdviseSequentialAll();
  }
  MaybeInjectKill(FaultPoint::kKillBeforeStage, kStageComparator);
  PretrainReport report;
  if (ckpt != nullptr && ckpt->stage_done() >= kStageComparator) {
    Status s = LoadParameters(comparator_.get(), ckpt->ComparatorPath());
    if (!s.ok()) return s;
    comparator_->SetTraining(false);
    report.robustness = ScanSampleBank(collected_);
    report.final_accuracy = BankPairwiseAccuracy(*comparator_, collected_);
  } else {
    report = PretrainComparator(comparator_.get(), collected_,
                                options_.pretrain, ctx);
    if (ckpt != nullptr) {
      Status s = SaveParameters(*comparator_, ckpt->ComparatorPath());
      ckpt->NoteArtifactWrite(s);
      if (s.ok()) ckpt->CommitStage(kStageComparator);
    }
  }
  if (ckpt != nullptr) report.robustness.Merge(ckpt->robustness());
  pretrained_ = true;
  return report;
}

PretrainReport AutoCtsPlusPlus::RetrainWithSamples(
    std::vector<TaskSampleSet> extra) {
  CHECK(pretrained_) << "RetrainWithSamples extends a prior Pretrain()";
  CHECK(!collected_.empty())
      << "no sample bank (checkpoints carry parameters, not samples)";
  collected_.insert(collected_.end(),
                    std::make_move_iterator(extra.begin()),
                    std::make_move_iterator(extra.end()));
  // Fresh comparator, trained on old + new samples: T-AHC training is the
  // cheap step, so retraining from scratch avoids stale-optimum drift.
  comparator_ =
      std::make_unique<Comparator>(options_.comparator, rng_.Fork());
  return PretrainComparator(comparator_.get(), collected_, options_.pretrain,
                            exec_context());
}

Status AutoCtsPlusPlus::SaveCheckpoint(const std::string& path) const {
  Status s = SaveParameters(*encoder_, path + ".encoder");
  if (!s.ok()) return s;
  return SaveParameters(*comparator_, path + ".tahc");
}

Status AutoCtsPlusPlus::LoadCheckpoint(const std::string& path) {
  Status s = LoadParameters(encoder_.get(), path + ".encoder");
  if (!s.ok()) return s;
  s = LoadParameters(comparator_.get(), path + ".tahc");
  if (!s.ok()) return s;
  // Loaded modules are for inference: ranking is eval-mode only.
  encoder_->SetTraining(false);
  comparator_->SetTraining(false);
  pretrained_ = true;
  return Status::Ok();
}

Tensor AutoCtsPlusPlus::EmbedTask(const ForecastTask& task) {
  ExecScope scope(exec_context());
  Tensor preliminary = PreliminaryTaskEmbedding(
      *encoder_, task, options_.collect.windows_per_task, &rng_);
  return comparator_->EmbedTask(preliminary).Detach();
}

std::vector<ArchHyper> AutoCtsPlusPlus::RankTopK(const ForecastTask& task) {
  return RankTopK(task, options_.search);
}

std::vector<ArchHyper> AutoCtsPlusPlus::RankTopK(const ForecastTask& task,
                                                 const SearchOptions& search) {
  CHECK(pretrained_) << "call Pretrain() before searching";
  Tensor task_embed = EmbedTask(task);
  EvolutionarySearcher searcher(comparator_.get(), &space_, exec_context());
  // Each task searches its own sampled slice of the joint space: mix the
  // task identity into the seed (the paper samples K_s candidates fresh
  // per task too). Still deterministic for a given task.
  SearchOptions task_search = search;
  uint64_t h = 1469598103934665603ull;
  for (char c : task.name()) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  task_search.seed ^= h;
  return searcher.SearchTopK(task_embed, task_search);
}

SearchOutcome AutoCtsPlusPlus::SearchAndTrain(const ForecastTask& task) {
  CHECK(pretrained_) << "call Pretrain() before searching";
  auto t0 = Clock::now();
  Tensor task_embed = EmbedTask(task);
  double embed_seconds = SecondsSince(t0);

  auto t1 = Clock::now();
  EvolutionarySearcher searcher(comparator_.get(), &space_, exec_context());
  std::vector<ArchHyper> top_k =
      searcher.SearchTopK(task_embed, options_.search);
  double rank_seconds = SecondsSince(t1);

  SearchOutcome outcome =
      TrainTopKAndSelect(top_k, task, options_.final_train, options_.scale,
                         exec_context().WithSeed(rng_.Fork()));
  outcome.embed_seconds = embed_seconds;
  outcome.rank_seconds = rank_seconds;
  outcome.robustness.nonfinite_comparisons = searcher.nonfinite_comparisons();
  return outcome;
}

AutoCtsPlus::AutoCtsPlus(const AutoCtsOptions& options)
    : options_(options),
      pool_(std::make_unique<ThreadPool>(options.num_threads)) {}

SearchOutcome AutoCtsPlus::SearchAndTrain(const ForecastTask& task) {
  ExecContext ctx{pool_.get(), options_.seed};
  ExecScope scope(ctx);
  Rng rng(options_.seed);
  // Fully supervised: labels come from the *target* task itself — this is
  // what costs GPU hours per task and what AutoCTS++ amortizes away.
  auto t0 = Clock::now();
  Comparator::Options comp_opts = options_.comparator;
  comp_opts.task_aware = false;
  Comparator ahc(comp_opts, rng.Fork());
  SampleCollectionOptions collect = options_.collect;
  // AHC needs no task embedding, but CollectSamples computes one; reuse an
  // untrained MLP encoder as a cheap stand-in.
  MlpEncoder stub_encoder(1, options_.ts2vec.repr_dim, &rng);
  std::vector<TaskSampleSet> data = CollectSamples(
      {task}, space_, stub_encoder, options_.scale, collect, ctx);
  PretrainOptions pre = options_.pretrain;
  pre.initial_random_fraction = 1.0f;  // No curriculum on a single task.
  PretrainReport fit = PretrainComparator(&ahc, data, pre, ctx);
  double label_and_fit_seconds = SecondsSince(t0);

  auto t1 = Clock::now();
  EvolutionarySearcher searcher(&ahc, &space_, ctx);
  std::vector<ArchHyper> top_k =
      searcher.SearchTopK(Tensor(), options_.search);
  double rank_seconds = SecondsSince(t1);

  SearchOutcome outcome = TrainTopKAndSelect(top_k, task, options_.final_train,
                                             options_.scale,
                                             ctx.WithSeed(rng.Fork()));
  // For AutoCTS+ the per-task supervision is part of the search cost.
  outcome.embed_seconds = label_and_fit_seconds;
  outcome.rank_seconds = rank_seconds;
  outcome.robustness.nonfinite_comparisons = searcher.nonfinite_comparisons();
  outcome.robustness.Merge(fit.robustness);
  return outcome;
}

SearchOutcome TrainTopKAndSelect(const std::vector<ArchHyper>& top_k,
                                 const ForecastTask& task,
                                 const TrainOptions& train,
                                 const ScaleConfig& scale,
                                 const ExecContext& ctx) {
  CHECK(!top_k.empty());
  ExecScope scope(ctx);
  auto t0 = Clock::now();
  SearchOutcome outcome;
  outcome.top_k = top_k;
  ForecasterSpec spec = MakeForecasterSpec(task);
  ModelTrainer trainer(task, train, ctx);
  // Candidates are independent runs (seed = ctx.seed + i), so they fan out
  // across the pool; the winner is selected serially afterwards with the
  // original first-wins tie-break.
  std::vector<TrainReport> reports(top_k.size());
  ParallelFor(0, static_cast<int64_t>(top_k.size()), 1,
              [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) {
                  auto model = BuildSearchedModel(
                      top_k[static_cast<size_t>(i)], spec, scale,
                      ctx.seed + static_cast<uint64_t>(i));
                  reports[static_cast<size_t>(i)] =
                      trainer.Train(model.get());
                }
              });
  // Winner selection skips diverged candidates: their metrics are
  // default-initialized (0.0 would always "win") and meaningless. If every
  // candidate diverged, the first one is reported — its non-OK status
  // tells the caller no usable model exists.
  double best_val = 0.0;
  bool first = true;
  for (size_t i = 0; i < top_k.size(); ++i) {
    if (reports[i].diverged()) {
      ++outcome.robustness.diverged_candidates;
      continue;
    }
    if (first || reports[i].val.mae < best_val) {
      first = false;
      best_val = reports[i].val.mae;
      outcome.best = top_k[i];
      outcome.best_report = reports[i];
    }
  }
  if (first) {
    outcome.best = top_k.front();
    outcome.best_report = reports.front();
  }
  outcome.train_seconds = SecondsSince(t0);
  return outcome;
}

}  // namespace autocts
