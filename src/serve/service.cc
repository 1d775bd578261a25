#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "common/runtime_config.h"
#include "model/searched_model.h"
#include "searchspace/parse.h"
#include "tensor/backend.h"
#include "tensor/ops.h"

namespace autocts {
namespace serve {
namespace {

/// The live service RuntimeStats::Snapshot() reads through the registered
/// provider (the last Start() wins; Shutdown clears its own registration).
std::atomic<RecommendationService*> g_active_service{nullptr};

ServeStats ActiveServeStats() {
  RecommendationService* s = g_active_service.load(std::memory_order_acquire);
  return s != nullptr ? s->stats() : ServeStats{};
}

std::string HexSig(uint64_t sig) {
  std::ostringstream os;
  os << std::hex << sig;
  return os.str();
}

}  // namespace

/// In-worker state of one request across its micro-batch.
struct RecommendationService::Active {
  Pending* pending = nullptr;
  Status status;  ///< First failure; non-OK skips the remaining stages.
  uint64_t signature = 0;
  ForecastTask task;
  ArchHyper best;  ///< Top-ranked arch-hyper (the forecast model's).
  Recommendation result;

  bool ok() const { return status.ok(); }
};

ServeOptions ServeOptions::ForScale(const ScaleConfig& scale) {
  ServeOptions o;
  o.scale = scale;
  // Serving trades pool breadth for latency: a small fresh-sampled pool per
  // request keeps the zero-shot "seconds" promise, and small per-request
  // duel counts are exactly where micro-batch packing pays (fixed per-replay
  // cost dominates part-filled batches).
  o.search.ranking_pool = std::max(8, scale.ranking_pool / 8);
  o.search.opponents_per_candidate = 2;
  o.search.population = std::min(4, scale.population);
  o.search.generations = 0;  // Rank-only serving mode.
  o.search.top_k = o.search.population;
  o.search.compare_batch = 64;
  o.windows_per_task = scale.windows_per_task;
  o.forecast_train.epochs = 2;
  o.forecast_train.batches_per_epoch = 4;
  o.forecast_train.batch_size = scale.batch_size;
  o.forecast_train.max_eval_windows = 16;
  return o;
}

RecommendationService::RecommendationService(Comparator* comparator,
                                             const TaskEncoder* encoder,
                                             const JointSearchSpace* space,
                                             const ServeOptions& options)
    : comparator_(comparator),
      encoder_(encoder),
      space_(space),
      options_(options),
      embed_cache_(options.embed_cache_entries) {
  CHECK(comparator_ != nullptr);
  CHECK(space_ != nullptr);
  if (comparator_->options().task_aware) CHECK(encoder_ != nullptr);
  comparator_->SetTraining(false);
}

RecommendationService::~RecommendationService() { Shutdown(); }

Status RecommendationService::Start() {
  if (options_.workers < 1) return Status::Error("serve workers must be >= 1");
  if (options_.max_batch < 1) return Status::Error("max_batch must be >= 1");
  if (options_.max_delay_us < 0) {
    return Status::Error("max_delay_us must be >= 0");
  }
  if (options_.queue_capacity < 1) {
    return Status::Error("queue_capacity must be >= 1");
  }
  if (options_.search.ranking_pool < 1 || options_.search.population < 1) {
    return Status::Error("serve search needs a non-empty pool and population");
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (started_) return Status::Error("Start() called twice");
    if (stopping_) return Status::Error("Start() after Shutdown()");
    started_ = true;
  }
  g_active_service.store(this, std::memory_order_release);
  RegisterServeStatsProvider(&ActiveServeStats);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  return Status::Ok();
}

void RecommendationService::Shutdown() {
  // Sessions first, while workers still serve: an in-flight background
  // re-search blocks in Recommend(), and closing its engine waits for it.
  CloseAllStreams();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Whatever is still queued (service was never started, or Shutdown raced
  // a submit past the stopping check) fails cleanly instead of dangling.
  std::deque<PendingPtr> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftovers.swap(queue_);
  }
  for (PendingPtr& p : leftovers) {
    p->promise.set_value(Status::Error("service shut down before the request "
                                       "was served"));
  }
  RecommendationService* self = this;
  g_active_service.compare_exchange_strong(self, nullptr,
                                           std::memory_order_acq_rel);
}

std::future<StatusOr<Recommendation>> RecommendationService::Submit(
    RecommendRequest request) {
  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->enqueued = Clock::now();
  std::future<StatusOr<Recommendation>> result =
      pending->promise.get_future();
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    queue_not_full_.wait(lock, [&] {
      return stopping_ ||
             queue_.size() < static_cast<size_t>(options_.queue_capacity);
    });
    if (stopping_) {
      pending->promise.set_value(
          Status::Error("service is shutting down; request rejected"));
      return result;
    }
    queue_.push_back(std::move(pending));
    requests_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t depth = queue_.size();
    uint64_t hw = queue_highwater_.load(std::memory_order_relaxed);
    while (depth > hw && !queue_highwater_.compare_exchange_weak(
                             hw, depth, std::memory_order_relaxed)) {
    }
  }
  queue_not_empty_.notify_one();
  return result;
}

Status RecommendationService::TrySubmit(
    RecommendRequest request, std::future<StatusOr<Recommendation>>* result) {
  CHECK(result != nullptr);
  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->enqueued = Clock::now();
  *result = pending->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_ ||
        queue_.size() >= static_cast<size_t>(options_.queue_capacity)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Error(stopping_ ? "service is shutting down"
                                     : "request queue is full");
    }
    queue_.push_back(std::move(pending));
    requests_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t depth = queue_.size();
    uint64_t hw = queue_highwater_.load(std::memory_order_relaxed);
    while (depth > hw && !queue_highwater_.compare_exchange_weak(
                             hw, depth, std::memory_order_relaxed)) {
    }
  }
  queue_not_empty_.notify_one();
  return Status::Ok();
}

StatusOr<Recommendation> RecommendationService::Recommend(
    RecommendRequest request) {
  return Submit(std::move(request)).get();
}

ServeStats RecommendationService::stats() const {
  ServeStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  s.queue_highwater = queue_highwater_.load(std::memory_order_relaxed);
  s.duel_rows = duel_rows_.load(std::memory_order_relaxed);
  s.duel_rows_evaluated =
      duel_rows_evaluated_.load(std::memory_order_relaxed);
  s.models_trained = models_trained_.load(std::memory_order_relaxed);
  s.forecasts = forecasts_.load(std::memory_order_relaxed);
  const TaskEmbedCache::Stats es = embed_cache_.stats();
  s.embed_hits = es.hits;
  s.embed_misses = es.misses;
  s.embed_entries = es.entries;
  s.embed_evictions = es.evictions;
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    s.stream_sessions = streams_opened_;
    stream::StreamEngineStats total = closed_streams_;
    for (const auto& kv : streams_) {
      std::lock_guard<std::mutex> sl(kv.second->stats_mu);
      const stream::StreamEngineStats& e = kv.second->snapshot;
      total.ticks += e.ticks;
      total.drifts += e.drifts;
      total.swaps += e.swaps;
      total.research_failures += e.research_failures;
      total.swap_stalls += e.swap_stalls;
    }
    s.stream_ticks = total.ticks;
    s.stream_drifts = total.drifts;
    s.stream_swaps = total.swaps;
    s.stream_research_failures = total.research_failures;
    s.stream_swap_stalls = total.swap_stalls;
  }
  return s;
}

void RecommendationService::WorkerLoop(int worker_index) {
  // Each worker owns a 1-lane pool and installs it for its whole lifetime:
  // every tensor kernel below runs inline on this thread, which (a) keeps
  // the thread-local StepPlans valid (capture thread == replay thread,
  // structurally) and (b) makes worker count the serving concurrency axis
  // instead of kernel fan-out fighting across workers for one shared pool.
  ThreadPool local_pool(1);
  ExecContext ctx;
  ctx.pool = &local_pool;
  ctx.seed = options_.search.seed + static_cast<uint64_t>(worker_index);
  ExecScope scope(ctx);
  // The worker's own searcher, bound to its pool so ranking stays inline
  // too; its bf16 snapshot lives as long as the worker.
  const EvolutionarySearcher searcher(comparator_, space_, ctx);
  for (;;) {
    std::vector<PendingPtr> batch = PopBatch();
    if (batch.empty()) return;
    ProcessBatch(std::move(batch), searcher, ctx);
  }
}

std::vector<RecommendationService::PendingPtr>
RecommendationService::PopBatch() {
  std::vector<PendingPtr> batch;
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_not_empty_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
  if (queue_.empty()) return batch;  // Stopping and fully drained.
  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  const auto deadline = Clock::now() +
                        std::chrono::microseconds(options_.max_delay_us);
  while (static_cast<int>(batch.size()) < options_.max_batch) {
    if (!queue_.empty()) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      continue;
    }
    // Stragglers may still arrive: wait out the admission delay — unless
    // the service is draining, where waiting only delays shutdown.
    if (stopping_ || options_.max_delay_us == 0) break;
    if (queue_not_empty_.wait_until(lock, deadline, [&] {
          return stopping_ || !queue_.empty();
        })) {
      continue;  // Something arrived (or we started stopping); re-check.
    }
    break;  // Admission delay elapsed with no stragglers.
  }
  lock.unlock();
  queue_not_full_.notify_all();
  return batch;
}

Status RecommendationService::Validate(const RecommendRequest& r) const {
  if (r.num_series <= 0 || r.num_steps <= 0) {
    return Status::Error("window geometry must be positive");
  }
  if (r.window.size() != static_cast<size_t>(r.num_series) *
                             static_cast<size_t>(r.num_steps)) {
    return Status::Error("window size does not match num_series * num_steps");
  }
  if (r.p < 1 || r.q < 1) return Status::Error("p and q must be >= 1");
  // In 64 bits: p and q come straight off the wire, and p + q overflows int.
  const int64_t span = int64_t{r.p} + r.q;
  if (r.num_steps < span) {
    return Status::Error("window too short: num_steps must be >= p + q");
  }
  if (!r.adjacency.empty() &&
      r.adjacency.size() != static_cast<size_t>(r.num_series) *
                                static_cast<size_t>(r.num_series)) {
    return Status::Error("adjacency must be empty or num_series^2");
  }
  if (r.top_k < 1) return Status::Error("top_k must be >= 1");
  if (r.want_forecast && r.num_steps - span + 1 < 20) {
    return Status::Error(
        "forecast needs at least 20 training windows (num_steps >= p+q+19)");
  }
  return Status::Ok();
}

ForecastTask RecommendationService::MakeTask(const RecommendRequest& r,
                                             uint64_t signature) const {
  std::vector<float> adjacency = r.adjacency;
  if (adjacency.empty()) {
    // No spatial prior given: identity adjacency (self-loops only). The
    // comparator never reads it; only on-demand forecast models do.
    adjacency.assign(
        static_cast<size_t>(r.num_series) * static_cast<size_t>(r.num_series),
        0.0f);
    for (int i = 0; i < r.num_series; ++i) {
      adjacency[static_cast<size_t>(i) * r.num_series + i] = 1.0f;
    }
  }
  ForecastTask task;
  task.data = std::make_shared<const CtsDataset>(
      "serve-" + HexSig(signature), r.num_series, r.num_steps, 1, r.window,
      std::move(adjacency));
  task.p = r.p;
  task.q = r.q;
  task.single_step = r.single_step;
  return task;
}

Tensor RecommendationService::ComputeEmbedding(const ForecastTask& task,
                                               uint64_t signature) const {
  // Content-seeded window sampling: the embedding depends only on the
  // request bytes and the serve seed, never on cache state or arrival
  // order — the precondition for cold-vs-warm bit-identical responses.
  Rng rng(options_.search.seed ^ signature);
  Tensor preliminary = PreliminaryTaskEmbedding(
      *encoder_, task, options_.windows_per_task, &rng);
  return comparator_->EmbedTask(preliminary).Detach();
}

Tensor RecommendationService::TaskEmbeddingFor(
    const RecommendRequest& request) const {
  CHECK(Validate(request).ok());
  const uint64_t signature =
      WindowSignature(request.window.data(), request.num_series,
                      request.num_steps, request.p, request.q,
                      request.single_step);
  NoGradScope no_grad;
  return ComputeEmbedding(MakeTask(request, signature), signature);
}

void RecommendationService::ProcessBatch(std::vector<PendingPtr> batch,
                                         const EvolutionarySearcher& searcher,
                                         const ExecContext& ctx) {
  const auto t0 = Clock::now();
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(batch.size(), std::memory_order_relaxed);
  // Flush cached embeddings if the kernel backend or comparator precision
  // changed since the last batch (the staleness contract; see embed_cache.h).
  embed_cache_.SetContext(
      std::string(kernels::ActiveBackend().name) + "/" +
      ComparatorPrecisionName(GlobalRuntimeConfig().comparator_precision));

  // Per-request setup: validate and embed (through the cache). Each valid
  // request becomes one search task keyed by its window signature and
  // seeded with search.seed ^ signature, so its answer is a library
  // SearchTopK call for that window whatever else the batch holds.
  std::vector<Active> acts(batch.size());
  std::vector<Active*> ranked;
  std::vector<SearchTask> tasks;
  for (size_t i = 0; i < batch.size(); ++i) {
    Active& a = acts[i];
    a.pending = batch[i].get();
    const RecommendRequest& req = a.pending->request;
    a.status = Validate(req);
    if (!a.ok()) continue;
    a.signature = WindowSignature(req.window.data(), req.num_series,
                                  req.num_steps, req.p, req.q,
                                  req.single_step);
    a.result.task_signature = a.signature;
    a.task = MakeTask(req, a.signature);
    Tensor embed;
    if (comparator_->options().task_aware) {
      NoGradScope no_grad;
      bool hit = false;
      embed = embed_cache_.GetOrCompute(
          a.signature, [&] { return ComputeEmbedding(a.task, a.signature); },
          &hit);
      a.result.embed_cache_hit = hit;
    }
    tasks.push_back({embed, a.signature, options_.search.seed ^ a.signature});
    ranked.push_back(&a);
  }

  // Rank the whole micro-batch in lockstep. Every answer is ranked to the
  // full population and cut to its request's top_k: the stable sort makes
  // a shorter answer a prefix of a longer one.
  SearchOptions search = options_.search;
  search.generations = 0;  // Rank-only serving mode.
  search.top_k = search.population;
  search.compare_batch = std::max(1, search.compare_batch);
  DuelCounts counts;
  const std::vector<std::vector<ArchHyper>> tops =
      searcher.SearchTopK(tasks, search, &counts);
  duel_rows_.fetch_add(counts.requested, std::memory_order_relaxed);
  duel_rows_evaluated_.fetch_add(counts.evaluated, std::memory_order_relaxed);
  for (size_t t = 0; t < ranked.size(); ++t) {
    Active& a = *ranked[t];
    const size_t k = std::min(tops[t].size(),
                              static_cast<size_t>(a.pending->request.top_k));
    for (size_t i = 0; i < k; ++i) {
      a.result.ranked.push_back(tops[t][i].Signature());
    }
    a.best = tops[t].front();
  }

  // Forecasts (trained on demand, cached per (window, arch) signature).
  // Deliberately OUTSIDE any NoGradScope: training needs the tape.
  for (Active& a : acts) {
    if (!a.ok() || !a.pending->request.want_forecast) continue;
    bool model_hit = false;
    StatusOr<std::vector<float>> fc =
        Forecast(a.task, a.signature, a.best, ctx, &model_hit);
    if (!fc.ok()) {
      a.status = fc.status();
      continue;
    }
    a.result.forecast = std::move(fc).value();
    a.result.model_cache_hit = model_hit;
  }

  // Fulfill every promise.
  const double service_us = SecondsSince(t0) * 1e6;
  for (Active& a : acts) {
    if (!a.ok()) {
      a.pending->promise.set_value(a.status);
      continue;
    }
    a.result.queue_us =
        std::chrono::duration<double, std::micro>(t0 - a.pending->enqueued)
            .count();
    a.result.service_us = service_us;
    a.result.batch_size = static_cast<int>(batch.size());
    a.pending->promise.set_value(std::move(a.result));
  }
}

StatusOr<RecommendationService::ModelEntryPtr>
RecommendationService::TrainedModel(const ForecastTask& task,
                                    uint64_t signature, const ArchHyper& best,
                                    const ExecContext& ctx,
                                    bool* model_hit) const {
  const std::string key = HexSig(signature) + "/" + best.Signature();
  ModelEntryPtr entry;
  bool owner = false;
  {
    std::unique_lock<std::mutex> lock(model_mu_);
    auto it = model_by_key_.find(key);
    if (it != model_by_key_.end()) {
      entry = *it->second;
      if (!entry->ready) {
        // Another worker is training this exact model: wait, don't duplicate
        // GPU-hours... well, CPU-minutes. The entry stays valid even if it
        // is evicted while we wait (shared_ptr).
        model_ready_.wait(lock, [&] { return entry->ready; });
      } else {
        model_lru_.splice(model_lru_.begin(), model_lru_, it->second);
      }
      *model_hit = true;
    } else {
      entry = std::make_shared<ModelEntry>();
      entry->key = key;
      model_lru_.push_front(entry);
      model_by_key_[key] = model_lru_.begin();
      owner = true;
      *model_hit = false;
    }
  }
  if (owner) {
    // Train OUTSIDE the lock; seeds derive from content so the model is the
    // same whichever worker trains it, cold or warm.
    const uint64_t seed = options_.forecast_train.seed ^ signature;
    ForecasterSpec spec = MakeForecasterSpec(task);
    TrainOptions topts = options_.forecast_train;
    topts.seed = seed;
    ModelTrainer trainer(task, topts, ctx);
    std::unique_ptr<SearchedModel> model =
        BuildSearchedModel(best, spec, options_.scale, seed);
    model->SetTraining(true);
    TrainReport report = trainer.Train(model.get());
    model->SetTraining(false);
    models_trained_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(model_mu_);
      entry->model = std::shared_ptr<const Forecaster>(std::move(model));
      entry->mean = trainer.provider().mean();
      entry->std = trainer.provider().std();
      entry->train_status = report.status;
      entry->ready = true;
      // Enforce capacity now that the entry is publishable; in-flight
      // entries are pinned, ready ones evict least-recently-used first.
      while (model_lru_.size() > options_.model_cache_entries) {
        bool evicted = false;
        for (auto lit = model_lru_.end(); lit != model_lru_.begin();) {
          --lit;
          if (!(*lit)->ready) continue;
          model_by_key_.erase((*lit)->key);
          model_lru_.erase(lit);
          evicted = true;
          break;
        }
        if (!evicted) break;
      }
    }
    model_ready_.notify_all();
  }
  if (!entry->train_status.ok()) return entry->train_status;
  return entry;
}

StatusOr<std::vector<float>> RecommendationService::Forecast(
    const ForecastTask& task, uint64_t signature, const ArchHyper& best,
    const ExecContext& ctx, bool* model_hit) const {
  StatusOr<ModelEntryPtr> trained =
      TrainedModel(task, signature, best, ctx, model_hit);
  if (!trained.ok()) return trained.status();
  const ModelEntryPtr& entry = trained.value();

  // Inference: z-score the window's last p steps with the scaler the model
  // was trained under, predict, inverse-transform.
  NoGradScope no_grad;
  const CtsDataset& data = *task.data;
  const int n = data.num_series();
  const int p = task.p;
  const int t0 = data.num_steps() - p;
  std::vector<float> x(static_cast<size_t>(n) * static_cast<size_t>(p));
  const float inv_std = entry->std != 0.0f ? 1.0f / entry->std : 1.0f;
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < p; ++t) {
      x[static_cast<size_t>(s) * p + t] =
          (data.value(s, t0 + t, 0) - entry->mean) * inv_std;
    }
  }
  Tensor xt = Tensor::FromVector({1, n, p, 1}, std::move(x));
  Tensor y = entry->model->Forward(xt);  // [1, N, Q_out, 1], scaled.
  const auto& yd = y.data();
  std::vector<float> out(yd.size());
  for (size_t i = 0; i < yd.size(); ++i) {
    out[i] = yd[i] * entry->std + entry->mean;
  }
  forecasts_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

StatusOr<stream::StreamModel> RecommendationService::ResearchModel(
    const CtsDatasetPtr& recent, int p, int q, bool single_step) {
  // Zero-shot rank through the normal request queue: a re-search is just
  // another tenant asking "what fits this window?", and shares the embed /
  // duel / model caches with everyone else.
  RecommendRequest r;
  r.num_series = recent->num_series();
  r.num_steps = recent->num_steps();
  r.window = recent->values();  // [n][t][1] slab == series-major window.
  r.adjacency = recent->adjacency();
  r.p = p;
  r.q = q;
  r.single_step = single_step;
  r.top_k = 1;
  StatusOr<Recommendation> rec = Recommend(r);
  if (!rec.ok()) return rec.status();
  StatusOr<ArchHyper> best = ParseArchHyper(rec.value().ranked.front());
  if (!best.ok()) return best.status();

  // Train (or fetch) the winner on the recent window itself — `recent`
  // keeps its missing mask, so the scaler fit skips imputed points. A local
  // 1-lane pool makes the result independent of the calling thread (the
  // opener's or a background researcher's).
  ForecastTask task;
  task.data = recent;
  task.p = p;
  task.q = q;
  task.single_step = single_step;
  ThreadPool local_pool(1);
  ExecContext ctx;
  ctx.pool = &local_pool;
  ctx.seed = options_.search.seed;
  ExecScope scope(ctx);
  bool model_hit = false;
  StatusOr<ModelEntryPtr> entry = TrainedModel(
      task, rec.value().task_signature, best.value(), ctx, &model_hit);
  if (!entry.ok()) return entry.status();

  stream::StreamModel m;
  m.model = entry.value()->model;
  m.mean = entry.value()->mean;
  m.std = entry.value()->std;
  m.arch = rec.value().ranked.front();
  return m;
}

StatusOr<uint64_t> RecommendationService::StreamOpen(
    const RecommendRequest& request, const stream::StreamOptions& knobs) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!started_ || stopping_) {
      return Status::Error("StreamOpen needs a started service");
    }
  }
  RecommendRequest r = request;
  r.want_forecast = false;
  r.top_k = 1;
  const Status valid = Validate(r);
  if (!valid.ok()) return valid;
  if (r.num_steps - (int64_t{r.p} + r.q) + 1 < 20) {
    return Status::Error(
        "stream seed window too short: training the initial model needs "
        "num_steps >= p + q + 19");
  }
  const uint64_t signature =
      WindowSignature(r.window.data(), r.num_series, r.num_steps, r.p, r.q,
                      r.single_step);
  ForecastTask task = MakeTask(r, signature);
  StatusOr<stream::StreamModel> initial =
      ResearchModel(task.data, r.p, r.q, r.single_step);
  if (!initial.ok()) return initial.status();

  stream::StreamOptions so = knobs;
  so.num_series = r.num_series;
  so.p = r.p;
  so.adjacency = task.data->adjacency();
  // The tenant's seed window length defines the re-search window: every
  // re-search trains on the same span the initial model saw.
  so.history = r.num_steps;
  so.seed = options_.search.seed ^ signature;

  auto session = std::make_shared<StreamSession>();
  const int p = r.p;
  const int q = r.q;
  const bool single_step = r.single_step;
  stream::Researcher researcher =
      [this, p, q, single_step](const CtsDatasetPtr& recent,
                                uint64_t) -> StatusOr<stream::StreamModel> {
    // The content-derived seed the engine offers is subsumed by the window
    // signature Recommend derives from the same bytes.
    return ResearchModel(recent, p, q, single_step);
  };
  session->engine = std::make_unique<stream::StreamEngine>(
      std::move(so), std::move(initial).value(), std::move(researcher));

  // Replay the seed window through the engine: the ring window is full and
  // the detector mid-warm-up (on the very data the model was trained on) by
  // the time the tenant's first live tick arrives.
  {
    std::lock_guard<std::mutex> push(session->mu);
    std::vector<float> tick(static_cast<size_t>(r.num_series));
    std::vector<uint8_t> miss(static_cast<size_t>(r.num_series));
    const CtsDataset& data = *task.data;
    for (int t = 0; t < r.num_steps; ++t) {
      bool any_missing = false;
      for (int n = 0; n < r.num_series; ++n) {
        tick[static_cast<size_t>(n)] = data.value(n, t, 0);
        miss[static_cast<size_t>(n)] = data.is_missing(n, t, 0) ? 1 : 0;
        any_missing = any_missing || miss[static_cast<size_t>(n)] != 0;
      }
      session->engine->Push(tick.data(),
                            any_missing ? miss.data() : nullptr);
    }
    std::lock_guard<std::mutex> sl(session->stats_mu);
    session->snapshot = session->engine->stats();
  }

  std::lock_guard<std::mutex> lock(stream_mu_);
  const uint64_t id = next_stream_id_++;
  ++streams_opened_;
  streams_.emplace(id, std::move(session));
  return id;
}

StatusOr<stream::TickResult> RecommendationService::StreamPush(
    uint64_t id, const std::vector<float>& values,
    const std::vector<uint8_t>& missing) {
  std::shared_ptr<StreamSession> session;
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    auto it = streams_.find(id);
    if (it == streams_.end()) {
      return Status::Error("unknown stream session");
    }
    session = it->second;
  }
  const size_t n =
      static_cast<size_t>(session->engine->options().num_series);
  if (values.size() != n) {
    return Status::Error("tick must carry num_series values");
  }
  if (!missing.empty() && missing.size() != n) {
    return Status::Error("missing mask must be empty or num_series long");
  }
  std::lock_guard<std::mutex> push(session->mu);
  stream::TickResult result = session->engine->Push(
      values.data(), missing.empty() ? nullptr : missing.data());
  {
    std::lock_guard<std::mutex> sl(session->stats_mu);
    session->snapshot = session->engine->stats();
  }
  return result;
}

StatusOr<stream::StreamEngineStats> RecommendationService::StreamStats(
    uint64_t id) const {
  std::shared_ptr<StreamSession> session;
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    auto it = streams_.find(id);
    if (it == streams_.end()) {
      return Status::Error("unknown stream session");
    }
    session = it->second;
  }
  std::lock_guard<std::mutex> sl(session->stats_mu);
  return session->snapshot;
}

Status RecommendationService::StreamClose(uint64_t id) {
  std::shared_ptr<StreamSession> session;
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    auto it = streams_.find(id);
    if (it == streams_.end()) {
      return Status::Error("unknown stream session");
    }
    session = std::move(it->second);
    streams_.erase(it);
  }
  stream::StreamEngineStats final_stats;
  {
    std::lock_guard<std::mutex> push(session->mu);
    final_stats = session->engine->stats();
    session->engine.reset();  // Waits out any in-flight re-search.
  }
  std::lock_guard<std::mutex> lock(stream_mu_);
  closed_streams_.ticks += final_stats.ticks;
  closed_streams_.drifts += final_stats.drifts;
  closed_streams_.swaps += final_stats.swaps;
  closed_streams_.research_failures += final_stats.research_failures;
  closed_streams_.swap_stalls += final_stats.swap_stalls;
  return Status::Ok();
}

void RecommendationService::CloseAllStreams() {
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    ids.reserve(streams_.size());
    for (const auto& kv : streams_) ids.push_back(kv.first);
  }
  for (uint64_t id : ids) StreamClose(id);
}

}  // namespace serve
}  // namespace autocts
