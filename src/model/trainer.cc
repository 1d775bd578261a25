#include "model/trainer.h"

#include <cmath>
#include <limits>
#include <string>

#include "common/clock.h"
#include "common/fault.h"
#include "common/guard.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tensor/plan.h"

namespace autocts {

ForecasterSpec MakeForecasterSpec(const ForecastTask& task) {
  ForecasterSpec spec;
  spec.num_sensors = task.data->num_series();
  spec.input_len = task.p;
  spec.output_len = task.single_step ? 1 : task.q;
  spec.num_features = task.data->num_features();
  spec.adjacency = Tensor::FromVector(
      {spec.num_sensors, spec.num_sensors}, task.data->adjacency());
  return spec;
}

ModelTrainer::ModelTrainer(const ForecastTask& task, TrainOptions options,
                           ExecContext ctx)
    : task_(task), options_(options), ctx_(ctx), provider_(task) {}

Status ModelTrainer::RunEpochs(Forecaster* model, int epochs, float lr_scale,
                               std::vector<double>* losses) const {
  Rng rng(options_.seed);
  Adam::Options opt;
  opt.lr = options_.lr * lr_scale;
  opt.weight_decay = options_.weight_decay;
  Adam adam(model->Parameters(), opt);
  model->SetTraining(true);
  const float mean = provider_.mean();
  const float std = provider_.std();
  // One captured step plan per RunEpochs call. The first eager step is
  // recorded; every following step replays it (no tape nodes, no shape
  // inference, no pool round-trips). The plan is local on purpose: a
  // NaN-quarantine retry re-enters RunEpochs with a halved lr and naturally
  // recaptures against the reset parameters.
  StepPlan plan;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    double epoch_loss = 0.0;
    for (int step = 0; step < options_.batches_per_epoch; ++step) {
      WindowBatch batch =
          provider_.SampleTrainBatch(options_.batch_size, &rng);
      std::vector<Tensor> step_inputs = {batch.x, batch.y};
      if (plan.ready() && !plan.MatchesInputs(step_inputs)) plan.Invalidate();
      if (plan.ready()) {
        // ---- Replay path: same observable sequence as the eager step.
        plan.BeginStep(step_inputs);
        plan.RunForward();
        float observed = plan.LossValue();
        if (AnyFaultArmed() && FaultFiresNanLoss()) {
          observed = std::numeric_limits<float>::quiet_NaN();
        }
        // Loss guardrail (see the eager branch). Replay has no per-step
        // tape to release — the graph stays pinned in the plan.
        if (GuardsEnabled() && !std::isfinite(observed)) {
          return Status::Error("non-finite loss at epoch " +
                               std::to_string(epoch) + ", step " +
                               std::to_string(step));
        }
        epoch_loss += observed;
        plan.RunBackward();
        const int64_t skipped_before = adam.skipped_steps();
        adam.Step();
        if (adam.skipped_steps() > skipped_before) {
          return Status::Error("non-finite gradient norm at epoch " +
                               std::to_string(epoch) + ", step " +
                               std::to_string(step));
        }
        continue;
      }
      const bool capture =
          plan::PlansEnabled() && !plan.capture_failed() && !plan.capturing();
      if (capture) plan.BeginCapture(step_inputs, "train_step");
      adam.ZeroGrad();
      Tensor pred_scaled = model->Forward(batch.x);
      // Inverse transform inside the graph; loss on the original scale.
      Tensor pred = AddScalar(MulScalar(pred_scaled, std), mean);
      Tensor loss = MaeLoss(pred, batch.y);
      float observed = loss.item();
      if (AnyFaultArmed() && FaultFiresNanLoss()) {
        observed = std::numeric_limits<float>::quiet_NaN();
      }
      // Loss guardrail: a non-finite loss means the model state is already
      // garbage — stop before the backward pass spreads it further. The
      // tape is released so the aborted step leaks no graph storage.
      if (GuardsEnabled() && !std::isfinite(observed)) {
        if (capture) plan.AbortCapture();
        loss.ReleaseTape();
        return Status::Error("non-finite loss at epoch " +
                             std::to_string(epoch) + ", step " +
                             std::to_string(step));
      }
      epoch_loss += observed;
      loss.Backward();
      const int64_t skipped_before = adam.skipped_steps();
      adam.Step();
      bool pinned_by_plan = false;
      if (capture) {
        plan.SetLoss(loss);
        // On success the plan pins the step graph (closures and buffers are
        // replayed in place), so the tape must NOT be released. A poisoned
        // capture falls through to the normal per-step release and every
        // later step stays eager.
        pinned_by_plan = plan.EndCapture();
      }
      // Sever the step's graph so its buffers go back to the pool now
      // (pred/pred_scaled handles would otherwise keep nodes alive until
      // they are reassigned next iteration).
      if (!pinned_by_plan) loss.ReleaseTape();
      // Gradient guardrail: Adam refused the update because the post-clip
      // gradient norm was non-finite. Parameters are still clean (the skip
      // mutates nothing), but continuing would just repeat the overflow.
      if (adam.skipped_steps() > skipped_before) {
        return Status::Error("non-finite gradient norm at epoch " +
                             std::to_string(epoch) + ", step " +
                             std::to_string(step));
      }
    }
    if (losses != nullptr) {
      losses->push_back(epoch_loss / options_.batches_per_epoch);
    }
  }
  return Status::Ok();
}

TrainReport ModelTrainer::Train(Forecaster* model) const {
  ExecScope scope(ctx_);
  TrainReport report;
  const Clock::time_point start = Clock::now();
  report.status =
      RunEpochs(model, options_.epochs, 1.0f, &report.epoch_train_loss);
  report.train_seconds = SecondsSince(start);
  if (!report.status.ok()) return report;  // Metrics would be garbage.
  report.val = Evaluate(*model, 1);
  report.test = Evaluate(*model, 2);
  return report;
}

double ModelTrainer::EarlyValidationError(Forecaster* model,
                                          int k_epochs) const {
  StatusOr<double> r = TryEarlyValidationError(model, k_epochs);
  return r.ok() ? r.value() : std::numeric_limits<double>::quiet_NaN();
}

StatusOr<double> ModelTrainer::TryEarlyValidationError(Forecaster* model,
                                                       int k_epochs,
                                                       float lr_scale) const {
  ExecScope scope(ctx_);
  Status s = RunEpochs(model, k_epochs, lr_scale, nullptr);
  if (!s.ok()) return s;
  double mae = Evaluate(*model, 1).mae;
  if (GuardsEnabled() && !std::isfinite(mae)) {
    return Status::Error("non-finite early-validation MAE");
  }
  return mae;
}

ForecastMetrics ModelTrainer::Evaluate(const Forecaster& model,
                                       int split) const {
  ExecScope scope(ctx_);
  // SetTraining is non-const by design; evaluation flips the flag briefly.
  Forecaster& mutable_model = const_cast<Forecaster&>(model);
  bool was_training = model.training();
  mutable_model.SetTraining(false);
  // Forward-only: skip the autograd tape entirely (values are unchanged).
  NoGradScope no_grad;

  std::vector<int> starts = provider_.Starts(split, options_.max_eval_windows);
  const float mean = provider_.mean();
  const float std = provider_.std();
  const int n = task_.data->num_series();
  const int q_out = task_.single_step ? 1 : task_.q;
  const int f = task_.data->num_features();
  const int per_window = q_out * f;
  const int total_windows = static_cast<int>(starts.size());

  // Sensor-major layout so CORR gets contiguous per-series vectors.
  std::vector<float> preds(static_cast<size_t>(n) * total_windows * per_window);
  std::vector<float> targets(preds.size());

  int done = 0;
  while (done < total_windows) {
    int take = std::min(options_.batch_size, total_windows - done);
    std::vector<int> chunk(starts.begin() + done, starts.begin() + done + take);
    WindowBatch batch = provider_.MakeBatch(chunk);
    Tensor pred = model.Forward(batch.x);
    const auto& pv = pred.data();
    const auto& tv = batch.y.data();
    for (int bi = 0; bi < take; ++bi) {
      for (int ni = 0; ni < n; ++ni) {
        for (int k = 0; k < per_window; ++k) {
          size_t src = (static_cast<size_t>(bi) * n + ni) * per_window + k;
          size_t dst = (static_cast<size_t>(ni) * total_windows + done + bi) *
                           per_window + k;
          preds[dst] = pv[src] * std + mean;
          targets[dst] = tv[src];
        }
      }
    }
    done += take;
  }
  mutable_model.SetTraining(was_training);
  return EvaluateForecast(preds, targets, total_windows * per_window);
}

}  // namespace autocts
