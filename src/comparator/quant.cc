#include "comparator/quant.h"

#include <algorithm>

#include "common/check.h"
#include "tensor/backend.h"

namespace autocts {

QuantizedComparator::QuantizedComparator(const Comparator& comparator,
                                         ComparatorPrecision precision)
    : precision_(precision) {
  const Comparator::Options& opt = comparator.options();
  task_aware_ = opt.task_aware;
  embed_dim_ = opt.gin.embed_dim;
  fc_dim_ = opt.fc_dim;
  f2_ = opt.f2;

  const GinEncoder& gin = comparator.gin();
  // Input projections stay fp32 regardless of precision (see quant.h).
  op_proj_ = Snapshot(gin.op_proj(), ComparatorPrecision::kFp32);
  hyper_proj_ = Snapshot(gin.hyper_proj(), ComparatorPrecision::kFp32);
  for (int l = 0; l < gin.layers(); ++l) {
    epsilons_.push_back(gin.epsilon(l));
    gin_fc1_.push_back(Snapshot(gin.layer_mlp(l).fc1(), precision_));
    gin_fc2_.push_back(Snapshot(gin.layer_mlp(l).fc2(), precision_));
  }
  fc_pair_ = Snapshot(comparator.fc_pair(), precision_);
  if (task_aware_) fc_task_ = Snapshot(*comparator.fc_task(), precision_);
  fc_o_ = Snapshot(comparator.fc_o(), precision_);
  fc_out_ = Snapshot(comparator.fc_out(), precision_);
}

QuantizedComparator::QLinear QuantizedComparator::Snapshot(
    const Linear& layer, ComparatorPrecision mode) const {
  QLinear q;
  q.mode = mode;
  q.in = layer.in_dim();
  q.out = layer.out_dim();
  const auto& w = layer.weight().data();
  CHECK_EQ(static_cast<int64_t>(w.size()),
           static_cast<int64_t>(q.in) * q.out);
  if (layer.bias().defined()) q.bias = layer.bias().data();
  switch (mode) {
    case ComparatorPrecision::kFp32:
      q.w_f32 = w;
      break;
    case ComparatorPrecision::kBf16:
      q.w_bf16.resize(w.size());
      for (size_t i = 0; i < w.size(); ++i) {
        q.w_bf16[i] = kernels::Bf16FromF32(w[i]);
      }
      break;
  }
  return q;
}

void QuantizedComparator::Apply(const QLinear& q, const float* x, int rows,
                                float* y, bool relu) const {
  const kernels::Backend& backend = kernels::ActiveBackend();
  switch (q.mode) {
    case ComparatorPrecision::kFp32: {
      // Plain ascending-k accumulate; same order as every backend GEMM.
      for (int r = 0; r < rows; ++r) {
        float* yrow = y + static_cast<int64_t>(r) * q.out;
        for (int j = 0; j < q.out; ++j) yrow[j] = 0.0f;
        const float* xrow = x + static_cast<int64_t>(r) * q.in;
        for (int k = 0; k < q.in; ++k) {
          const float av = xrow[k];
          const float* wrow = q.w_f32.data() + static_cast<int64_t>(k) * q.out;
          for (int j = 0; j < q.out; ++j) yrow[j] += av * wrow[j];
        }
      }
      break;
    }
    case ComparatorPrecision::kBf16:
      kernels::counters::NoteQgemmBf16();
      backend.qgemm_bf16(x, q.w_bf16.data(), y, rows, q.in, q.out);
      break;
  }
  const bool has_bias = !q.bias.empty();
  if (has_bias || relu) {
    for (int r = 0; r < rows; ++r) {
      float* yrow = y + static_cast<int64_t>(r) * q.out;
      for (int j = 0; j < q.out; ++j) {
        float v = has_bias ? yrow[j] + q.bias[j] : yrow[j];
        yrow[j] = relu ? std::max(v, 0.0f) : v;
      }
    }
  }
}

std::vector<float> QuantizedComparator::GinForward(
    const EncodingBatch& batch) const {
  const int b = batch.adjacency.dim(0);
  const int d = embed_dim_;
  const int nodes = kEncodingNodes;
  const auto& adj = batch.adjacency.data();   // [b,14,14]
  const auto& hyper = batch.hyper.data();     // [b,6]

  // Initial node features, mirroring GinEncoder::Forward: projected one-hot
  // rows 0..nodes-2 (padding rows stay zero — op_proj_ is bias-free), the
  // projected hyper vector in the last slot.
  std::vector<float> h(static_cast<size_t>(b) * nodes * d);
  std::vector<float> op_feat(static_cast<size_t>(b) * nodes * d);
  Apply(op_proj_, batch.op_onehot.data().data(), b * nodes, op_feat.data(),
        /*relu=*/false);
  std::vector<float> hyper_feat(static_cast<size_t>(b) * d);
  Apply(hyper_proj_, hyper.data(), b, hyper_feat.data(), /*relu=*/false);
  for (int bi = 0; bi < b; ++bi) {
    float* dst = h.data() + static_cast<int64_t>(bi) * nodes * d;
    const float* src = op_feat.data() + static_cast<int64_t>(bi) * nodes * d;
    std::copy(src, src + static_cast<int64_t>(nodes - 1) * d, dst);
    std::copy(hyper_feat.data() + static_cast<int64_t>(bi) * d,
              hyper_feat.data() + static_cast<int64_t>(bi + 1) * d,
              dst + static_cast<int64_t>(nodes - 1) * d);
  }

  // GIN layers: x = (1+eps)·H + A·H, then H = fc2(relu(fc1(x))).
  std::vector<float> x(h.size());
  std::vector<float> mid(static_cast<size_t>(b) * nodes * gin_fc1_[0].out);
  for (size_t l = 0; l < gin_fc1_.size(); ++l) {
    const float scale = 1.0f + epsilons_[l];
    for (int bi = 0; bi < b; ++bi) {
      const float* arow = adj.data() + static_cast<int64_t>(bi) * nodes * nodes;
      const float* hb = h.data() + static_cast<int64_t>(bi) * nodes * d;
      float* xb = x.data() + static_cast<int64_t>(bi) * nodes * d;
      for (int i = 0; i < nodes; ++i) {
        float* xrow = xb + static_cast<int64_t>(i) * d;
        for (int c = 0; c < d; ++c) {
          xrow[c] = scale * hb[static_cast<int64_t>(i) * d + c];
        }
        for (int nnode = 0; nnode < nodes; ++nnode) {
          const float a = arow[static_cast<int64_t>(i) * nodes + nnode];
          if (a == 0.0f) continue;
          const float* hrow = hb + static_cast<int64_t>(nnode) * d;
          for (int c = 0; c < d; ++c) xrow[c] += a * hrow[c];
        }
      }
    }
    Apply(gin_fc1_[l], x.data(), b * nodes, mid.data(), /*relu=*/true);
    Apply(gin_fc2_[l], mid.data(), b * nodes, h.data(), /*relu=*/false);
  }

  // Readout: the hyper node's row.
  std::vector<float> out(static_cast<size_t>(b) * d);
  for (int bi = 0; bi < b; ++bi) {
    const float* src = h.data() + (static_cast<int64_t>(bi) * nodes + nodes - 1) * d;
    std::copy(src, src + d, out.data() + static_cast<int64_t>(bi) * d);
  }
  return out;
}

std::vector<float> QuantizedComparator::CompareLogits(
    const EncodingBatch& first, const EncodingBatch& second,
    const Tensor& task_embeds) const {
  const int m = first.adjacency.dim(0);
  CHECK_EQ(second.adjacency.dim(0), m);
  const std::vector<float> l1 = GinForward(first);
  const std::vector<float> l2 = GinForward(second);
  const float* te = nullptr;
  if (task_aware_) {
    CHECK(task_embeds.defined());
    CHECK_EQ(task_embeds.dim(0), m);
    te = task_embeds.data().data();
  }
  return CompareEmbedded(l1.data(), l2.data(), m, te);
}

std::vector<float> QuantizedComparator::CompareEmbedded(
    const float* l1, const float* l2, int m, const float* task_embeds) const {
  const int d = embed_dim_;
  std::vector<float> pair_in(static_cast<size_t>(m) * 2 * d);
  for (int r = 0; r < m; ++r) {
    std::copy(l1 + static_cast<int64_t>(r) * d,
              l1 + static_cast<int64_t>(r + 1) * d,
              pair_in.begin() + static_cast<int64_t>(r) * 2 * d);
    std::copy(l2 + static_cast<int64_t>(r) * d,
              l2 + static_cast<int64_t>(r + 1) * d,
              pair_in.begin() + static_cast<int64_t>(r) * 2 * d + d);
  }
  std::vector<float> pair(static_cast<size_t>(m) * fc_dim_);
  Apply(fc_pair_, pair_in.data(), m, pair.data(), /*relu=*/true);

  std::vector<float> o;
  int o_cols = fc_dim_;
  if (task_aware_) {
    CHECK(task_embeds != nullptr);
    std::vector<float> te(static_cast<size_t>(m) * fc_dim_);
    Apply(fc_task_, task_embeds, m, te.data(), /*relu=*/true);
    o_cols = 2 * fc_dim_;
    o.resize(static_cast<size_t>(m) * o_cols);
    for (int r = 0; r < m; ++r) {
      std::copy(pair.begin() + static_cast<int64_t>(r) * fc_dim_,
                pair.begin() + static_cast<int64_t>(r + 1) * fc_dim_,
                o.begin() + static_cast<int64_t>(r) * o_cols);
      std::copy(te.begin() + static_cast<int64_t>(r) * fc_dim_,
                te.begin() + static_cast<int64_t>(r + 1) * fc_dim_,
                o.begin() + static_cast<int64_t>(r) * o_cols + fc_dim_);
    }
  } else {
    o = std::move(pair);
  }

  std::vector<float> hidden(static_cast<size_t>(m) * fc_dim_);
  Apply(fc_o_, o.data(), m, hidden.data(), /*relu=*/true);
  std::vector<float> logits(m);
  Apply(fc_out_, hidden.data(), m, logits.data(), /*relu=*/false);
  return logits;
}

}  // namespace autocts
