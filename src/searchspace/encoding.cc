#include "searchspace/encoding.h"

#include <algorithm>

#include "common/check.h"
#include "tensor/buffer_pool.h"

namespace autocts {

ArchHyperEncoding EncodeArchHyper(const ArchHyper& ah) {
  Status valid = ValidateArchHyper(ah);
  CHECK(valid.ok()) << valid.message();
  const int n_ops = static_cast<int>(ah.arch.edges.size());
  const int n = n_ops + 1;  // + hyper node
  CHECK_LE(n, kEncodingNodes) << "arch-hyper exceeds encoding padding";

  ArchHyperEncoding enc;
  enc.num_nodes = n;
  enc.hyper_index = kEncodingNodes - 1;
  enc.adjacency.assign(static_cast<size_t>(kEncodingNodes) * kEncodingNodes,
                       0.0f);
  enc.op_onehot.assign(static_cast<size_t>(kEncodingNodes) * kNumOpTypes,
                       0.0f);
  enc.hyper_features = ah.hyper.Normalized();

  auto set_adj = [&](int i, int j) {
    enc.adjacency[static_cast<size_t>(i) * kEncodingNodes + j] = 1.0f;
  };
  // Dual graph: operator u feeds operator v iff u's destination latent node
  // is v's source latent node.
  for (int u = 0; u < n_ops; ++u) {
    set_adj(u, u);  // self-loop
    enc.op_onehot[static_cast<size_t>(u) * kNumOpTypes +
                  static_cast<int>(ah.arch.edges[static_cast<size_t>(u)].op)] =
        1.0f;
    for (int v = 0; v < n_ops; ++v) {
      if (u == v) continue;
      if (ah.arch.edges[static_cast<size_t>(u)].dst ==
          ah.arch.edges[static_cast<size_t>(v)].src) {
        set_adj(u, v);
      }
    }
  }
  // The Hyper node connects (symmetrically) to every operator node.
  set_adj(enc.hyper_index, enc.hyper_index);
  for (int u = 0; u < n_ops; ++u) {
    set_adj(enc.hyper_index, u);
    set_adj(u, enc.hyper_index);
  }
  return enc;
}

EncodingBatch StackEncodings(const std::vector<ArchHyperEncoding>& encodings) {
  std::vector<const ArchHyperEncoding*> borrowed;
  borrowed.reserve(encodings.size());
  for (const ArchHyperEncoding& e : encodings) borrowed.push_back(&e);
  return StackEncodings(borrowed);
}

EncodingBatch StackEncodings(
    const std::vector<const ArchHyperEncoding*>& encodings) {
  CHECK(!encodings.empty());
  const int b = static_cast<int>(encodings.size());
  constexpr int kAdj = kEncodingNodes * kEncodingNodes;
  constexpr int kOps = kEncodingNodes * kNumOpTypes;
  // Pool-backed buffers: the tensors hand them back to the BufferPool when
  // they die, and a buffer the pool gave out re-enters the bucket it came
  // from. A fresh std::vector would land one bucket low (its capacity is
  // not a power of two) and be pooled for good, growing the pool per call.
  BufferPool& pool = BufferPool::Global();
  std::vector<float> adj = pool.Acquire(int64_t{b} * kAdj);
  std::vector<float> ops = pool.Acquire(int64_t{b} * kOps);
  std::vector<float> hyper = pool.Acquire(int64_t{b} * 6);
  for (int i = 0; i < b; ++i) {
    const ArchHyperEncoding& e = *encodings[static_cast<size_t>(i)];
    CHECK_EQ(static_cast<int>(e.adjacency.size()), kAdj);
    CHECK_EQ(static_cast<int>(e.op_onehot.size()), kOps);
    CHECK_EQ(static_cast<int>(e.hyper_features.size()), 6);
    std::copy(e.adjacency.begin(), e.adjacency.end(), adj.begin() + i * kAdj);
    std::copy(e.op_onehot.begin(), e.op_onehot.end(), ops.begin() + i * kOps);
    std::copy(e.hyper_features.begin(), e.hyper_features.end(),
              hyper.begin() + i * 6);
  }
  EncodingBatch batch;
  batch.adjacency =
      Tensor::FromVector({b, kEncodingNodes, kEncodingNodes}, std::move(adj));
  batch.op_onehot =
      Tensor::FromVector({b, kEncodingNodes, kNumOpTypes}, std::move(ops));
  batch.hyper = Tensor::FromVector({b, 6}, std::move(hyper));
  return batch;
}

}  // namespace autocts
