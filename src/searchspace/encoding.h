#ifndef REPRO_SEARCHSPACE_ENCODING_H_
#define REPRO_SEARCHSPACE_ENCODING_H_

#include <vector>

#include "searchspace/arch_hyper.h"
#include "tensor/tensor.h"

namespace autocts {

/// Nodes of every encoded arch-hyper graph are padded to this size so that
/// batches of differently sized ST-blocks share one adjacency shape (the
/// paper pads to 14: up to 12 operator nodes for C=7 plus the Hyper node).
inline constexpr int kEncodingNodes = 14;

/// Graph encoding of an arch-hyper (paper §3.1.3, Fig. 3).
///
/// The architecture DAG is converted to its dual graph — operator nodes,
/// information-flow edges — and a "Hyper" node connected to every operator
/// node is appended. The result is expressed as a padded adjacency matrix
/// (self-loops included) plus raw node features: a one-hot operator id per
/// operator node and the min-max-normalized r=6 hyperparameter vector for
/// the Hyper node. The learnable projections W_e and W_c (Eq. 7–8) live in
/// the comparator, not here.
struct ArchHyperEncoding {
  /// Real node count (operator nodes + 1 hyper node) before padding.
  int num_nodes = 0;
  /// Index of the hyper node. Fixed at kEncodingNodes-1 for every sample so
  /// batched GIN readout can use one slot regardless of architecture size.
  int hyper_index = kEncodingNodes - 1;
  /// [kEncodingNodes * kEncodingNodes], row-major, 0/1 with self-loops.
  std::vector<float> adjacency;
  /// [kEncodingNodes * kNumOpTypes]; zero rows for hyper node and padding.
  std::vector<float> op_onehot;
  /// [6]; min-max normalized hyperparameter vector (Eq. 7 input).
  std::vector<float> hyper_features;
};

/// Encodes one arch-hyper. CHECK-fails on invalid specs.
ArchHyperEncoding EncodeArchHyper(const ArchHyper& ah);

/// Stacks encodings into batch tensors for the comparator's GIN:
///   adjacency [B, kEncodingNodes, kEncodingNodes]
///   op_onehot [B, kEncodingNodes, kNumOpTypes]
///   hyper     [B, 6]
struct EncodingBatch {
  Tensor adjacency;
  Tensor op_onehot;
  Tensor hyper;
};
EncodingBatch StackEncodings(const std::vector<ArchHyperEncoding>& encodings);
/// The same over borrowed encodings (no per-encoding copy).
EncodingBatch StackEncodings(
    const std::vector<const ArchHyperEncoding*>& encodings);

}  // namespace autocts

#endif  // REPRO_SEARCHSPACE_ENCODING_H_
