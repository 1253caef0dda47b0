// Asynchronous, per-event GNN inference (paper §IV, AEGNN [70] / HUGNet
// [72] mechanisms).
//
// Two update disciplines over a trained EventGnn:
//
//  * Causal ("hemispherical", HUGNet-style): edges point only from earlier
//    events to the new one, so inserting a node can never change any
//    existing node's in-neighbourhood — only the new node's features must
//    be computed, exactly once per layer. O(degree) work per event.
//
//  * Bidirectional (AEGNN-style undirected graphs): the new node also
//    becomes an in-neighbour of its neighbours, whose features must be
//    recomputed; changes then propagate one hop per layer. Still far
//    cheaper than full recomputation, but strictly more work than causal.
//
// Both keep the running class logits available after every event — the
// event-driven decision stream the comparison harness measures for latency.
#pragma once

#include <span>
#include <vector>

#include "fault/checkpoint.hpp"
#include "gnn/gnn_model.hpp"

namespace evd::gnn {

struct AsyncGnnStats {
  std::int64_t macs = 0;
  Index node_layer_recomputes = 0;  ///< (node, layer) evaluations performed.
};

class AsyncEventGnn {
 public:
  /// The model must outlive this object and must not be retrained while an
  /// async session is active.
  AsyncEventGnn(const EventGnn& model, bool bidirectional);

  /// Insert a node with its (earlier) neighbour ids, update features.
  AsyncGnnStats insert(const GraphNode& node, std::span<const Index> neighbors);

  /// Batch-discipline insert: the same structural insertion, but the
  /// message pass re-evaluates the WHOLE graph layer by layer (every node,
  /// index order) instead of only the incremental frontier, carrying each
  /// node forward to the next layer only while its features keep changing.
  /// In causal mode this is bitwise-identical to insert() by construction:
  /// existing nodes' in-neighbourhoods and inputs never change, so their
  /// layer-0 re-evaluations reproduce their stored features exactly and
  /// drop them from the sweep — the state evolution (features, pools, and
  /// therefore every decision) matches the incremental path bit for bit,
  /// while the stats record the full-sweep work. That equality is what the
  /// route.gnn_batch_vs_incremental oracle pins at ULP 0, and the modeled
  /// cost gap (O(N) sweep vs O(degree) frontier) is what the planner
  /// prices when routing. Bidirectional graphs fall back to insert().
  AsyncGnnStats insert_batch(const GraphNode& node,
                             std::span<const Index> neighbors);

  /// Current logits from the running pooled representation.
  nn::Tensor logits();

  /// Zero-allocation logits: writes into caller-owned `out` (shape
  /// [num_classes]). Bitwise identical to logits().
  void logits_into(nn::Tensor& out);

  /// Pre-size every per-node buffer for up to `max_nodes` nodes of in-degree
  /// <= `max_degree`, so causal-mode insert() performs no heap allocation
  /// until the graph exceeds that size. (Bidirectional mode grows neighbour
  /// lists of *earlier* nodes and cannot be pre-sized this way.)
  void reserve(Index max_nodes, Index max_degree);

  /// Logical clear that keeps all storage: with reserve(), a session
  /// recycles its graph allocation-free when it hits its node cap.
  void reset();

  /// Checkpoint the live per-node state (nodes, adjacency, inputs, layer
  /// features, running pools) into `w` / restore it from `r`. Causal mode
  /// only: bidirectional graphs grow earlier nodes' neighbour lists, whose
  /// stale pooled-max envelope makes a restored stream diverge, so save()
  /// throws evd::Error(CheckpointUnsupported) there. The restoring engine
  /// must wrap the same model (layer shapes are validated).
  void save(fault::CheckpointWriter& w) const;
  void load(fault::CheckpointReader& r);

  Index node_count() const noexcept { return count_; }

  /// MACs a from-scratch forward over the current graph would cost —
  /// the baseline against which per-event updates are compared.
  std::int64_t full_recompute_macs() const;

  void clear();

 private:
  /// Recompute features of node v at conv layer l; returns true if changed.
  bool recompute(Index layer, Index v, AsyncGnnStats& stats);

  /// Shared structural half of insert()/insert_batch(): slot fill,
  /// adjacency + input setup, neighbour validation. Returns the new id.
  Index insert_structural(const GraphNode& node,
                          std::span<const Index> neighbors);

  static constexpr float kEps = 1e-6f;

  const EventGnn& model_;
  bool bidirectional_;
  Index count_ = 0;  ///< Live nodes; storage below may be larger (reserve()).
  std::vector<GraphNode> nodes_;
  std::vector<std::vector<Index>> adj_;      ///< In-neighbours per node.
  std::vector<std::vector<Index>> out_adj_;  ///< Nodes that list v as neighbour
                                             ///< (maintained only when
                                             ///< bidirectional — causal
                                             ///< propagation never reads it).
  std::vector<std::vector<float>> input_;    ///< [node] -> [2] polarity onehot.
  /// features_[l][node] = output of conv layer l.
  std::vector<std::vector<std::vector<float>>> features_;
  std::vector<double> pooled_sum_;
  /// Running max per feature. Exact under causal insertion (node features
  /// are immutable once computed, and ReLU outputs are >= 0, the pool's
  /// identity); in bidirectional mode a feature that *decreases* leaves a
  /// stale envelope, so this is a monotone upper bound there.
  std::vector<float> pooled_max_;
  // Scratch reused across recompute()/logits_into() calls (one thread owns
  // an AsyncEventGnn, so plain members are safe).
  std::vector<GraphConv::NeighborRef> refs_;
  std::vector<float> fresh_;
  std::vector<std::uint8_t> active_;  ///< insert_batch() sweep frontier.
  nn::Tensor pooled_scratch_;
};

}  // namespace evd::gnn
