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
  /// message pass sweeps the WHOLE graph layer by layer instead of the
  /// incremental frontier. In causal mode the state evolution is
  /// bitwise-identical to insert() (route.gnn_batch_vs_incremental pins it
  /// at ULP 0) while the stats record the O(N) sweep the planner prices.
  /// Bidirectional graphs fall back to insert().
  AsyncGnnStats insert_batch(const GraphNode& node,
                             std::span<const Index> neighbors);

  /// Current logits from the running pooled representation, written into
  /// caller-owned `out` (shape [num_classes]) without allocating.
  void logits_into(nn::Tensor& out);

  /// Grow the graph store to >= `max_nodes` node rows and an adjacency
  /// stride >= `max_degree`, and declare `max_degree` (when > 0) as the
  /// widest degree load() accepts. Called once up front, it leaves insert()
  /// and reset() allocation-free until the graph outgrows it.
  void reserve(Index max_nodes, Index max_degree);

  /// Empty the graph, keeping every array (allocation-free recycle).
  void reset();

  /// Checkpoint the live graph as a fixed list of spans: nodes, degrees,
  /// packed adjacency, one [n x out_l] span per conv layer, the two pools.
  /// Causal mode only: a bidirectional graph's stale pooled-max envelope
  /// would diverge on restore, so save() throws CheckpointUnsupported.
  /// load() checks structure — neighbour ids of v in [0, v), degrees summing
  /// to the packed length and within the degree reserve() declared, the
  /// model's widths — and on any violation throws CheckpointCorrupt and
  /// leaves the engine empty.
  void save(fault::CheckpointWriter& w) const;
  void load(fault::CheckpointReader& r);

  Index node_count() const noexcept { return count_; }

  /// MACs a from-scratch forward over the current graph would cost —
  /// the baseline against which per-event updates are compared.
  std::int64_t full_recompute_macs() const;

 private:
  /// The one growth path (doubling the stride re-lays out every row).
  void grow(Index max_nodes, Index max_degree);

  /// Recompute features of node v at conv layer l; returns true if changed.
  bool recompute(Index layer, Index v, AsyncGnnStats& stats);

  /// Shared structural half of insert()/insert_batch(); returns the new id.
  /// A bad neighbour id throws before anything is written.
  Index insert_structural(const GraphNode& node,
                          std::span<const Index> neighbors);

  /// Node v's input to conv layer l: polarity one-hot, or layer l-1's row.
  const float* layer_in(Index layer, Index v) const;

  Index* adj_row(Index v) { return adj_.data() + v * stride_; }
  const Index* adj_row(Index v) const { return adj_.data() + v * stride_; }

  static constexpr float kEps = 1e-6f;

  const EventGnn& model_;
  bool bidirectional_;
  Index count_ = 0;   ///< Live nodes; the arrays below may be longer.
  Index stride_ = 0;  ///< Adjacency slots per node row.
  /// Widest degree load() accepts, declared through reserve(); 0 = none.
  Index max_degree_ = 0;
  // Node-major graph store: nodes_[v], degree_[v], in-neighbours at
  // adj_[v * stride_ ...] (symmetric in bidirectional mode), and conv layer
  // l's output row v at features_[l][v * out_l ...].
  std::vector<GraphNode> nodes_;
  std::vector<Index> degree_;
  std::vector<Index> adj_;
  std::vector<std::vector<float>> features_;
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
