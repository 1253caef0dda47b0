// Incremental event-graph construction (paper §IV, HUGNet-style [72]).
//
// The k-d-tree path costs O(n log n) per rebuild (or an unbalanced insert
// plus a global search), which the paper identifies as *the* latency
// roadblock for real-time event-graphs. The fix exploits two properties of
// event data the generic tree ignores:
//   1. edges are causal and time-bounded — a new event can only connect to
//      events younger than a horizon (radius / time_scale);
//   2. the spatial neighbourhood is small and known a priori.
// So a uniform spatial grid hash, with each cell holding a small ring
// buffer of its most recent node ids, answers "earlier events within radius"
// by scanning a constant number of cells x a bounded number of candidates:
// O(1) amortised per event, versus the tree's global search. This is the
// mechanism behind the four-orders-of-magnitude speed-up the paper cites,
// which bench_graph_construction measures.
#pragma once

#include <vector>

#include "events/event.hpp"
#include "fault/checkpoint.hpp"
#include "gnn/graph.hpp"

namespace evd::gnn {

struct IncrementalConfig {
  double time_scale = 1e-4;
  float radius = 3.0f;
  Index max_neighbors = 8;
  Index cell_capacity = 16;  ///< Ring-buffer slots per grid cell.
};

class IncrementalGraphBuilder {
 public:
  IncrementalGraphBuilder(Index width, Index height, IncrementalConfig config);

  struct InsertResult {
    Index node_id = -1;
    std::vector<Index> neighbors;    ///< Earlier nodes within radius (capped).
    Index candidates_scanned = 0;    ///< Work metric for the cost model.
  };

  /// Insert one event; O(1) amortised.
  InsertResult insert(const events::Event& event);

  /// Allocation-free insert for the streaming hot path: neighbours go into
  /// the caller-owned `out_neighbors` (cleared first; reserve it to
  /// max_neighbors once) and the candidate count, if wanted, into
  /// `candidates_scanned`. Combined with reserve_nodes(), steady-state
  /// inserts perform zero heap allocations. Returns the new node id.
  /// Behaviour is identical to insert().
  Index insert_into(const events::Event& event,
                    std::vector<Index>& out_neighbors,
                    Index* candidates_scanned = nullptr);

  /// Pre-size the node store so insert_into never reallocates before
  /// `capacity` nodes exist.
  void reserve_nodes(Index capacity) {
    nodes_.reserve(static_cast<size_t>(capacity));
  }

  Index node_count() const noexcept {
    return static_cast<Index>(nodes_.size());
  }
  const GraphNode& node(Index i) const {
    return nodes_[static_cast<size_t>(i)];
  }

  /// Reset all state (nodes and grid).
  void clear();

  /// Checkpoint the mutable state as a fixed list of spans: nodes, ring,
  /// cursors, counts. The restoring builder must have the same geometry and
  /// config (else CheckpointMismatch). load() also checks that cursors,
  /// counts and ring ids are in range; a violation throws CheckpointCorrupt
  /// and leaves the builder cleared. reserve_nodes() storage survives it.
  void save(fault::CheckpointWriter& w) const;
  void load(fault::CheckpointReader& r);

  /// Bytes of persistent state (grid + node store).
  Index state_bytes() const noexcept;

 private:
  Index cell_index(Index cx, Index cy) const { return cy * grid_w_ + cx; }

  IncrementalConfig config_;
  Index grid_w_, grid_h_;
  float cell_size_;
  // Grid rings, one array each: cell c's ring buffer is
  // ring_[c * cell_capacity, (c + 1) * cell_capacity), newest id at
  // ring_cursor_[c] - 1, ring_count_[c] slots filled; -1 marks an empty slot.
  std::vector<Index> ring_;
  std::vector<Index> ring_cursor_;
  std::vector<Index> ring_count_;
  std::vector<GraphNode> nodes_;
  TimeUs horizon_us_;
  /// Scratch for insert_into (candidates from <= 9 cells); reserved once.
  std::vector<std::pair<float, Index>> within_;
};

/// Convenience: run the incremental builder over a whole (sorted) stream and
/// materialise the resulting EventGraph — used by the equivalence tests
/// against build_graph() and by the GNN pipeline.
EventGraph build_graph_incremental(const events::EventStream& stream,
                                   const IncrementalConfig& config,
                                   Index max_nodes);

}  // namespace evd::gnn
