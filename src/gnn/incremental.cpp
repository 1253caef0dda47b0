#include "gnn/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gnn/graph_builder.hpp"

namespace evd::gnn {

IncrementalGraphBuilder::IncrementalGraphBuilder(Index width, Index height,
                                                 IncrementalConfig config)
    : config_(config), cell_size_(std::max(config.radius, 1.0f)) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("IncrementalGraphBuilder: bad geometry");
  }
  grid_w_ = static_cast<Index>(std::ceil(static_cast<double>(width) /
                                         static_cast<double>(cell_size_)));
  grid_h_ = static_cast<Index>(std::ceil(static_cast<double>(height) /
                                         static_cast<double>(cell_size_)));
  const auto cells = static_cast<size_t>(grid_w_ * grid_h_);
  ring_.assign(cells * static_cast<size_t>(config_.cell_capacity), -1);
  ring_cursor_.assign(cells, 0);
  ring_count_.assign(cells, 0);
  // A neighbour at distance <= radius in embedded space can be at most
  // radius/time_scale microseconds in the past.
  horizon_us_ = static_cast<TimeUs>(
      static_cast<double>(config_.radius) / config_.time_scale) + 1;
  within_.reserve(static_cast<size_t>(9 * config_.cell_capacity));
}

void IncrementalGraphBuilder::clear() {
  std::fill(ring_.begin(), ring_.end(), -1);
  std::fill(ring_cursor_.begin(), ring_cursor_.end(), 0);
  std::fill(ring_count_.begin(), ring_count_.end(), 0);
  nodes_.clear();
}

void IncrementalGraphBuilder::save(fault::CheckpointWriter& w) const {
  w.i64(grid_w_);
  w.i64(grid_h_);
  w.i64(config_.cell_capacity);
  w.padded_span(std::span<const GraphNode>(nodes_), &GraphNode::polarity_sign,
                &GraphNode::t);
  w.pod_vector(ring_);
  w.pod_vector(ring_cursor_);
  w.pod_vector(ring_count_);
}

void IncrementalGraphBuilder::load(fault::CheckpointReader& r) {
  const Index gw = r.i64();
  const Index gh = r.i64();
  const Index cap = r.i64();
  if (gw != grid_w_ || gh != grid_h_ || cap != config_.cell_capacity) {
    throw Error(ErrorCode::CheckpointMismatch,
                "IncrementalGraphBuilder: checkpointed grid " +
                    std::to_string(gw) + "x" + std::to_string(gh) + "/" +
                    std::to_string(cap) + " vs configured " +
                    std::to_string(grid_w_) + "x" + std::to_string(grid_h_) +
                    "/" + std::to_string(config_.cell_capacity));
  }
  try {
    r.pod_vector(nodes_);
    r.pod_span_exact(std::span<Index>(ring_));
    r.pod_span_exact(std::span<Index>(ring_cursor_));
    r.pod_span_exact(std::span<Index>(ring_count_));
    auto all_in = [](const std::vector<Index>& xs, Index lo, Index end) {
      return std::all_of(xs.begin(), xs.end(),
                         [=](Index x) { return x >= lo && x < end; });
    };
    fault::expect_valid(all_in(ring_cursor_, 0, cap) &&
                            all_in(ring_count_, 0, cap + 1) &&
                            all_in(ring_, -1, node_count()),
                        "IncrementalGraphBuilder: ring state out of range");
  } catch (...) {
    clear();
    throw;
  }
}

Index IncrementalGraphBuilder::state_bytes() const noexcept {
  return static_cast<Index>((ring_.size() + 2 * ring_count_.size()) *
                                sizeof(Index) +
                            nodes_.size() * sizeof(GraphNode));
}

IncrementalGraphBuilder::InsertResult IncrementalGraphBuilder::insert(
    const events::Event& event) {
  InsertResult result;
  result.neighbors.reserve(static_cast<size_t>(config_.max_neighbors));
  result.node_id =
      insert_into(event, result.neighbors, &result.candidates_scanned);
  return result;
}

Index IncrementalGraphBuilder::insert_into(const events::Event& event,
                                           std::vector<Index>& out_neighbors,
                                           Index* candidates_scanned) {
  out_neighbors.clear();
  within_.clear();
  Index scanned = 0;
  const Point3 p = embed(event, config_.time_scale);
  const float r2 = config_.radius * config_.radius;

  const Index cx = static_cast<Index>(static_cast<float>(event.x) / cell_size_);
  const Index cy = static_cast<Index>(static_cast<float>(event.y) / cell_size_);

  // Gather candidates from the 3x3 cell neighbourhood (cell_size >= radius
  // guarantees coverage).
  for (Index dy = -1; dy <= 1; ++dy) {
    const Index ny = cy + dy;
    if (ny < 0 || ny >= grid_h_) continue;
    for (Index dx = -1; dx <= 1; ++dx) {
      const Index nx = cx + dx;
      if (nx < 0 || nx >= grid_w_) continue;
      const Index cell = cell_index(nx, ny);
      const Index* ids = ring_.data() + cell * config_.cell_capacity;
      const Index cursor = ring_cursor_[static_cast<size_t>(cell)];
      for (Index k = 0; k < ring_count_[static_cast<size_t>(cell)]; ++k) {
        const Index id = ids[(cursor - 1 - k + 2 * config_.cell_capacity) %
                             config_.cell_capacity];
        if (id < 0) continue;
        const auto& candidate = nodes_[static_cast<size_t>(id)];
        ++scanned;
        // Candidates are scanned newest-first; once one is beyond the time
        // horizon (tested without subtracting a restored t, which could
        // overflow), everything older in this cell is too.
        if (candidate.t < event.t - horizon_us_) break;
        const float d2 = squared_distance(candidate.position, p);
        if (d2 <= r2) within_.emplace_back(d2, id);
      }
    }
  }
  std::sort(within_.begin(), within_.end());
  if (static_cast<Index>(within_.size()) > config_.max_neighbors) {
    within_.resize(static_cast<size_t>(config_.max_neighbors));
  }
  for (const auto& [d2, id] : within_) out_neighbors.push_back(id);

  // Append the node and register it in its cell's ring buffer.
  GraphNode node;
  node.position = p;
  node.polarity_sign =
      static_cast<std::int8_t>(polarity_sign(event.polarity));
  node.t = event.t;
  const Index node_id = static_cast<Index>(nodes_.size());
  nodes_.push_back(node);

  const auto home = static_cast<size_t>(
      cell_index(std::min(cx, grid_w_ - 1), std::min(cy, grid_h_ - 1)));
  ring_[home * static_cast<size_t>(config_.cell_capacity) +
        static_cast<size_t>(ring_cursor_[home])] = node_id;
  ring_cursor_[home] = (ring_cursor_[home] + 1) % config_.cell_capacity;
  ring_count_[home] = std::min(ring_count_[home] + 1, config_.cell_capacity);
  if (candidates_scanned != nullptr) *candidates_scanned = scanned;
  return node_id;
}

EventGraph build_graph_incremental(const events::EventStream& stream,
                                   const IncrementalConfig& config,
                                   Index max_nodes) {
  const std::vector<events::Event> sampled =
      subsample_events(stream.events, max_nodes);
  IncrementalGraphBuilder builder(std::max<Index>(stream.width, 1),
                                  std::max<Index>(stream.height, 1), config);
  EventGraph graph;
  for (const auto& e : sampled) {
    auto result = builder.insert(e);
    graph.add_node(builder.node(result.node_id), std::move(result.neighbors));
  }
  return graph;
}

}  // namespace evd::gnn
