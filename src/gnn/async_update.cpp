#include "gnn/async_update.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

namespace evd::gnn {

namespace {
/// Layer-0 input rows: [1, 0] for ON, [0, 1] for OFF.
constexpr float kPolarityOneHot[2][EventGraph::kInputFeatures] = {{1, 0},
                                                                  {0, 1}};
using fault::expect_valid;
}  // namespace

AsyncEventGnn::AsyncEventGnn(const EventGnn& model, bool bidirectional)
    : model_(model), bidirectional_(bidirectional) {
  features_.resize(static_cast<size_t>(model_.conv_count()));
  pooled_sum_.assign(static_cast<size_t>(model_.config().hidden), 0.0);
  pooled_max_.assign(static_cast<size_t>(model_.config().hidden), 0.0f);
  pooled_scratch_ = nn::Tensor({2 * model_.config().hidden});
  // recompute() writes one layer's output here: sized once, for the widest.
  Index widest = 0;
  for (Index l = 0; l < model_.conv_count(); ++l) {
    widest = std::max(widest, model_.conv(l).out_features());
  }
  fresh_.resize(static_cast<size_t>(widest));
}

void AsyncEventGnn::reset() {
  // Rows keep their storage; insert() rewrites a row before it is read.
  count_ = 0;
  std::fill(pooled_sum_.begin(), pooled_sum_.end(), 0.0);
  std::fill(pooled_max_.begin(), pooled_max_.end(), 0.0f);
}

void AsyncEventGnn::reserve(Index max_nodes, Index max_degree) {
  max_degree_ = std::max(max_degree_, max_degree);
  grow(max_nodes, max_degree);
}

void AsyncEventGnn::grow(Index max_nodes, Index max_degree) {
  const auto rows = std::max(max_nodes, static_cast<Index>(nodes_.size()));
  if (max_degree > stride_) {
    const Index stride = std::max(max_degree, 2 * stride_);
    std::vector<Index> wider(static_cast<size_t>(rows * stride));
    for (Index v = 0; v < count_; ++v) {
      std::copy_n(adj_row(v), degree_[static_cast<size_t>(v)],
                  wider.data() + v * stride);
    }
    adj_.swap(wider);
    stride_ = stride;
    refs_.reserve(static_cast<size_t>(stride));
  }
  if (rows > static_cast<Index>(nodes_.size())) {
    const auto n = static_cast<size_t>(rows);
    nodes_.resize(n);
    degree_.resize(n);
    adj_.resize(n * static_cast<size_t>(stride_));
    for (Index l = 0; l < model_.conv_count(); ++l) {
      features_[static_cast<size_t>(l)].resize(
          n * static_cast<size_t>(model_.conv(l).out_features()));
    }
  }
}

const float* AsyncEventGnn::layer_in(Index layer, Index v) const {
  if (layer == 0) {
    const bool on = nodes_[static_cast<size_t>(v)].polarity_sign > 0;
    return kPolarityOneHot[on ? 0 : 1];
  }
  return features_[static_cast<size_t>(layer - 1)].data() +
         v * model_.conv(layer - 1).out_features();
}

void AsyncEventGnn::save(fault::CheckpointWriter& w) const {
  if (bidirectional_) {
    throw Error(ErrorCode::CheckpointUnsupported,
                "AsyncEventGnn: bidirectional graphs cannot checkpoint");
  }
  // Live prefixes only: rows beyond count_ are reserve()/reset() residue
  // that insert() rewrites before use.
  const auto n = static_cast<size_t>(count_);
  w.i64(count_);
  w.i64(model_.conv_count());
  w.padded_span(std::span<const GraphNode>(nodes_.data(), n),
                &GraphNode::polarity_sign, &GraphNode::t);
  w.pod_span(std::span<const Index>(degree_.data(), n));
  w.i64(std::accumulate(degree_.begin(), degree_.begin() + count_, Index{0}));
  for (Index v = 0; v < count_; ++v) {
    w.pod_run(std::span<const Index>(
        adj_row(v), static_cast<size_t>(degree_[static_cast<size_t>(v)])));
  }
  for (Index l = 0; l < model_.conv_count(); ++l) {
    w.pod_span(std::span<const float>(
        features_[static_cast<size_t>(l)].data(),
        n * static_cast<size_t>(model_.conv(l).out_features())));
  }
  w.pod_vector(pooled_sum_);
  w.pod_vector(pooled_max_);
}

void AsyncEventGnn::load(fault::CheckpointReader& r) {
  if (bidirectional_) {
    throw Error(ErrorCode::CheckpointUnsupported,
                "AsyncEventGnn: bidirectional graphs cannot checkpoint");
  }
  reset();  // count_ stays 0 until the end: a throw leaves an empty engine
  const Index count = r.i64();
  if (const Index convs = r.i64(); convs != model_.conv_count()) {
    throw Error(ErrorCode::CheckpointMismatch,
                "AsyncEventGnn: checkpointed " + std::to_string(convs) +
                    " conv layers, model has " +
                    std::to_string(model_.conv_count()));
  }
  // Bound every count by the bytes present before sizing anything by it.
  expect_valid(count >= 0 && static_cast<size_t>(count) <=
                                   r.remaining() / sizeof(GraphNode),
               "AsyncEventGnn: node count out of range");
  grow(count, 0);
  const auto n = static_cast<size_t>(count);
  r.pod_span_exact(std::span<GraphNode>(nodes_.data(), n));
  r.pod_span_exact(std::span<Index>(degree_.data(), n));
  // A declared degree bound caps the stride sized below, so a crafted frame
  // cannot make it allocate count x widest slots past the bound.
  const auto id_budget = static_cast<Index>(r.remaining() / sizeof(Index));
  Index packed = 0;
  Index widest = 0;
  for (const Index degree : std::span<const Index>(degree_.data(), n)) {
    expect_valid(degree >= 0 && degree <= id_budget - packed &&
                     (max_degree_ == 0 || degree <= max_degree_),
                 "AsyncEventGnn: degree out of range");
    packed += degree;
    widest = std::max(widest, degree);
  }
  expect_valid(r.i64() == packed,
               "AsyncEventGnn: degrees do not sum to the adjacency length");
  grow(count, widest);
  for (Index v = 0; v < count; ++v) {
    const std::span<Index> row(
        adj_row(v), static_cast<size_t>(degree_[static_cast<size_t>(v)]));
    r.pod_run(row);
    for (const Index j : row) {
      expect_valid(j >= 0 && j < v, "AsyncEventGnn: neighbour id not earlier");
    }
  }
  for (Index l = 0; l < model_.conv_count(); ++l) {
    r.pod_span_exact(std::span<float>(
        features_[static_cast<size_t>(l)].data(),
        n * static_cast<size_t>(model_.conv(l).out_features())));
  }
  r.pod_span_exact(std::span<double>(pooled_sum_));
  r.pod_span_exact(std::span<float>(pooled_max_));
  count_ = count;
}

bool AsyncEventGnn::recompute(Index layer, Index v, AsyncGnnStats& stats) {
  const GraphConv& conv = model_.conv(layer);
  const Index degree = degree_[static_cast<size_t>(v)];
  const Index* neighbors = adj_row(v);
  const auto& pv = nodes_[static_cast<size_t>(v)].position;

  // Gather neighbour references from the previous layer's rows (member
  // scratch: no allocation once capacity has warmed up).
  refs_.clear();
  for (Index k = 0; k < degree; ++k) {
    const Index j = neighbors[k];
    const auto& pj = nodes_[static_cast<size_t>(j)].position;
    refs_.push_back(
        {layer_in(layer, j), pj.x - pv.x, pj.y - pv.y, pj.z - pv.z});
  }

  const Index out = conv.out_features();
  float* const fresh = fresh_.data();
  conv.apply_node(layer_in(layer, v), refs_, fresh);
  stats.macs += conv.node_macs(degree);
  ++stats.node_layer_recomputes;

  float* stored = features_[static_cast<size_t>(layer)].data() + v * out;
  bool changed = false;
  const bool last_layer = (layer + 1 == model_.conv_count());
  for (Index f = 0; f < out; ++f) {
    if (std::fabs(fresh[f] - stored[f]) > kEps) changed = true;
  }
  if (changed && last_layer) {
    for (Index f = 0; f < out; ++f) {
      pooled_sum_[static_cast<size_t>(f)] +=
          static_cast<double>(fresh[f]) - stored[f];
      pooled_max_[static_cast<size_t>(f)] =
          std::max(pooled_max_[static_cast<size_t>(f)], fresh[f]);
    }
  }
  if (changed) std::copy_n(fresh, out, stored);
  return changed;
}

Index AsyncEventGnn::insert_structural(const GraphNode& node,
                                       std::span<const Index> neighbors) {
  const Index id = count_;
  for (const Index j : neighbors) {
    if (j < 0 || j >= id) {
      throw std::invalid_argument("AsyncEventGnn::insert: bad neighbour id");
    }
  }
  const auto degree = static_cast<Index>(neighbors.size());
  grow(id + 1, degree);
  nodes_[static_cast<size_t>(id)] = node;
  degree_[static_cast<size_t>(id)] = degree;
  std::copy(neighbors.begin(), neighbors.end(), adj_row(id));
  for (Index l = 0; l < model_.conv_count(); ++l) {
    const Index out = model_.conv(l).out_features();
    std::fill_n(features_[static_cast<size_t>(l)].data() + id * out, out,
                0.0f);
  }
  ++count_;

  if (bidirectional_) {
    for (const Index j : neighbors) {
      const auto sj = static_cast<size_t>(j);
      if (degree_[sj] == stride_) grow(count_, stride_ + 1);
      adj_row(j)[degree_[sj]++] = id;
    }
  }
  return id;
}

AsyncGnnStats AsyncEventGnn::insert(const GraphNode& node,
                                    std::span<const Index> neighbors) {
  AsyncGnnStats stats;
  const Index id = insert_structural(node, neighbors);

  if (!bidirectional_) {
    // Causal fast path, equivalent to the generic propagation below: edges
    // only point from earlier events to the new node, so no existing node's
    // in-neighbourhood changed and the dirty set is always exactly {id} —
    // the set machinery degenerates to recomputing the new node layer by
    // layer until a layer reports no change.
    for (Index l = 0; l < model_.conv_count(); ++l) {
      if (!recompute(l, id, stats)) break;
    }
    return stats;
  }

  // Seed of changed nodes per layer: the new node always needs computing;
  // in bidirectional mode its neighbours' in-sets changed too.
  std::unordered_set<Index> dirty;
  dirty.insert(id);
  for (const Index j : neighbors) dirty.insert(j);

  for (Index l = 0; l < model_.conv_count(); ++l) {
    std::unordered_set<Index> changed;
    for (const Index v : dirty) {
      if (recompute(l, v, stats)) changed.insert(v);
    }
    if (l + 1 == model_.conv_count()) break;
    // A change at node v at layer l affects, at layer l+1, v itself and
    // every node whose in-neighbourhood contains v.
    std::unordered_set<Index> next;
    for (const Index v : changed) {
      next.insert(v);
      const Index* row = adj_row(v);
      for (Index k = 0; k < degree_[static_cast<size_t>(v)]; ++k) {
        next.insert(row[k]);
      }
    }
    if (next.empty()) break;
    dirty = std::move(next);
  }
  return stats;
}

AsyncGnnStats AsyncEventGnn::insert_batch(const GraphNode& node,
                                          std::span<const Index> neighbors) {
  if (bidirectional_) {
    // The batch sweep's bitwise-equivalence argument relies on existing
    // nodes' in-neighbourhoods being immutable; bidirectional insertion
    // violates that, so route through the generic dirty-set propagation.
    return insert(node, neighbors);
  }
  AsyncGnnStats stats;
  insert_structural(node, neighbors);

  // Full-graph layer sweep with a PER-NODE early break: every node starts
  // active, is re-evaluated at each layer while active, and drops out the
  // first time its recompute reports no change. The per-node rule is what
  // keeps the sweep bitwise-identical to insert(): an existing node's
  // layer-0 recompute reproduces its stored features exactly (inputs and
  // in-neighbourhood are immutable under causal insertion) and deactivates
  // it, while the new node follows precisely the incremental path's
  // layer-by-layer break. A shared any-node-changed break would instead
  // drag early-converged nodes to deeper layers, where a bias-driven fresh
  // value can spuriously differ from their (never-computed) stored zeros.
  active_.assign(static_cast<size_t>(count_), 1);
  for (Index l = 0; l < model_.conv_count(); ++l) {
    bool any_changed = false;
    for (Index v = 0; v < count_; ++v) {
      if (!active_[static_cast<size_t>(v)]) continue;
      const bool changed = recompute(l, v, stats);
      active_[static_cast<size_t>(v)] = changed ? 1 : 0;
      any_changed |= changed;
    }
    if (!any_changed) break;
  }
  return stats;
}

void AsyncEventGnn::logits_into(nn::Tensor& out) {
  const Index f = static_cast<Index>(pooled_sum_.size());
  const Index n = node_count();
  if (n > 0) {
    for (Index c = 0; c < f; ++c) {
      pooled_scratch_[c] =
          static_cast<float>(pooled_sum_[static_cast<size_t>(c)] /
                             static_cast<double>(n));
      pooled_scratch_[f + c] = pooled_max_[static_cast<size_t>(c)];
    }
  } else {
    pooled_scratch_.zero();
  }
  model_.head().forward_into(pooled_scratch_, out);
}

std::int64_t AsyncEventGnn::full_recompute_macs() const {
  std::int64_t macs = 0;
  for (Index l = 0; l < model_.conv_count(); ++l) {
    const auto& conv = model_.conv(l);
    for (Index v = 0; v < count_; ++v) {
      macs += conv.node_macs(degree_[static_cast<size_t>(v)]);
    }
  }
  return macs;
}

}  // namespace evd::gnn
