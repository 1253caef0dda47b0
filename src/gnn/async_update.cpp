#include "gnn/async_update.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace evd::gnn {

AsyncEventGnn::AsyncEventGnn(const EventGnn& model, bool bidirectional)
    : model_(model), bidirectional_(bidirectional) {
  features_.resize(static_cast<size_t>(model_.conv_count()));
  pooled_sum_.assign(static_cast<size_t>(model_.config().hidden), 0.0);
  pooled_max_.assign(static_cast<size_t>(model_.config().hidden), 0.0f);
  pooled_scratch_ = nn::Tensor({2 * model_.config().hidden});
}

void AsyncEventGnn::clear() {
  count_ = 0;
  nodes_.clear();
  adj_.clear();
  out_adj_.clear();
  input_.clear();
  for (auto& layer : features_) layer.clear();
  std::fill(pooled_sum_.begin(), pooled_sum_.end(), 0.0);
  std::fill(pooled_max_.begin(), pooled_max_.end(), 0.0f);
}

void AsyncEventGnn::reset() {
  // Slots keep their storage; stale feature values are zeroed lazily as
  // slots are reused by insert().
  count_ = 0;
  std::fill(pooled_sum_.begin(), pooled_sum_.end(), 0.0);
  std::fill(pooled_max_.begin(), pooled_max_.end(), 0.0f);
}

void AsyncEventGnn::reserve(Index max_nodes, Index max_degree) {
  const auto n = static_cast<size_t>(max_nodes < 0 ? 0 : max_nodes);
  if (nodes_.size() < n) nodes_.resize(n);
  if (adj_.size() < n) adj_.resize(n);
  if (out_adj_.size() < n) out_adj_.resize(n);
  if (input_.size() < n) input_.resize(n);
  for (auto& a : adj_) a.reserve(static_cast<size_t>(max_degree));
  for (auto& in : input_) in.resize(2);
  for (Index l = 0; l < model_.conv_count(); ++l) {
    auto& layer = features_[static_cast<size_t>(l)];
    const auto out = static_cast<size_t>(model_.conv(l).out_features());
    if (layer.size() < n) layer.resize(n);
    for (auto& slot : layer) slot.resize(out);
  }
  refs_.reserve(static_cast<size_t>(max_degree));
}

void AsyncEventGnn::save(fault::CheckpointWriter& w) const {
  if (bidirectional_) {
    throw Error(ErrorCode::CheckpointUnsupported,
                "AsyncEventGnn: bidirectional graphs cannot checkpoint "
                "(stale pooled-max envelope would diverge on restore)");
  }
  w.i64(count_);
  w.i64(model_.conv_count());
  // Live prefixes only: slots beyond count_ are reserve()/reset() residue
  // that insert() re-zeroes before use.
  const auto n = static_cast<size_t>(count_);
  w.pod_span(std::span<const GraphNode>(nodes_.data(), n));
  for (size_t v = 0; v < n; ++v) w.pod_vector(adj_[v]);
  for (size_t v = 0; v < n; ++v) w.pod_vector(input_[v]);
  for (const auto& layer : features_) {
    for (size_t v = 0; v < n; ++v) w.pod_vector(layer[v]);
  }
  w.pod_vector(pooled_sum_);
  w.pod_vector(pooled_max_);
}

void AsyncEventGnn::load(fault::CheckpointReader& r) {
  if (bidirectional_) {
    throw Error(ErrorCode::CheckpointUnsupported,
                "AsyncEventGnn: bidirectional graphs cannot checkpoint");
  }
  const Index count = r.i64();
  if (const Index convs = r.i64(); convs != model_.conv_count()) {
    throw Error(ErrorCode::CheckpointMismatch,
                "AsyncEventGnn: checkpointed " + std::to_string(convs) +
                    " conv layers, model has " +
                    std::to_string(model_.conv_count()));
  }
  if (count < 0) {
    throw Error(ErrorCode::CheckpointCorrupt,
                "AsyncEventGnn: negative node count");
  }
  const auto n = static_cast<size_t>(count);
  if (nodes_.size() < n) nodes_.resize(n);
  if (adj_.size() < n) adj_.resize(n);
  if (out_adj_.size() < n) out_adj_.resize(n);
  if (input_.size() < n) input_.resize(n);
  for (auto& layer : features_) {
    if (layer.size() < n) layer.resize(n);
  }
  if (r.pod_span_into(std::span<GraphNode>(nodes_.data(), n)) !=
      static_cast<Index>(n)) {
    throw Error(ErrorCode::CheckpointCorrupt,
                "AsyncEventGnn: node store truncated");
  }
  for (size_t v = 0; v < n; ++v) r.pod_vector(adj_[v]);
  for (size_t v = 0; v < n; ++v) r.pod_vector(input_[v]);
  for (auto& layer : features_) {
    for (size_t v = 0; v < n; ++v) r.pod_vector(layer[v]);
  }
  r.pod_vector(pooled_sum_);
  r.pod_vector(pooled_max_);
  if (static_cast<Index>(pooled_sum_.size()) != model_.config().hidden ||
      pooled_max_.size() != pooled_sum_.size()) {
    throw Error(ErrorCode::CheckpointMismatch,
                "AsyncEventGnn: pooled width " +
                    std::to_string(pooled_sum_.size()) + " vs model hidden " +
                    std::to_string(model_.config().hidden));
  }
  count_ = count;
}

bool AsyncEventGnn::recompute(Index layer, Index v, AsyncGnnStats& stats) {
  const GraphConv& conv = model_.conv(layer);
  const auto& neighbors = adj_[static_cast<size_t>(v)];
  const auto& pv = nodes_[static_cast<size_t>(v)].position;

  // Gather neighbour references from the previous layer's storage (member
  // scratch: no allocation once capacity has warmed up).
  refs_.clear();
  for (const Index j : neighbors) {
    const auto& pj = nodes_[static_cast<size_t>(j)].position;
    const float* feat =
        layer == 0 ? input_[static_cast<size_t>(j)].data()
                   : features_[static_cast<size_t>(layer - 1)]
                             [static_cast<size_t>(j)].data();
    refs_.push_back({feat, pj.x - pv.x, pj.y - pv.y, pj.z - pv.z});
  }
  const float* self =
      layer == 0 ? input_[static_cast<size_t>(v)].data()
                 : features_[static_cast<size_t>(layer - 1)]
                           [static_cast<size_t>(v)].data();

  fresh_.resize(static_cast<size_t>(conv.out_features()));
  conv.apply_node(self, refs_, fresh_.data());
  stats.macs += conv.node_macs(static_cast<Index>(neighbors.size()));
  ++stats.node_layer_recomputes;

  auto& stored = features_[static_cast<size_t>(layer)][static_cast<size_t>(v)];
  bool changed = false;
  const bool last_layer = (layer + 1 == model_.conv_count());
  for (size_t f = 0; f < fresh_.size(); ++f) {
    if (std::fabs(fresh_[f] - stored[f]) > kEps) changed = true;
  }
  if (changed && last_layer) {
    for (size_t f = 0; f < fresh_.size(); ++f) {
      pooled_sum_[f] += static_cast<double>(fresh_[f]) - stored[f];
      pooled_max_[f] = std::max(pooled_max_[f], fresh_[f]);
    }
  }
  if (changed) std::copy(fresh_.begin(), fresh_.end(), stored.begin());
  return changed;
}

Index AsyncEventGnn::insert_structural(const GraphNode& node,
                                       std::span<const Index> neighbors) {
  const Index id = count_;
  const auto sid = static_cast<size_t>(id);
  if (sid < nodes_.size()) {
    // Reuse a slot prepared by reserve() (or left behind by reset()):
    // assignment into retained storage, no allocation while the neighbour
    // list fits the slot's warmed-up capacity.
    nodes_[sid] = node;
    adj_[sid].assign(neighbors.begin(), neighbors.end());
    out_adj_[sid].clear();
    if (input_[sid].size() != 2) input_[sid].resize(2);
    for (Index l = 0; l < model_.conv_count(); ++l) {
      auto& slot = features_[static_cast<size_t>(l)][sid];
      const auto out = static_cast<size_t>(model_.conv(l).out_features());
      if (slot.size() != out) slot.resize(out);
      std::fill(slot.begin(), slot.end(), 0.0f);
    }
  } else {
    nodes_.push_back(node);
    adj_.emplace_back(neighbors.begin(), neighbors.end());
    out_adj_.emplace_back();
    input_.emplace_back(2);
    for (Index l = 0; l < model_.conv_count(); ++l) {
      features_[static_cast<size_t>(l)].emplace_back(
          static_cast<size_t>(model_.conv(l).out_features()), 0.0f);
    }
  }
  input_[sid][0] = node.polarity_sign > 0 ? 1.0f : 0.0f;
  input_[sid][1] = node.polarity_sign > 0 ? 0.0f : 1.0f;
  ++count_;

  for (const Index j : neighbors) {
    if (j < 0 || j >= id) {
      throw std::invalid_argument("AsyncEventGnn::insert: bad neighbour id");
    }
    if (bidirectional_) {
      out_adj_[static_cast<size_t>(j)].push_back(id);
      adj_[static_cast<size_t>(j)].push_back(id);
      out_adj_[sid].push_back(j);
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
      for (const Index w : out_adj_[static_cast<size_t>(v)]) next.insert(w);
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
  // Net effect: identical state evolution, full-sweep stats — the O(N)-
  // per-event cost the planner prices against the incremental path.
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

nn::Tensor AsyncEventGnn::logits() {
  nn::Tensor out({model_.config().num_classes});
  logits_into(out);
  return out;
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
      macs += conv.node_macs(
          static_cast<Index>(adj_[static_cast<size_t>(v)].size()));
    }
  }
  return macs;
}

}  // namespace evd::gnn
